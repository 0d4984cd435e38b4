import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tdt.diagram import project_diagram
from tdt.dowker import DowkerComplex
from tdt.relation import Relation, relation_csv

import oracles

# Four parsers x twenty files: the running example with a consistent core of
# {A,B,AD,CD,singletons} and six inconsistent files.
TOY_ROWS = (
    "10000011111100001111",
    "01100011100010000000",
    "00011000010011111111",
    "00000100001101111111",
)

# Three parsers x fourteen files: region weights (1,2,3,1,2,3,1,1); the screen
# drops B and one of A/C goes in the iterative step.
TRIO_ROWS = (
    "00111000101110",
    "00001011010101",
    "11010000110110",
)

DATA = Path(__file__).parent / "data"


def write_run_config(tmp_path, parallelism=1):
    """A ``tdt run`` configuration in tmp_path: three copies of the pattern stub,
    one per TRIO_ROWS row, over ``data/corpus14``; it gives
    ``data/relation_3x14.golden.json``."""
    stub = DATA / "stubs" / "pattern_parser.py"
    cfg = {
        "parsers": [
            {
                "name": name,
                "command": f"{sys.executable} {stub} {pattern} {{input}}",
                "policy": "stderr-empty",
                "keywords": ["parse error"],
            }
            for name, pattern in zip("ABC", TRIO_ROWS)
        ],
        "corpus": str(DATA / "corpus14"),
        "glob": "f*",
        "timeout_secs": 20,
        "parallelism": parallelism,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


# Region counts for the graded 3x1000 example: already consistent, used for
# threshold selection and stalk display vectors.
GRADED_COUNTS = {
    0b000: 1,
    0b001: 2,   # A
    0b010: 3,   # B
    0b100: 4,   # C
    0b011: 20,  # AB
    0b101: 30,  # AC
    0b110: 40,  # BC
    0b111: 900,
}


def program_names(m):
    if m <= 8:
        return tuple("ABCDEFGH"[:m])
    return tuple(f"p{j:02d}" for j in range(m))


def relation_from_rows(rows, programs=None, input_prefix="f"):
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if programs is None:
        programs = program_names(m)
    matrix = np.array([[c == "1" for c in row] for row in rows], dtype=bool)
    inputs = tuple(f"{input_prefix}{k + 1:02d}" for k in range(n))
    return Relation(programs=programs, inputs=inputs, accepts=matrix.reshape(m, n))


def relation_from_masks(masks, m, programs=None, input_prefix="g"):
    if programs is None:
        programs = program_names(m)
    width = len(str(len(masks)))
    inputs = tuple(f"{input_prefix}{k + 1:0{width}d}" for k in range(len(masks)))
    matrix = np.array(
        [[mask >> j & 1 == 1 for mask in masks] for j in range(m)], dtype=bool
    )
    return Relation(programs=programs, inputs=inputs, accepts=matrix.reshape(m, len(masks)))


def uniform_relation(m, n, seed, p=0.7):
    """Programs p0.. and inputs i0.., each pair accepted with probability p."""
    rng = np.random.default_rng(seed)
    return Relation(programs=tuple(f"p{j}" for j in range(m)),
                    inputs=tuple(f"i{k}" for k in range(n)),
                    accepts=rng.random((m, n)) < p)


def dual_complex(rel):
    """The Dowker complex of the transposed relation, from the oracles: one vertex per
    distinct nonzero accept-set (in first-appearance order, labeled by its first
    input), and each program's face spanning the accept-sets it accepts."""
    rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
    firsts, program_masks = oracles.dual_generators(rows)
    width = len(firsts)
    flags = np.zeros(1 << width, dtype=bool)
    flags[sorted(oracles.closure(program_masks, width))] = True
    return DowkerComplex(width, tuple(rel.inputs[k] for k in firsts), flags,
                         np.zeros(1 << width, dtype=np.int64))


def stalk(weights, m, sigma):
    """The stalk over sigma: inputs per acceptance pattern within sigma, keyed by the
    submask of sigma, read off the projection onto sigma (whose regions are the
    submasks in ascending order)."""
    patterns = [z for z in range(sigma + 1) if z & ~sigma == 0]
    return dict(zip(patterns, project_diagram(weights, m, sigma).tolist()))


def feature_csv(inputs, features, has_feature):
    """A feature file: the relation CSV of the (inputs x features) matrix's transpose."""
    return relation_csv(Relation(features, inputs, has_feature.T))


@pytest.fixture
def morse_row_calls(monkeypatch):
    """Counts the Morse boundary rows Betti numbers compute, one per critical cell
    with critical cells one program smaller."""
    import tdt.dowker

    calls = []

    def counted(cell, *args):
        calls.append(cell)
        return row(cell, *args)

    row = tdt.dowker._morse_row
    monkeypatch.setattr(tdt.dowker, "_morse_row", counted)
    return calls


@pytest.fixture
def toy_relation():
    return relation_from_rows(TOY_ROWS)


@pytest.fixture
def trio_relation():
    return relation_from_rows(TRIO_ROWS, input_prefix="c")


@pytest.fixture
def graded_relation():
    masks = [mask for mask, count in sorted(GRADED_COUNTS.items()) for _ in range(count)]
    return relation_from_masks(masks, m=3)


@pytest.fixture
def toy_features(toy_relation):
    # The names and the (inputs x features) matrix: "x" marks exactly the
    # toy's inconsistent files, "y" only file 10, "z" nothing at all.
    inconsistent = {9, 12, 16, 17, 18, 19}
    matrix = np.zeros((toy_relation.n, 3), dtype=bool)
    for k in inconsistent:
        matrix[k, 0] = True
    matrix[9, 1] = True
    return ("x", "y", "z"), matrix
