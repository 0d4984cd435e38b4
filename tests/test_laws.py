"""Laws that tie one command's answer to another's, at m = 11..20, where the
brute-force oracles cannot run.

L1: ``score --min-size m`` sweeps the full program set only, so it scores
exactly ``analyze --inconsistent``'s inputs 1 and every other input 0.  The
two read the core off different passes: the score off ``consistent_regions``,
``analyze`` off ``complex_counts``' covering-pair comparison.

L2: ``distill`` leaves a consistent relation, and ``select --threshold t`` on
it stays consistent for every t in its report: a region at or above the cut
has every superset at or above it too.  Consistency is read twice, off the
weight vector and off the Dowker complex's covering-pair comparison, which
``analyze`` prints.

L3: ``analyze``'s inconsistent inputs, taken as a feature column, sit at
level 0 of ``features --strict``: every input inconsistent under the full
program set carries it and no other input does.  ``clean[0]`` holds exactly
when there is no inconsistent input.  ``features`` reads inconsistency off
``consistent_regions``, ``analyze`` off ``complex_counts``.

L4: the stalk over every program (``sheaf --sigma <all>``) is the ``weights``
object of ``analyze --weights``, byte for byte, and its ``consistent`` is the
diagram's verdict.  One projects the weight vector, the other labels it whole.

L5: the entries of ``sheaf --display`` sum to n minus the stalk's ``""``
count: the display lists every region that meets sigma, the stalk's empty
pattern counts the inputs that meet it nowhere.
"""

import contextlib
import csv
import io
import json

import numpy as np
import pytest

from tdt.cli import main
from tdt.diagram import build_diagram, diagram_report, is_consistent
from tdt.distill import distill, inconsistency_scores, select_inputs
from tdt.dowker import build_complex, complex_counts
from tdt.features import attribute_features
from tdt.relation import column_masks, load_relation, restrict_inputs, save_relation
from tdt.sheaf import display_vector, stalk_json

from conftest import uniform_relation

N = 600
L4_UP_TO = 17  # the two 2^m-entry writers take about 1 s at m = 18 and 4 s at m = 20


def _consistent(rel) -> bool:
    verdict = is_consistent(build_diagram(rel), rel.m)
    assert complex_counts(build_complex(rel))[3] == verdict
    return verdict


def _inconsistent(rel) -> np.ndarray:
    """Per input: does ``analyze --inconsistent`` list it?"""
    core = complex_counts(build_complex(rel))[2]
    masks = column_masks(rel)
    return (masks != 0) & ~core[masks]


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _stdout(argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


def _weights_text(report: str, key: str) -> str:
    """The text of the weights object that ends a diagram report or a stalk."""
    return report.split(f'"{key}": ', 1)[1]


@pytest.mark.parametrize("m", range(11, 21))
def test_l1_full_set_scores_are_the_inconsistent_inputs(m):
    rel = uniform_relation(m, N, seed=2700 + m)
    flagged = _inconsistent(rel)
    assert flagged.any()
    scores, swept = inconsistency_scores(rel, min_subset_size=m)
    assert swept.tolist() == [(1 << m) - 1]
    assert np.array_equal(scores, flagged.astype(np.int64))


@pytest.mark.parametrize("m", range(11, 21))
def test_l2_distill_then_every_selection_is_consistent(m):
    rel = uniform_relation(m, N, seed=2700 + m)
    assert not _consistent(rel)
    final = distill(rel).final_relation
    assert _consistent(final)
    _, report = select_inputs(final, 0)
    assert len(report) > 1
    for row in report:
        kept, _ = select_inputs(final, row.threshold)
        assert _consistent(restrict_inputs(final, kept))


def test_l1_through_the_command_line(tmp_path):
    m = 12
    path = tmp_path / "rel.json"
    save_relation(uniform_relation(m, N, seed=2700 + m), path)
    inconsistent, scores = tmp_path / "i.json", tmp_path / "s.csv"
    assert _quiet(["analyze", str(path), "--inconsistent", str(inconsistent)]) == 0
    assert _quiet(["score", str(path), "--min-size", str(m), "--scores", str(scores)]) == 0
    flagged = set(json.loads(inconsistent.read_text()))
    assert flagged
    with scores.open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == N
    assert {row["input_id"] for row in rows if row["score"] == "1"} == flagged
    assert {row["score"] for row in rows} == {"0", "1"}


def test_l2_through_the_command_line(tmp_path):
    m = 12
    path, distilled = tmp_path / "rel.json", tmp_path / "d.json"
    save_relation(uniform_relation(m, N, seed=2700 + m), path)
    assert _quiet(["distill", str(path), "--out", str(distilled)]) == 0
    assert _consistent(load_relation(distilled))
    report = tmp_path / "report.csv"
    assert _quiet(["select", str(distilled), "--threshold", "0", "--report", str(report)]) == 0
    with report.open(newline="") as f:
        thresholds = [row["threshold"] for row in csv.DictReader(f)]
    assert len(thresholds) > 1
    for t in thresholds:
        selected = tmp_path / f"s{t}.json"
        assert _quiet(["select", str(distilled), "--threshold", t, "--out", str(selected)]) == 0
        assert _consistent(load_relation(selected))


@pytest.mark.parametrize("m", range(11, 21))
def test_l3_the_inconsistent_inputs_are_a_strict_level_0_feature(m):
    rel = uniform_relation(m, N, seed=2700 + m)
    for r in (rel, distill(rel).final_relation):
        flagged = _inconsistent(r)
        assert flagged.any() == (r is rel)
        decoy = flagged.copy()
        decoy[np.argmin(flagged)] = True  # one consistent input more fails the strict test
        hits, clean = attribute_features(r, np.column_stack((flagged, decoy)), max_removed=0,
                                         strict=True)
        assert hits.tolist() == [[True, False]]
        assert clean.tolist() == [not flagged.any()]


@pytest.mark.parametrize("m", range(11, L4_UP_TO + 1))
def test_l4_the_stalk_over_every_program_is_the_weights_report(m):
    rel = uniform_relation(m, N, seed=2700 + m)
    for r in (rel, distill(rel).final_relation):
        stalk, report = stalk_json(r, (1 << r.m) - 1), diagram_report(r)
        assert _weights_text(stalk, "stalk") == _weights_text(report, "weights")
        assert json.loads(stalk)["consistent"] is json.loads(report)["consistent"] \
            is _consistent(r) is (r is not rel)


@pytest.mark.parametrize("m", range(11, 21))
def test_l5_the_display_vector_sums_to_the_inputs_meeting_sigma(m):
    rel = uniform_relation(m, N, seed=2700 + m, p=0.1)  # sparse: many inputs miss sigma
    rng = np.random.default_rng([27, m])
    for sigma in [1, *rng.integers(1, 1 << m, 3).tolist()]:
        missed = json.loads(stalk_json(rel, sigma))["stalk"][""]
        assert 0 < missed < N
        assert sum(display_vector(rel, sigma)) == N - missed


def test_l3_through_the_command_line(tmp_path):
    m = 12
    rel = uniform_relation(m, N, seed=2700 + m)
    path, inconsistent = tmp_path / "rel.json", tmp_path / "i.json"
    save_relation(rel, path)
    assert _quiet(["analyze", str(path), "--inconsistent", str(inconsistent)]) == 0
    flagged = set(json.loads(inconsistent.read_text()))
    assert flagged
    feats, out = tmp_path / "feats.csv", tmp_path / "a.json"
    feats.write_text("input,inconsistent\n"
                     + "".join(f"{name},{int(name in flagged)}\n" for name in rel.inputs))
    assert _quiet(["features", str(path), "--features", str(feats), "--strict",
                   "--max-removed", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["levels"] == {"0": ["inconsistent"]}


def test_l4_through_the_command_line(tmp_path):
    m = 12
    path, stalk, weights = tmp_path / "rel.json", tmp_path / "stalk.json", tmp_path / "w.json"
    save_relation(uniform_relation(m, N, seed=2700 + m), path)
    everyone = ",".join(f"p{j}" for j in range(m))
    assert _quiet(["sheaf", str(path), "--sigma", everyone, "--out", str(stalk)]) == 0
    printed = _stdout(["analyze", str(path), "--weights", str(weights)])
    assert _weights_text(stalk.read_text(), "stalk") == _weights_text(weights.read_text(),
                                                                       "weights")
    consistent = json.loads(stalk.read_text())["consistent"]
    assert f"diagram consistent: {consistent}\n" in printed


def test_l5_through_the_command_line(tmp_path):
    m = 12
    path, stalk = tmp_path / "rel.json", tmp_path / "stalk.json"
    save_relation(uniform_relation(m, N, seed=2700 + m, p=0.1), path)
    printed = _stdout(["sheaf", str(path), "--sigma", "p3,p7,p11", "--out", str(stalk),
                       "--display"])
    missed = json.loads(stalk.read_text())["stalk"][""]
    assert 0 < missed < N
    assert sum(json.loads(printed)) == N - missed
