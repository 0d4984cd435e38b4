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
"""

import contextlib
import csv
import io
import json

import pytest

from tdt.cli import main
from tdt.diagram import build_diagram, is_consistent
from tdt.distill import distill, inconsistency_scores, select_inputs
from tdt.dowker import build_complex, complex_counts
from tdt.relation import column_masks, load_relation, restrict_inputs, save_relation

from conftest import uniform_relation

N = 600


def _consistent(rel) -> bool:
    verdict = is_consistent(build_diagram(rel), rel.m)
    assert complex_counts(build_complex(rel))[3] == verdict
    return verdict


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("m", range(11, 21))
def test_l1_full_set_scores_are_the_inconsistent_inputs(m):
    rel = uniform_relation(m, N, seed=2700 + m)
    core = complex_counts(build_complex(rel))[2]
    masks = column_masks(rel)
    flagged = (masks != 0) & ~core[masks]  # what analyze --inconsistent lists
    assert flagged.any()
    vec = inconsistency_scores(rel, min_subset_size=m)
    assert vec.swept == ((1 << m) - 1,)
    assert vec.scores == tuple(flagged.astype(int).tolist())


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
