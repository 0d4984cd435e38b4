import importlib
import json
import random

import numpy as np
import pytest

from tdt.diagram import build_diagram, is_consistent
from tdt.distill import (
    distill,
    histogram_csv,
    inconsistency_scores,
    scores_csv,
    select_inputs,
    selection_report_csv,
    singleton_screen,
    trace_json,
)
from tdt.errors import EmptyScreenError, InconsistentDiagramError, ValidationError
from tdt.relation import restrict_inputs

from conftest import relation_from_masks, relation_from_rows
import oracles
from oracles import sweep_scores

# Frozen from the brute-force sweep oracle (tests/oracles.py) ahead of the build.
TOY_SCORES = (0, 0, 0, 0, 0, 0, 1, 1, 1, 3, 1, 1, 4, 0, 0, 0, 3, 3, 3, 3)


def test_singleton_screen_trio(trio_relation):
    kept, removed = singleton_screen(trio_relation)
    assert kept.programs == ("A", "C")
    assert [(r.program, r.accepted, r.rejected) for r in removed] == [("B", 6, 8)]


def test_singleton_screen_keeps_everything():
    rel = relation_from_rows(("1111", "1111"))
    kept, removed = singleton_screen(rel)
    assert kept.programs == rel.programs and removed == ()


def test_singleton_screen_all_removed():
    rel = relation_from_masks([0, 0, 0], m=2)
    with pytest.raises(EmptyScreenError):
        singleton_screen(rel)


def test_distill_trio(trio_relation):
    trace = distill(trio_relation)
    assert [r.program for r in trace.initial_removals] == ["B"]
    assert len(trace.steps) == 1
    assert trace.steps[0].removed in ("A", "C")
    assert len(trace.final_programs) == 1
    assert trace.final_programs[0] in ("A", "C")
    diag = build_diagram(trace.final_relation)
    assert tuple(diag.weights) == (7, 7)
    assert is_consistent(diag)


def test_distill_consistent_input_is_untouched(graded_relation):
    trace = distill(graded_relation)
    assert trace.initial_removals == () and trace.steps == ()
    assert trace.final_programs == graded_relation.programs


def test_distill_random_relations_end_consistent():
    rng = random.Random(2029)
    for _ in range(40):
        n = rng.randrange(1, 31)
        masks = [rng.randrange(0, 32) for _ in range(n)]
        rel = relation_from_masks(masks, m=5)
        try:
            trace = distill(rel)
        except EmptyScreenError:
            continue
        assert is_consistent(build_diagram(trace.final_relation))
        assert len(trace.steps) <= 5


def test_trace_json_shape(trio_relation):
    payload = json.loads(trace_json(distill(trio_relation)))
    assert payload["screened"] == ["B"]
    assert set(payload) == {"screened", "steps", "final"}
    step = payload["steps"][0]
    assert set(step) == {"region", "face", "removed"}


def test_inconsistency_scores_toy(toy_relation):
    vec = inconsistency_scores(toy_relation)
    assert vec.scores == TOY_SCORES
    assert len(vec.swept) == 11  # subsets of size >= 2 out of four programs
    # first file has a singleton accept-set: never inconsistent anywhere
    assert vec.scores[0] == 0
    # identical columns score identically
    assert len({vec.scores[k] for k in (16, 17, 18, 19)}) == 1


def test_inconsistency_scores_match_oracle(toy_relation, trio_relation):
    for rel in (toy_relation, trio_relation):
        rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
        assert list(inconsistency_scores(rel).scores) == sweep_scores(rows, 2)


def test_inconsistency_scores_pairs_mode(toy_relation):
    vec = inconsistency_scores(toy_relation, mode="pairs")
    assert vec.mode == "pairs"
    assert len(vec.scores) == toy_relation.n
    # pair blame also leaves singleton-accept-set files clean when no subset
    # pair outweighs them; file 1 is only accepted by A
    assert min(vec.scores) >= 0


def test_inconsistency_scores_validation(toy_relation):
    with pytest.raises(ValidationError):
        inconsistency_scores(toy_relation, min_subset_size=0)
    with pytest.raises(ValidationError):
        inconsistency_scores(toy_relation, mode="bogus")


def test_scores_and_histogram_csv(toy_relation):
    vec = inconsistency_scores(toy_relation)
    lines = scores_csv(vec).splitlines()
    assert lines[0] == "input_id,score"
    assert lines[1] == "f01,0"
    assert len(lines) == 21
    hist = histogram_csv(vec).splitlines()
    assert hist[0] == "score,count"
    counts = [int(line.split(",")[1]) for line in hist[1:]]
    assert sum(counts) == 20
    assert hist[1:] == ["0,9", "1,5", "3,5", "4,1"]


def test_select_inputs_graded(graded_relation):
    kept, report = select_inputs(graded_relation, 20)
    assert len(kept) == 990
    kept900, _ = select_inputs(graded_relation, 900)
    assert len(kept900) == 900
    kept0, _ = select_inputs(graded_relation, 0)
    assert len(kept0) == 1000
    by_threshold = {row.threshold: row for row in report}
    assert by_threshold[20].excluded == 10
    assert by_threshold[900].excluded == 100
    assert all(row.components == 1 for row in report)


def test_select_inputs_monotone(graded_relation):
    kept_lo, _ = select_inputs(graded_relation, 20)
    kept_hi, _ = select_inputs(graded_relation, 30)
    assert set(kept_hi) <= set(kept_lo)


def test_select_inputs_requires_consistency(trio_relation):
    with pytest.raises(InconsistentDiagramError, match="distill"):
        select_inputs(trio_relation, 1)


def test_select_then_reanalyze_has_no_light_regions(graded_relation):
    kept, _ = select_inputs(graded_relation, 30)
    survivors = restrict_inputs(graded_relation, kept)
    diag = build_diagram(survivors)
    assert all(w == 0 or w >= 30 for w in diag.weights)


def test_selection_report_csv(graded_relation):
    _, report = select_inputs(graded_relation, 20)
    lines = selection_report_csv(report).splitlines()
    assert lines[0] == "threshold,excluded,components"
    assert "20,10,1" in lines
    assert "900,100,1" in lines


def test_histogram_and_selection_report_text():
    from tdt.distill import ScoreVector, ThresholdRow

    def vector(scores):
        return ScoreVector(inputs=tuple(f"f{k}" for k in range(len(scores))), scores=scores,
                           swept=(3,), min_subset_size=2, mode="subset")

    assert histogram_csv(vector((0, 3, 0))) == "score,count\n0,2\n3,1\n"
    assert histogram_csv(vector(())) == "score,count\n"
    rows = (ThresholdRow(1, 2, 1), ThresholdRow(5, 0, 0))
    assert selection_report_csv(rows) == "threshold,excluded,components\n1,2,1\n5,0,0\n"
    assert selection_report_csv(()) == "threshold,excluded,components\n"


def test_pairs_mode_matches_pairwise_blame(toy_relation):
    from tdt.diagram import pair_inconsistent_inputs
    from tdt.util import popcount, submasks

    vec = inconsistency_scores(toy_relation, mode="pairs")
    expected = [0] * toy_relation.n
    for tau in range(1, 16):
        if popcount(tau) < 2:
            continue
        for sigma in submasks(tau):
            if sigma == tau:
                continue
            for k in pair_inconsistent_inputs(toy_relation, sigma, tau):
                expected[k] += 1
    assert list(vec.scores) == expected


def _seeded_rows(m, p, case):
    rng = np.random.default_rng([m, round(10 * p), case])
    n = int(rng.integers(1, 61))
    names = tuple(str(name) for name in rng.permutation(list("ABCDEFGH"))[:m])
    return names, ["".join("1" if x else "0" for x in rng.random(n) < p) for _ in range(m)]


@pytest.mark.parametrize("m", range(1, 9))
def test_distill_matches_restrict_and_rebuild_oracle(m):
    """Seeded relations at p = 0.3/0.5/0.7: the trace bytes and the final
    relation equal those of recounting the weights of the restricted rows in
    every round."""
    steps = 0
    for p in (0.3, 0.5, 0.7):
        for case in range(4):
            names, rows = _seeded_rows(m, p, case)
            rel = relation_from_rows(rows, programs=names)
            expected = oracles.distill_trace(list(names), rows)
            if expected is None:
                with pytest.raises(EmptyScreenError):
                    distill(rel)
                continue
            screened, oracle_steps, final_names, final_rows = expected
            payload = {
                "screened": screened,
                "steps": [{"region": r, "face": f, "removed": x} for r, f, x in oracle_steps],
                "final": final_names,
            }
            trace = distill(rel)
            assert trace_json(trace) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
            assert trace.final_relation == relation_from_rows(final_rows, programs=final_names)
            steps += len(trace.steps)
    assert steps >= (m > 1)


def test_distill_builds_the_diagram_once(monkeypatch):
    built = []

    def counting(rel):
        built.append(rel.m)
        return build_diagram(rel)

    # the package's ``distill`` attribute is the function, so fetch the module itself
    monkeypatch.setattr(importlib.import_module("tdt.distill"), "build_diagram", counting)
    names, rows = _seeded_rows(7, 0.5, 2)
    trace = distill(relation_from_rows(rows, programs=names))
    assert len(trace.steps) >= 3
    assert built == [len(trace.steps) + len(trace.final_programs)]  # once, before any step
