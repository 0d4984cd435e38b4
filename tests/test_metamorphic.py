"""Metamorphic checks at m = 11..20, where the brute-force oracles cannot run.

Each relation is compared with itself transformed: permuting the programs
relabels the regions (the core, the stalks, the display vector) and keeps
every per-input answer (``analyze``'s inconsistent inputs, scores in both
modes, feature levels) and the Betti numbers; repeating every input under a new id doubles every weight and
keeps every answer, the distillation trace included; permuting the inputs
permutes every per-input answer (``analyze``'s inconsistent inputs, scores in
both modes) the same way.  Under repetition ``select`` needs twice the
threshold to keep both copies of what it kept, its report lists every weight
doubled, and each classifier flags both copies of what it flagged, with the
same precision, recall and F1. Projecting a diagram onto sigma and then onto tau
within it equals projecting it onto their intersection. ``distill`` is not
checked under program permutation, because its tie rule (ascending mask)
depends on the program order.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from tdt.classify import evaluate, score_rule_classifier, vote_classifier
from tdt.cli import main
from tdt.diagram import build_diagram, project_diagram, region_sizes
from tdt.distill import distill, inconsistency_scores, select_inputs, trace_json
from tdt.dowker import betti_numbers, build_complex, complex_counts
from tdt.features import attribute_features
from tdt.relation import Relation, save_relation
from tdt.sheaf import display_vector, stalk_json

from conftest import uniform_relation

PAIRS_UP_TO = 13  # pairs mode takes about 3^m comparisons
BETTI_UP_TO = 14


def _permuted(rel, order):
    return Relation(programs=tuple(rel.programs[j] for j in order), inputs=rel.inputs,
                    accepts=rel.accepts[order])


def _relabel(order):
    """Per region of the relation permuted by ``order``, the original region."""
    regions = np.arange(1 << len(order))
    relabel = np.zeros_like(regions)
    for t, j in enumerate(order.tolist()):
        relabel |= (regions >> t & 1) << j
    return relabel


def _repeated(rel):
    return Relation(programs=rel.programs, inputs=rel.inputs + tuple(f"{i}'" for i in rel.inputs),
                    accepts=np.hstack((rel.accepts, rel.accepts)))


def _counts(rel):
    faces, red, core, consistent = complex_counts(build_complex(rel))
    return (faces, red, consistent), core


def _pairs_scores(rel):
    return inconsistency_scores(rel, min_subset_size=2, mode="pairs")[0]


@pytest.mark.parametrize("m", range(11, 21))
def test_counts_scores_and_trace_survive_permutation_and_repetition(m):
    rel = uniform_relation(m, 600, seed=1700 + m)
    trace = distill(rel)
    assert trace.steps  # the uniform relation is inconsistent; its distillate is not
    for r in (rel, trace.final_relation):
        counts, core = _counts(r)
        assert counts[2] is (r is not rel)
        order = np.random.default_rng(m).permutation(r.m)
        permuted_counts, permuted_core = _counts(_permuted(r, order))
        assert permuted_counts == counts
        assert np.array_equal(permuted_core, core[_relabel(order)])
        repeated_counts, repeated_core = _counts(_repeated(r))
        assert repeated_counts == counts
        assert np.array_equal(repeated_core, core)
    assert trace_json(distill(_repeated(rel))) == trace_json(trace)
    if m <= PAIRS_UP_TO:
        scores = _pairs_scores(rel)
        assert scores.max() > 0
        permuted = _permuted(rel, np.random.default_rng(m).permutation(m))
        assert np.array_equal(_pairs_scores(permuted), scores)
        assert np.array_equal(_pairs_scores(_repeated(rel)), np.tile(scores, 2))


@pytest.mark.parametrize("m", range(11, 15))
def test_subset_scores_survive_permutation_and_repetition(m):
    rel = uniform_relation(m, 600, seed=1700 + m)
    min_size = 2 if m == 11 else m - 2  # a full sweep costs about 3^m

    def scores(r):
        return inconsistency_scores(r, min_subset_size=min_size)[0]

    expected = scores(rel)
    assert expected.max() > 0
    assert np.array_equal(scores(_permuted(rel, np.random.default_rng(m).permutation(m))),
                          expected)
    assert np.array_equal(scores(_repeated(rel)), np.tile(expected, 2))


@pytest.mark.parametrize("m", [11, 13])
def test_repetition_doubles_selection_thresholds_and_repeats_flags(m):
    rel = uniform_relation(m, 600, seed=1700 + m)
    final = distill(rel).final_relation
    twice, n = _repeated(final), final.n
    _, base = select_inputs(final, 0)
    weights = [row.threshold for row in base if row.threshold]  # the nonzero region weights
    assert len(weights) > 1
    for t in [0, *weights]:
        kept, report = select_inputs(final, t)
        kept_twice, report_twice = select_inputs(twice, 2 * t)
        assert kept_twice == kept + tuple(k + n for k in kept)
        assert [(row.threshold, row.excluded, row.components) for row in report_twice] == \
            [(2 * row.threshold, 2 * row.excluded, row.components) for row in report]
        _, same = select_inputs(twice, t)
        assert [row.threshold for row in same] == sorted({2 * w for w in weights} | {t})
    compliant = np.random.default_rng(m).random(rel.n) < 0.7
    scores = inconsistency_scores(rel, min_subset_size=m - 2)[0]
    scores_twice = inconsistency_scores(_repeated(rel), min_subset_size=m - 2)[0]
    verdicts = [(vote_classifier(rel, k), vote_classifier(_repeated(rel), k)) for k in (1, 3)]
    top = int(scores.max())
    verdicts.append((score_rule_classifier(scores, 30, top),
                     score_rule_classifier(scores_twice, 30, top)))
    for flags, flags_twice in verdicts:
        assert 0 < flags.sum() < rel.n
        assert np.array_equal(flags_twice, np.tile(flags, 2))
        once, doubled = evaluate(flags, compliant), evaluate(flags_twice, np.tile(compliant, 2))
        assert (doubled.precision, doubled.recall, doubled.f1) == \
            (once.precision, once.recall, once.f1)
    # a dense relation's complex is contractible; a sparse one's has holes
    sparse = uniform_relation(m, 60, seed=1700 + m, p=0.2)
    betti = betti_numbers(build_complex(sparse), 2)
    assert betti[1:] != (0, 0)
    assert betti_numbers(build_complex(_repeated(sparse)), 2) == betti


def _planted(m):
    """Feature q (column 0; r, column 1, is random) is carried exactly by the
    inputs every program accepts; program 0
    rejects every other input, and the other programs accept the heavier rest. So q
    marks every input inconsistent in the full relation, and strict mode, which
    also asks that no consistent input carry q, drops q from the levels below."""
    carriers, rest, n = 7, 12, 21  # the last two inputs nobody accepts
    accepts = np.zeros((m, n), dtype=bool)
    accepts[:, :carriers + rest] = True
    accepts[0, carriers:] = False
    rel = Relation(programs=tuple(f"p{j}" for j in range(m)),
                   inputs=tuple(f"i{k}" for k in range(n)), accepts=accepts)
    has = np.column_stack((np.arange(n) < carriers, np.random.default_rng(m).random(n) < 0.5))
    return rel, has


@pytest.mark.parametrize("m", range(11, 15))
def test_feature_levels_survive_permutation(m):
    rel, has = _planted(m)
    permuted = _permuted(rel, np.random.default_rng(m).permutation(m))

    def answer(r, strict):
        return tuple(a.tolist() for a in attribute_features(r, has, max_removed=2, strict=strict))

    plain, strict = answer(rel, False), answer(rel, True)
    assert plain[0][0][0] and not any(row[1] for row in plain[0])  # q at level 0, r at none
    assert plain[0] != strict[0]
    assert answer(permuted, False) == plain
    assert answer(permuted, True) == strict


@pytest.mark.parametrize("m", range(11, 21))
def test_projections_compose(m):
    diag = build_diagram(uniform_relation(m, 600, seed=1800 + m))
    rng = np.random.default_rng([18, m])
    for _ in range(4):
        sigma, tau = (int(x) for x in rng.integers(1, 1 << m, 2))
        if not sigma & tau:
            continue
        # tau within sigma: bit t is set when sigma's t-th program is in tau
        members = [j for j in range(m) if sigma >> j & 1]
        inner = sum(1 << t for t, j in enumerate(members) if tau >> j & 1)
        width = bin(sigma).count("1")
        assert np.array_equal(project_diagram(project_diagram(diag, m, sigma), width, inner),
                              project_diagram(diag, m, sigma & tau))


def _inconsistent_ids(rel, tmp_path):
    """The ids that ``tdt analyze --inconsistent`` writes for a relation."""
    path, out = tmp_path / "rel.json", tmp_path / "inconsistent.json"
    save_relation(rel, path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", str(path), "--inconsistent", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("m", range(11, 21))
def test_per_input_answers_follow_an_input_permutation(m, tmp_path):
    rel = uniform_relation(m, 600, seed=1800 + m)
    order = np.random.default_rng(m).permutation(rel.n)
    shuffled = Relation(programs=rel.programs, inputs=tuple(rel.inputs[k] for k in order),
                        accepts=rel.accepts[:, order])
    flagged = set(_inconsistent_ids(rel, tmp_path))
    assert flagged
    assert _inconsistent_ids(shuffled, tmp_path) == [i for i in shuffled.inputs if i in flagged]
    modes = [("subset", m - 1)] + [("pairs", 2)] * (m <= PAIRS_UP_TO)
    for mode, min_size in modes:
        scores, _ = inconsistency_scores(rel, min_subset_size=min_size, mode=mode)
        assert scores.max() > 0
        shuffled_scores, _ = inconsistency_scores(shuffled, min_subset_size=min_size, mode=mode)
        assert np.array_equal(shuffled_scores, scores[order])


@pytest.mark.parametrize("m", range(11, 21))
def test_program_permutation_keeps_inputs_and_betti_and_relabels_stalks(m, tmp_path):
    rel = uniform_relation(m, 600, seed=1900 + m)
    rng = np.random.default_rng([19, m])
    order = rng.permutation(m)
    permuted, relabel = _permuted(rel, order), _relabel(order)
    flagged = _inconsistent_ids(rel, tmp_path)
    assert flagged
    assert _inconsistent_ids(permuted, tmp_path) == flagged
    weights, size, regions = build_diagram(rel), region_sizes(m), np.arange(1 << m)
    for sigma in rng.integers(1, 1 << m, 2).tolist():
        moved = sum(1 << t for t, j in enumerate(order.tolist()) if sigma >> j & 1)
        # the stalk names its programs, so it is the same text
        assert stalk_json(permuted, moved) == stalk_json(rel, sigma)
        # the display vector lists the permuted regions by (|Z & sigma|, |Z|, Z)
        meet = size[regions & moved]
        shown = regions[meet > 0]
        shown = shown[np.lexsort((shown, size[shown], meet[shown]))]
        assert display_vector(permuted, moved) == tuple(weights[relabel[shown]].tolist())
    if m <= BETTI_UP_TO:
        # a dense relation's complex is contractible; a sparse one's has holes
        sparse = uniform_relation(m, 60, seed=1900 + m, p=0.2)
        betti = betti_numbers(build_complex(sparse), 2)
        assert betti[1:] != (0, 0)
        assert betti_numbers(build_complex(_permuted(sparse, order)), 2) == betti
