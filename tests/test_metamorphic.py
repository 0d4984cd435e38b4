"""Metamorphic checks at m = 11..20, where the brute-force oracles cannot run.

Each relation is compared with itself transformed: permuting the programs
relabels the regions and keeps every per-input answer (scores in both modes,
feature levels); repeating every input under a new id doubles every weight and
keeps every answer, the distillation trace included. ``distill`` is not checked
under permutation, because its tie rule (ascending mask) depends on the program
order.
"""

import numpy as np
import pytest

from tdt.distill import distill, inconsistency_scores, trace_json
from tdt.dowker import build_complex, complex_counts
from tdt.features import attribute_features
from tdt.relation import FeatureRelation, Relation

PAIRS_UP_TO = 13  # pairs mode takes about 3^m comparisons


def _uniform(m, n, seed):
    rng = np.random.default_rng(seed)
    return Relation(programs=tuple(f"p{j}" for j in range(m)),
                    inputs=tuple(f"i{k}" for k in range(n)),
                    accepts=rng.random((m, n)) < 0.7)


def _permuted(rel, order):
    return Relation(programs=tuple(rel.programs[j] for j in order), inputs=rel.inputs,
                    accepts=rel.accepts[order])


def _repeated(rel):
    return Relation(programs=rel.programs, inputs=rel.inputs + tuple(f"{i}'" for i in rel.inputs),
                    accepts=np.hstack((rel.accepts, rel.accepts)))


def _counts(rel):
    faces, red, core, consistent = complex_counts(build_complex(rel))
    return (faces, red, consistent), core


def _pairs_scores(rel):
    return inconsistency_scores(rel, min_subset_size=2, mode="pairs").scores


@pytest.mark.parametrize("m", range(11, 21))
def test_counts_scores_and_trace_survive_permutation_and_repetition(m):
    rel = _uniform(m, 600, seed=1700 + m)
    trace = distill(rel)
    assert trace.steps  # the uniform relation is inconsistent; its distillate is not
    for r in (rel, trace.final_relation):
        counts, core = _counts(r)
        assert counts[2] is (r is not rel)
        order = np.random.default_rng(m).permutation(r.m)
        regions = np.arange(1 << r.m)  # region of the permuted relation -> original region
        relabel = np.zeros_like(regions)
        for t, j in enumerate(order.tolist()):
            relabel |= (regions >> t & 1) << j
        permuted_counts, permuted_core = _counts(_permuted(r, order))
        assert permuted_counts == counts
        assert np.array_equal(permuted_core, core[relabel])
        repeated_counts, repeated_core = _counts(_repeated(r))
        assert repeated_counts == counts
        assert np.array_equal(repeated_core, core)
    assert trace_json(distill(_repeated(rel))) == trace_json(trace)
    if m <= PAIRS_UP_TO:
        scores = _pairs_scores(rel)
        assert max(scores) > 0
        assert _pairs_scores(_permuted(rel, np.random.default_rng(m).permutation(m))) == scores
        assert _pairs_scores(_repeated(rel)) == scores + scores


@pytest.mark.parametrize("m", range(11, 15))
def test_subset_scores_survive_permutation_and_repetition(m):
    rel = _uniform(m, 600, seed=1700 + m)
    min_size = 2 if m == 11 else m - 2  # a full sweep costs about 3^m

    def scores(r):
        return inconsistency_scores(r, min_subset_size=min_size).scores

    expected = scores(rel)
    assert max(expected) > 0
    assert scores(_permuted(rel, np.random.default_rng(m).permutation(m))) == expected
    assert scores(_repeated(rel)) == expected + expected


def _planted(m):
    """Feature q is carried exactly by the inputs every program accepts; program 0
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
    return rel, FeatureRelation(inputs=rel.inputs, features=("q", "r"), has_feature=has)


@pytest.mark.parametrize("m", range(11, 15))
def test_feature_levels_survive_permutation(m):
    rel, feats = _planted(m)
    permuted = _permuted(rel, np.random.default_rng(m).permutation(m))

    def answer(r, strict):
        a = attribute_features(r, feats, max_removed=2, strict=strict)
        return a.levels, a.stratification, a.clean

    plain, strict = answer(rel, False), answer(rel, True)
    assert plain[1] == {"q": 0, "r": None}
    assert plain[0] != strict[0]
    assert answer(permuted, False) == plain
    assert answer(permuted, True) == strict
