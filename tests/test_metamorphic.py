"""Metamorphic checks at m = 11..20, where the brute-force oracles cannot run.

Each relation is compared with itself transformed: permuting the programs
relabels the regions and keeps every per-input answer; repeating every input
under a new id doubles every weight and keeps every answer, the distillation
trace included. ``distill`` is not checked under permutation, because its tie
rule (ascending mask) depends on the program order.
"""

import numpy as np
import pytest

from tdt.diagram import build_diagram
from tdt.distill import distill, inconsistency_scores, trace_json
from tdt.dowker import complex_counts
from tdt.relation import Relation

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
    faces, red, core, consistent = complex_counts(build_diagram(rel).weights, rel.m)
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
