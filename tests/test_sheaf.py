import json

import numpy as np
import pytest

from tdt.diagram import build_diagram, is_consistent
from tdt.errors import ValidationError
from tdt.sheaf import (
    build_assignment,
    consistency_at,
    display_vector,
    stalk_json,
)

from conftest import relation_from_masks, relation_from_rows
import oracles
from oracles import restrict_stalk

A, B, C = 1, 2, 4


def test_stalk_single_program(graded_relation, toy_relation):
    stalks = build_assignment(graded_relation)
    assert stalks.stalk(A) == {0: 48, A: 952}
    toy = build_assignment(toy_relation)
    assert toy.stalk(B) == {0: 14, B: 6}


def test_stalk_full_subset_equals_diagram(trio_relation):
    stalks = build_assignment(trio_relation)
    diag = build_diagram(trio_relation)
    assert stalks.stalk(A | B | C) == dict(enumerate(diag.weights))


def test_stalk_pair_trio(trio_relation):
    # frozen from the brute-force recount: project the 3x14 matrix onto {A,B}
    stalks = build_assignment(trio_relation)
    assert stalks.stalk(A | B) == {0: 3, A: 5, B: 4, A | B: 2}


def test_stalk_classes_sum_to_corpus(toy_relation):
    stalks = build_assignment(toy_relation)
    for sigma in range(1, 16):
        assert sum(stalks.stalk(sigma).values()) == toy_relation.n


def test_coarsening_identity(toy_relation):
    stalks = build_assignment(toy_relation)
    for sigma in range(1, 16):
        for j in range(4):
            sub = sigma & ~(1 << j)
            if sub == 0 or sub == sigma:
                continue
            assert restrict_stalk(stalks.stalk(sigma), sigma, sub) == stalks.stalk(sub)


def test_consistency_at(trio_relation, graded_relation):
    trio = build_assignment(trio_relation)
    assert not consistency_at(trio, A | B)  # joint class is lighter than both singles
    assert not consistency_at(trio, A | B | C)
    assert consistency_at(trio, A)  # accepts 7 >= rejects 7
    graded = build_assignment(graded_relation)
    for sigma in range(1, 8):
        assert consistency_at(graded, sigma)


def test_consistency_at_full_set_matches_diagram(trio_relation, graded_relation):
    for rel in (trio_relation, graded_relation):
        stalks = build_assignment(rel)
        full = (1 << rel.m) - 1
        assert consistency_at(stalks, full) == is_consistent(build_diagram(rel))


def test_consistency_at_rejects_unknown_simplex(trio_relation):
    stalks = build_assignment(trio_relation)
    with pytest.raises(ValidationError):
        consistency_at(stalks, 0)
    with pytest.raises(ValidationError):
        consistency_at(stalks, 1 << 5)


def test_display_vectors_graded(graded_relation):
    assert display_vector(graded_relation, A) == (2, 20, 30, 900)
    assert display_vector(graded_relation, B) == (3, 20, 40, 900)
    assert display_vector(graded_relation, C) == (4, 30, 40, 900)
    assert display_vector(graded_relation, A | B) == (2, 3, 30, 40, 20, 900)
    assert display_vector(graded_relation, A | C) == (2, 4, 20, 40, 30, 900)
    assert display_vector(graded_relation, B | C) == (3, 4, 20, 30, 40, 900)
    assert display_vector(graded_relation, A | B | C) == (2, 3, 4, 20, 30, 40, 900)


def test_display_vector_sum(toy_relation):
    diag = build_diagram(toy_relation)
    for sigma in range(1, 16):
        vec = display_vector(toy_relation, sigma)
        skipped = sum(
            w for mask, w in enumerate(diag.weights) if mask & sigma == 0
        )
        assert sum(vec) == toy_relation.n - skipped


@pytest.mark.parametrize("m", range(1, 11))
def test_display_vector_matches_the_sort_key_oracle(m):
    """Seeded relations whose region weights are all distinct up to m = 8, so
    the display vector fixes the region order; random weights above."""
    rng = np.random.default_rng([7, m])
    counts = rng.permutation(1 << m) if m <= 8 else rng.integers(0, 8, 1 << m)
    rel = relation_from_masks(np.repeat(np.arange(1 << m), counts).tolist(), m=m)
    weights = build_diagram(rel).weights
    for sigma in {1 << m - 1, (1 << m) - 1, *rng.integers(1, 1 << m, 6).tolist()}:
        expected = tuple(weights[oracles.display_order(m, sigma)].tolist())
        assert display_vector(rel, sigma) == expected


def test_stalk_json(graded_relation):
    payload = json.loads(stalk_json(graded_relation, A))
    assert payload == {
        "sigma": ["A"],
        "stalk": {"": 48, "A": 952},
        "consistent": True,
    }


def test_stalk_singleton_acceptance_rule():
    # a lone program accepting a minority is inconsistent at its own vertex
    rel = relation_from_masks([1, 0, 0], m=1)
    stalks = build_assignment(rel)
    assert not consistency_at(stalks, 1)
    rel2 = relation_from_masks([1, 1, 0], m=1)
    assert consistency_at(build_assignment(rel2), 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_consistency_at_matches_the_sheaf_condition_oracle(m):
    """At every nonempty simplex of seeded relations, the one-projection check
    agrees with the definition: cofaces' stalks restrict to sigma's, and the
    relation restricted to sigma is consistent."""
    verdicts = set()
    for p in (0.3, 0.5, 0.7):
        rng = np.random.default_rng([m, round(10 * p)])
        n = int(rng.integers(1, 41))
        rows = ["".join("1" if x else "0" for x in rng.random(n) < p) for _ in range(m)]
        assignment = build_assignment(relation_from_rows(rows))
        for sigma in range(1, 1 << m):
            assert assignment.stalk(sigma) == oracles.stalk(rows, sigma)
            verdict = consistency_at(assignment, sigma)
            assert verdict == oracles.consistency_at(assignment.stalk, rows, sigma)
            verdicts.add(verdict)
    assert verdicts == {True, False}
