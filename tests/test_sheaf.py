import json

import numpy as np
import pytest

from tdt.diagram import build_diagram, is_consistent
from tdt.errors import ValidationError
from tdt.sheaf import display_vector, stalk_json

from conftest import relation_from_masks, relation_from_rows, stalk
import oracles
from oracles import restrict_stalk

A, B, C = 1, 2, 4


def _stalk_json(rel, sigma):
    """Sigma's stalk, keyed by pattern names, and its verdict, as ``tdt sheaf`` prints them."""
    payload = json.loads(stalk_json(rel, sigma))
    return payload["stalk"], payload["consistent"]


def test_stalk_single_program(graded_relation, toy_relation):
    assert _stalk_json(graded_relation, A)[0] == {"": 48, "A": 952}
    assert _stalk_json(toy_relation, B)[0] == {"": 14, "B": 6}


def test_stalk_full_subset_equals_diagram(trio_relation):
    diag = build_diagram(trio_relation)
    assert stalk(diag, 3, A | B | C) == dict(enumerate(diag.tolist()))


def test_stalk_pair_trio(trio_relation):
    # frozen from the brute-force recount: project the 3x14 matrix onto {A,B}
    assert _stalk_json(trio_relation, A | B)[0] == {"": 3, "A": 5, "B": 4, "A,B": 2}


def test_stalk_classes_sum_to_corpus(toy_relation):
    for sigma in range(1, 16):
        assert sum(_stalk_json(toy_relation, sigma)[0].values()) == toy_relation.n


def test_coarsening_identity(toy_relation):
    diag = build_diagram(toy_relation)
    for sigma in range(1, 16):
        for j in range(4):
            sub = sigma & ~(1 << j)
            if sub == 0 or sub == sigma:
                continue
            assert restrict_stalk(stalk(diag, 4, sigma), sigma, sub) == stalk(diag, 4, sub)


def test_consistency_at(trio_relation, graded_relation):
    assert not _stalk_json(trio_relation, A | B)[1]  # joint class is lighter than both singles
    assert not _stalk_json(trio_relation, A | B | C)[1]
    assert _stalk_json(trio_relation, A)[1]  # accepts 7 >= rejects 7
    for sigma in range(1, 8):
        assert _stalk_json(graded_relation, sigma)[1]


def test_consistency_at_full_set_matches_diagram(trio_relation, graded_relation):
    for rel in (trio_relation, graded_relation):
        full = (1 << rel.m) - 1
        assert _stalk_json(rel, full)[1] == is_consistent(build_diagram(rel), rel.m)


def test_consistency_at_rejects_unknown_simplex(trio_relation):
    with pytest.raises(ValidationError):
        stalk_json(trio_relation, 0)
    with pytest.raises(ValidationError):
        stalk_json(trio_relation, 1 << 5)


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
            w for mask, w in enumerate(diag) if mask & sigma == 0
        )
        assert sum(vec) == toy_relation.n - skipped


@pytest.mark.parametrize("m", range(1, 11))
def test_display_vector_matches_the_sort_key_oracle(m):
    """Seeded relations whose region weights are all distinct up to m = 8, so
    the display vector fixes the region order; random weights above."""
    rng = np.random.default_rng([7, m])
    counts = rng.permutation(1 << m) if m <= 8 else rng.integers(0, 8, 1 << m)
    rel = relation_from_masks(np.repeat(np.arange(1 << m), counts).tolist(), m=m)
    weights = build_diagram(rel)
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
    assert not _stalk_json(relation_from_masks([1, 0, 0], m=1), 1)[1]
    assert _stalk_json(relation_from_masks([1, 1, 0], m=1), 1)[1]


@pytest.mark.parametrize("m", range(1, 9))
def test_consistency_at_matches_the_sheaf_condition_oracle(m):
    """At every nonempty simplex of seeded relations, the verdict that
    ``stalk_json`` reports off one projection agrees with the definition:
    cofaces' stalks restrict to sigma's, and the relation restricted to sigma
    is consistent. It reports the stalk that the oracle recounts."""
    verdicts = set()
    for p in (0.3, 0.5, 0.7):
        rng = np.random.default_rng([m, round(10 * p)])
        n = int(rng.integers(1, 41))
        rows = ["".join("1" if x else "0" for x in rng.random(n) < p) for _ in range(m)]
        rel = relation_from_rows(rows)
        diag = build_diagram(rel)

        def names(mask):
            return sorted(rel.programs[j] for j in range(m) if mask >> j & 1)

        for sigma in range(1, 1 << m):
            expected = oracles.stalk(rows, sigma)
            assert stalk(diag, m, sigma) == expected
            verdict = oracles.consistency_at(lambda mask: stalk(diag, m, mask), rows, sigma)
            verdicts.add(verdict)
            assert stalk_json(rel, sigma) == json.dumps({
                "sigma": names(sigma),
                "stalk": {",".join(names(z)): count for z, count in expected.items()},
                "consistent": verdict,
            }, sort_keys=True, indent=2) + "\n"
    assert verdicts == {True, False}


def test_stalk_json_bytes_with_comma_and_non_ascii_names():
    """Names that hold commas give several patterns one key, and the last pattern
    holds it, as in a dict; json escapes the non-ASCII names. The text is that of
    json.dumps over the oracle's stalk."""
    names = ("a,b", "a", "b", "é", "λ,", "Z")
    rng = np.random.default_rng(27)
    rel = relation_from_masks(rng.integers(0, 1 << 6, 200).tolist(), m=6, programs=names)
    rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]

    def members(mask):
        return sorted(names[j] for j in range(6) if mask >> j & 1)

    shared = 0
    for sigma in range(1, 1 << 6):
        kept = [j for j in range(6) if sigma >> j & 1]
        stalk_by_name = {",".join(members(z)): count
                         for z, count in oracles.stalk(rows, sigma).items()}
        shared += len(stalk_by_name) < 1 << len(kept)
        consistent = oracles.consistent_by_covers(
            oracles.region_weights(oracles.restrict_rows(rows, kept)), len(kept))
        assert stalk_json(rel, sigma) == json.dumps(
            {"sigma": members(sigma), "stalk": stalk_by_name, "consistent": consistent},
            sort_keys=True, indent=2) + "\n"
    assert shared
