import json

import numpy as np
import pytest

from tdt.diagram import inconsistent_accept_sets
from tdt.errors import ValidationError
from tdt.features import (
    attribute_features,
    attribution_json,
    greedy_feature_pruning,
    variation_of_information,
)
from tdt.relation import restrict_programs

from conftest import relation_from_masks

FULL = 0b1111


def _product_at(rel, has_feature, subset, strict=False):
    """The relation product's flags at one subset: level 0 of the sweep over
    the relation restricted to that subset."""
    hits, _ = attribute_features(restrict_programs(rel, subset), has_feature, max_removed=0,
                                 strict=strict)
    return hits[0].tolist()


def _strata(hits):
    """Each feature's first level that flags it, or None, read off the hits."""
    return [next((r for r, row in enumerate(hits.tolist()) if row[i]), None)
            for i in range(hits.shape[1])]


def test_relation_product_full_sweep(toy_relation, toy_features):
    # "x" marks exactly the inconsistent files; "y" misses file 13; "z" marks nothing
    _, has = toy_features
    assert _product_at(toy_relation, has, FULL) == [True, False, False]
    assert _product_at(toy_relation, has, FULL, strict=True) == [True, False, False]


def test_relation_product_empty_conjunction(graded_relation):
    has = np.zeros((graded_relation.n, 1), dtype=bool)
    # the graded relation is fully consistent, so no input is inconsistent
    assert _product_at(graded_relation, has, 0b111) == [True]


def test_relation_product_strict_implies_plain(toy_relation, toy_features):
    _, has = toy_features
    for mask in range(1, 16):
        plain = _product_at(toy_relation, has, mask)
        strict = _product_at(toy_relation, has, mask, strict=True)
        assert all(p for p, s in zip(plain, strict) if s)


def test_relation_product_alignment_check(toy_relation):
    for has in (np.zeros((1, 1), dtype=bool), np.zeros(toy_relation.n, dtype=bool)):
        with pytest.raises(ValidationError, match="does not match the relation's 20 inputs"):
            attribute_features(toy_relation, has)


def test_feature_strata_toy(toy_relation, toy_features):
    names, has = toy_features
    hits, clean = attribute_features(toy_relation, has)
    assert hits.tolist() == [[True, False, False], [False] * 3, [False] * 3, [True] * 3]
    assert clean.tolist() == [False, False, False, True]
    payload = json.loads(attribution_json(toy_relation, names, has))
    assert payload["levels"] == {"0": ["x"], "1": [], "2": [], "3": ["x", "y", "z"]}
    assert payload["stratification"] == {"x": 0, "y": 3, "z": 3}


def test_feature_strata_truncated_sweep(toy_relation, toy_features):
    names, has = toy_features
    hits, clean = attribute_features(toy_relation, has, max_removed=1)
    assert hits.shape == (2, 3) and clean.shape == (2,)
    payload = json.loads(attribution_json(toy_relation, names, has, max_removed=1))
    assert payload["stratification"] == {"x": 0, "y": None, "z": None}


def test_feature_strata_all_consistent(graded_relation):
    hits, clean = attribute_features(graded_relation, np.zeros((graded_relation.n, 2), bool))
    assert hits[0].tolist() == [True, True]
    assert _strata(hits) == [0, 0]
    assert clean.all()


def test_raw_levels_overlap_is_reported_not_asserted(toy_relation, toy_features):
    hits, _ = attribute_features(toy_relation, toy_features[1])
    overlaps = [
        (r, s)
        for r in range(len(hits))
        for s in range(len(hits))
        if r < s and (hits[r] & hits[s]).any()
    ]
    if overlaps:
        print(f"note: raw attribution levels overlap at {overlaps}")
    # the stratification itself is a partition regardless
    assert all(level is not None for level in _strata(hits))


def test_vi_identical_is_zero():
    p = [{1, 2}, {3, 4}]
    assert variation_of_information(p, p) == 0.0


def test_vi_crosscut_partitions():
    p = [{1, 2}, {3, 4}]
    q = [{1, 3}, {2, 4}]
    assert variation_of_information(p, q) == pytest.approx(2.0)


def test_vi_coarse_vs_discrete():
    p = [{1, 2, 3, 4}]
    q = [{1}, {2}, {3}, {4}]
    assert variation_of_information(p, q) == pytest.approx(2.0)


def test_vi_symmetry_and_triangle():
    p = [{1, 2}, {3, 4, 5}]
    q = [{1}, {2, 3}, {4, 5}]
    r = [{1, 2, 3}, {4, 5}]
    assert variation_of_information(p, q) == pytest.approx(
        variation_of_information(q, p)
    )
    assert (
        variation_of_information(p, r)
        <= variation_of_information(p, q) + variation_of_information(q, r) + 1e-9
    )


def test_vi_rejects_mismatched_ground_sets():
    with pytest.raises(ValidationError):
        variation_of_information([{1, 2}], [{1, 2, 3}])
    with pytest.raises(ValidationError, match="first partition has overlapping blocks"):
        variation_of_information([{1}, {1, 2}], [{1, 2}])
    with pytest.raises(ValidationError, match="second partition has overlapping blocks"):
        variation_of_information([{1, 2}], [{1, 2}, {2}, {2}])
    with pytest.raises(ValidationError):
        variation_of_information([], [])


def test_pruning_removes_silent_feature_first(toy_relation):
    # "marker" drives the level-0 stratum; "silent" appears on no input, so
    # blanking it cannot move any feature between strata.
    matrix = np.zeros((toy_relation.n, 2), dtype=bool)
    for k in (9, 12, 16, 17, 18, 19):
        matrix[k, 0] = True
    steps = greedy_feature_pruning(*attribute_features(toy_relation, matrix), rounds=2)
    assert steps[0] == (1, 0.0)
    assert steps[1][0] == 0


def test_pruning_zero_rounds(toy_relation, toy_features):
    assert greedy_feature_pruning(*attribute_features(toy_relation, toy_features[1]), 0) == []


def test_pruning_first_removal_matches_exhaustive_search(toy_relation):
    rng = np.random.default_rng(7)
    matrix = rng.random((toy_relation.n, 6)) < 0.4

    def partition(has):
        blocks = {}
        for i, level in enumerate(_strata(attribute_features(toy_relation, has)[0])):
            blocks.setdefault(level, set()).add(i)
        return list(blocks.values())

    before = partition(matrix)
    candidates = []
    for i in range(6):
        blanked = matrix.copy()
        blanked[:, i] = False
        candidates.append((variation_of_information(before, partition(blanked)), i))
    best_vi, best = min(candidates)
    steps = greedy_feature_pruning(*attribute_features(toy_relation, matrix), rounds=1)
    assert steps[0][0] == best
    assert steps[0][1] == pytest.approx(best_vi)


def test_pruning_round_bounds(toy_relation, toy_features):
    with pytest.raises(ValidationError):
        greedy_feature_pruning(*attribute_features(toy_relation, toy_features[1]), rounds=4)


def test_attribution_product_table(toy_relation, toy_features):
    from tdt.dowker import inconsistent_inputs

    _, has = toy_features
    assert _product_at(toy_relation, has, FULL)[:2] == [True, False]
    # empty-conjunction convention: rs(X, .) is all-true wherever inc(X) is empty
    for mask in range(1, 16):
        if not inconsistent_inputs(restrict_programs(toy_relation, mask)):
            assert _product_at(toy_relation, has, mask) == [True] * 3


def _reference_pruning(rel, has_feature, rounds, max_removed, strict):
    """Greedy pruning by a full attribute_features sweep per candidate and round."""

    def partition(removed):
        matrix = has_feature.copy()
        matrix[:, sorted(removed)] = False
        hits, _ = attribute_features(rel, matrix, max_removed=max_removed, strict=strict)
        blocks = {}
        for i, level in enumerate(_strata(hits)):
            blocks.setdefault(level, set()).add(i)
        return [blocks[key] for key in sorted(blocks, key=lambda v: (v is None, v))]

    removed, steps = set(), []
    for _ in range(rounds):
        before = partition(removed)
        vi, index = min(
            (variation_of_information(before, partition(removed | {i})), i)
            for i in range(has_feature.shape[1])
            if i not in removed
        )
        removed.add(index)
        steps.append((index, vi))
    return steps


def test_pruning_and_attribution_match_reference_sweeps():
    import random

    import oracles
    from conftest import relation_from_masks

    rng = random.Random(11)
    for _ in range(40):
        m, n, p = rng.randint(2, 6), rng.randint(1, 24), rng.randint(1, 5)
        density = rng.choice((0.3, 0.6, 0.9))
        rel = relation_from_masks(
            [sum(1 << j for j in range(m) if rng.random() < density) for _ in range(n)], m=m
        )
        has = np.array([[rng.random() < 0.5 for _ in range(p)] for _ in range(n)])
        max_removed = rng.choice((None, rng.randrange(m)))
        strict = rng.random() < 0.5
        hits, clean = attribute_features(rel, has, max_removed=max_removed, strict=strict)
        steps = greedy_feature_pruning(hits, clean, p)
        assert steps == _reference_pruning(rel, has, p, max_removed, strict)
        rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
        columns = has.T.tolist()
        top = m - 1 if max_removed is None else max_removed
        assert hits.shape == (top + 1, p)
        for r in range(top + 1):
            level = np.ones(p, dtype=bool)
            for mask in range(1, 1 << m):
                if bin(mask).count("1") == m - r:
                    flags = oracles.relation_product(rows, columns, mask, strict)
                    assert _product_at(rel, has, mask, strict) == flags
                    level &= flags
            assert hits[r].tolist() == level.tolist()


def test_attribution_matches_the_per_input_oracle():
    import random

    import oracles

    rng = random.Random(23)
    mixed_inconsistent = 0
    for m in range(1, 9):
        for strict in (False, True):
            n, p = rng.randint(6, 16), rng.randint(1, 4)
            masks = [rng.randrange(1 << m) for _ in range(n)]
            columns = [[rng.random() < 0.5 for _ in range(n)] for _ in range(p)]
            # the first accept-set is held twice, once with the first feature
            # and once without it
            masks.append(masks[0])
            for column in columns:
                column.append(not column[0] if column is columns[0] else column[0])
            rel = relation_from_masks(masks, m=m)
            rows = ["".join("1" if mask >> j & 1 else "0" for mask in masks) for j in range(m)]
            has = np.array(columns, dtype=bool).T
            top = rng.randrange(m)
            _, levels, first, clean = oracles.attribution(rows, columns, top, strict)
            hits, swept_clean = attribute_features(rel, has, max_removed=top, strict=strict)
            assert [set(np.flatnonzero(row).tolist()) for row in hits] == \
                [levels[r] for r in range(top + 1)]
            assert _strata(hits) == first
            assert swept_clean.tolist() == [clean[r] for r in range(top + 1)]
            for mask in range(1, 1 << m):  # every subset, as level 0 of its restriction
                expected = oracles.relation_product(rows, columns, mask, strict)
                assert _product_at(rel, has, mask, strict) == expected
                bad = oracles.inconsistent_input_indices(
                    [row for j, row in enumerate(rows) if mask >> j & 1]
                )
                mixed_inconsistent += n in bad
    # the accept-set held with and without the feature was inconsistent somewhere
    assert mixed_inconsistent


def test_attribution_json_sweeps_each_subset_once(monkeypatch, toy_relation, toy_features):
    import tdt.features

    calls = []

    def counted(masks, counts, sigma):
        calls.append(sigma)
        return inconsistent_accept_sets(masks, counts, sigma)

    monkeypatch.setattr(tdt.features, "inconsistent_accept_sets", counted)
    tdt.features.attribution_json(toy_relation, *toy_features, prune_rounds=3)
    assert sorted(calls) == list(range(1, 16))
    calls.clear()
    tdt.features.attribution_json(toy_relation, *toy_features, max_removed=1, prune_rounds=2)
    assert sorted(calls) == [0b0111, 0b1011, 0b1101, 0b1110, 0b1111]
