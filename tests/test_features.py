import numpy as np
import pytest

from tdt.diagram import inconsistent_accept_sets
from tdt.errors import ValidationError
from tdt.features import (
    attribute_features,
    greedy_feature_pruning,
    variation_of_information,
)
from tdt.relation import FeatureRelation

from conftest import relation_from_masks

FULL = 0b1111


def _product_at(rel, feats, subset, strict=False):
    """The relation product's flags at one subset, read off the full sweep's table."""
    product = attribute_features(rel, feats, strict=strict).product
    return [product[(subset, name)] for name in feats.features]


def test_relation_product_full_sweep(toy_relation, toy_features):
    # "x" marks exactly the inconsistent files; "y" misses file 13; "z" marks nothing
    assert _product_at(toy_relation, toy_features, FULL) == [True, False, False]
    assert _product_at(toy_relation, toy_features, FULL, strict=True) == [True, False, False]


def test_relation_product_empty_conjunction(graded_relation):
    feats = FeatureRelation(
        inputs=graded_relation.inputs,
        features=("anything",),
        has_feature=np.zeros((graded_relation.n, 1), dtype=bool),
    )
    # the graded relation is fully consistent, so no input is inconsistent
    assert _product_at(graded_relation, feats, 0b111) == [True]


def test_relation_product_strict_implies_plain(toy_relation, toy_features):
    plain = attribute_features(toy_relation, toy_features).product
    strict = attribute_features(toy_relation, toy_features, strict=True).product
    assert len(plain) == len(strict) == 15 * 3
    assert all(plain[key] for key, flag in strict.items() if flag)


def test_relation_product_alignment_check(toy_relation):
    feats = FeatureRelation(
        inputs=("other",), features=("x",), has_feature=np.zeros((1, 1), dtype=bool)
    )
    with pytest.raises(ValidationError):
        attribute_features(toy_relation, feats)


def test_feature_strata_toy(toy_relation, toy_features):
    attribution = attribute_features(toy_relation, toy_features)
    levels, strat = attribution.levels, attribution.stratification
    assert levels[0] == frozenset({"x"})
    assert levels[1] == frozenset()
    assert levels[2] == frozenset()
    assert levels[3] == frozenset({"x", "y", "z"})
    assert strat == {"x": 0, "y": 3, "z": 3}


def test_feature_strata_truncated_sweep(toy_relation, toy_features):
    attribution = attribute_features(toy_relation, toy_features, max_removed=1)
    levels, strat = attribution.levels, attribution.stratification
    assert set(levels) == {0, 1}
    assert strat == {"x": 0, "y": None, "z": None}


def test_feature_strata_all_consistent(graded_relation):
    feats = FeatureRelation(
        inputs=graded_relation.inputs,
        features=("f0", "f1"),
        has_feature=np.zeros((graded_relation.n, 2), dtype=bool),
    )
    attribution = attribute_features(graded_relation, feats)
    levels, strat = attribution.levels, attribution.stratification
    assert levels[0] == frozenset({"f0", "f1"})
    assert strat == {"f0": 0, "f1": 0}


def test_raw_levels_overlap_is_reported_not_asserted(toy_relation, toy_features):
    levels = attribute_features(toy_relation, toy_features).levels
    overlaps = [
        (r, s)
        for r in levels
        for s in levels
        if r < s and levels[r] & levels[s]
    ]
    if overlaps:
        print(f"note: raw attribution levels overlap at {overlaps}")
    # the stratification itself is a partition regardless
    strat = attribute_features(toy_relation, toy_features).stratification
    assert set(strat) == {"x", "y", "z"}


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
    feats = FeatureRelation(
        inputs=toy_relation.inputs, features=("marker", "silent"), has_feature=matrix
    )
    steps = greedy_feature_pruning(attribute_features(toy_relation, feats), rounds=2)
    assert steps[0].feature == "silent"
    assert steps[0].vi == 0.0
    assert steps[1].feature == "marker"


def test_pruning_zero_rounds(toy_relation, toy_features):
    assert greedy_feature_pruning(attribute_features(toy_relation, toy_features), 0) == ()


def test_pruning_first_removal_matches_exhaustive_search(toy_relation):
    rng = np.random.default_rng(7)
    matrix = rng.random((toy_relation.n, 6)) < 0.4
    feats = FeatureRelation(
        inputs=toy_relation.inputs,
        features=tuple(f"k{i}" for i in range(6)),
        has_feature=matrix,
    )

    def partition(feature_rel):
        strat = attribute_features(toy_relation, feature_rel).stratification
        blocks = {}
        for name, level in strat.items():
            blocks.setdefault(level, set()).add(name)
        return list(blocks.values())

    before = partition(feats)
    candidates = []
    for i, name in enumerate(feats.features):
        blanked = feats.has_feature.copy()
        blanked[:, i] = False
        after = partition(
            FeatureRelation(
                inputs=feats.inputs, features=feats.features, has_feature=blanked
            )
        )
        candidates.append((variation_of_information(before, after), i, name))
    best_vi, _, best_name = min(candidates)
    steps = greedy_feature_pruning(attribute_features(toy_relation, feats), rounds=1)
    assert steps[0].feature == best_name
    assert steps[0].vi == pytest.approx(best_vi)


def test_pruning_round_bounds(toy_relation, toy_features):
    with pytest.raises(ValidationError):
        greedy_feature_pruning(attribute_features(toy_relation, toy_features), rounds=4)


def test_attribution_product_table(toy_relation, toy_features):
    from tdt.dowker import inconsistent_inputs
    from tdt.relation import restrict_programs

    attribution = attribute_features(toy_relation, toy_features)
    assert attribution.product[(FULL, "x")] is True
    assert attribution.product[(FULL, "y")] is False
    # empty-conjunction convention: rs(X, .) is all-true wherever inc(X) is empty
    for (mask, name), flag in attribution.product.items():
        if not inconsistent_inputs(restrict_programs(toy_relation, mask)):
            assert flag is True


def _reference_pruning(rel, feats, rounds, max_removed, strict):
    """Greedy pruning by a full attribute_features sweep per candidate and round."""

    def partition(columns):
        strat = attribute_features(rel, columns, max_removed=max_removed, strict=strict)
        blocks = {}
        for name, level in strat.stratification.items():
            blocks.setdefault(level, set()).add(name)
        return [blocks[key] for key in sorted(blocks, key=lambda v: (v is None, v))]

    def blank(names):
        matrix = feats.has_feature.copy()
        for i, name in enumerate(feats.features):
            if name in names:
                matrix[:, i] = False
        return FeatureRelation(inputs=feats.inputs, features=feats.features, has_feature=matrix)

    removed, steps = set(), []
    for _ in range(rounds):
        before = partition(blank(removed))
        vi, index = min(
            (variation_of_information(before, partition(blank(removed | {name}))), i)
            for i, name in enumerate(feats.features)
            if name not in removed
        )
        removed.add(feats.features[index])
        steps.append((feats.features[index], vi))
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
        feats = FeatureRelation(
            inputs=rel.inputs,
            features=tuple(f"k{i}" for i in range(p)),
            has_feature=np.array([[rng.random() < 0.5 for _ in range(p)] for _ in range(n)]),
        )
        max_removed = rng.choice((None, rng.randrange(m)))
        strict = rng.random() < 0.5
        attribution = attribute_features(rel, feats, max_removed=max_removed, strict=strict)
        steps = greedy_feature_pruning(attribution, p)
        assert [(s.feature, s.vi) for s in steps] == _reference_pruning(
            rel, feats, p, max_removed, strict
        )
        rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
        columns = feats.has_feature.T.tolist()
        top = m - 1 if max_removed is None else max_removed
        for r in range(top + 1):
            level = np.ones(p, dtype=bool)
            for mask in range(1, 1 << m):
                if bin(mask).count("1") == m - r:
                    flags = oracles.relation_product(rows, columns, mask, strict)
                    assert [attribution.product[(mask, f"k{i}")] for i in range(p)] == flags
                    level &= flags
            assert attribution.levels[r] == {f"k{i}" for i in np.flatnonzero(level)}


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
            feats = FeatureRelation(
                inputs=rel.inputs,
                features=tuple(f"k{i}" for i in range(p)),
                has_feature=np.array(columns, dtype=bool).T,
            )
            top = rng.randrange(m)
            product, levels, first, clean = oracles.attribution(rows, columns, top, strict)
            attribution = attribute_features(rel, feats, max_removed=top, strict=strict)
            assert attribution.product == {
                (mask, f"k{i}"): flag for (mask, i), flag in product.items()
            }
            assert attribution.levels == {
                r: frozenset(f"k{i}" for i in members) for r, members in levels.items()
            }
            assert attribution.stratification == {f"k{i}": r for i, r in enumerate(first)}
            assert attribution.clean == clean
            every = attribute_features(rel, feats, strict=strict).product  # every subset
            for mask in range(1, 1 << m):
                expected = oracles.relation_product(rows, columns, mask, strict)
                assert [every[(mask, f"k{i}")] for i in range(p)] == expected
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
    tdt.features.attribution_json(toy_relation, toy_features, prune_rounds=3)
    assert sorted(calls) == list(range(1, 16))
    calls.clear()
    tdt.features.attribution_json(toy_relation, toy_features, max_removed=1, prune_rounds=2)
    assert sorted(calls) == [0b0111, 0b1011, 0b1101, 0b1110, 0b1111]
