"""Attributing inconsistency to input features.

The relation product asks, for a program subset X and a feature, whether every
input that is inconsistent under the restriction to X carries the feature (the
strict variant also forbids the feature on consistent inputs).  Features are
then stratified by the smallest number of dropped programs at which they pass
that test for every subset of the corresponding size, and greedy pruning
removes the features whose deletion perturbs the stratification least, as
measured by variation of information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from ._numpy import np
from .diagram import region_sizes
from .dowker import inconsistent_accept_sets
from .errors import ValidationError
from .relation import FeatureRelation, Relation, column_masks, validate_mask
from .util import canonical_dumps


def _check_alignment(rel: Relation, feats: FeatureRelation) -> None:
    if rel.inputs != feats.inputs:
        raise ValidationError("feature relation inputs do not match the relation's inputs")


def relation_product(
    rel: Relation, feats: FeatureRelation, subset: int, strict: bool = False
) -> np.ndarray:
    """Per-feature flags: does every input inconsistent under the restriction to
    ``subset`` carry the feature?  Empty conjunctions are true.

    Strict mode additionally requires that no other input carries the feature
    (the complement is taken within the whole corpus).
    """
    _check_alignment(rel, feats)
    if subset == 0:
        raise ValidationError("program subset must be nonempty")
    validate_mask(rel, subset)
    masks, inverse, counts = np.unique(column_masks(rel), return_inverse=True, return_counts=True)
    return _product(feats, inconsistent_accept_sets(masks, counts, subset)[inverse], strict)


def _product(feats: FeatureRelation, inconsistent: np.ndarray, strict: bool) -> np.ndarray:
    """Relation-product flags given each input's inconsistency (an empty ``all`` is true)."""
    out = feats.has_feature[inconsistent].all(axis=0)
    if strict:
        out &= ~feats.has_feature[~inconsistent].any(axis=0)
    return out


@dataclass(frozen=True)
class FeatureAttribution:
    """Full feature-attribution sweep over the program subsets of each size.

    ``product[(mask, feature)]`` is the relation-product flag for that subset;
    level r collects the features flagged for EVERY subset of size m - r; the
    stratification assigns each feature the smallest such r (None if it reaches
    none within the sweep).  Raw levels may overlap, the stratification is a
    partition by construction.
    """

    features: tuple[str, ...]
    product: dict[tuple[int, str], bool]
    levels: dict[int, frozenset[str]]
    stratification: dict[str, int | None]


def _top_level(rel: Relation, max_removed: int | None) -> int:
    top = rel.m - 1 if max_removed is None else max_removed
    if top < 0 or top > rel.m - 1:
        raise ValidationError(f"max_removed must lie in 0..{rel.m - 1}")
    return top


def _sweep(rel: Relation, feats: FeatureRelation, top: int, strict: bool):
    """Yield (r, mask, flags, clean) for every subset of size m - r, r = 0..top.

    ``clean`` says no input is inconsistent under the subset: it is the flag of
    a feature that no input carries.
    """
    masks, inverse, counts = np.unique(column_masks(rel), return_inverse=True, return_counts=True)
    sizes = region_sizes(rel.m)
    for r in range(top + 1):
        for mask in np.flatnonzero(sizes == rel.m - r).tolist():
            inconsistent = inconsistent_accept_sets(masks, counts, mask)[inverse]
            yield r, mask, _product(feats, inconsistent, strict), not inconsistent.any()


def _stratify(features: tuple[str, ...], hits: np.ndarray) -> dict[str, int | None]:
    """Each feature's first level (row of ``hits``) that flags it, or None."""
    reached = hits.any(axis=0)
    first = hits.argmax(axis=0)
    return {name: int(first[i]) if reached[i] else None for i, name in enumerate(features)}


def attribute_features(
    rel: Relation,
    feats: FeatureRelation,
    max_removed: int | None = None,
    strict: bool = False,
) -> FeatureAttribution:
    """Sweep the relation product over every subset of size m-r for r = 0..max_removed."""
    _check_alignment(rel, feats)
    top = _top_level(rel, max_removed)
    product: dict[tuple[int, str], bool] = {}
    hits = np.ones((top + 1, feats.p), dtype=bool)
    for r, mask, flags, _ in _sweep(rel, feats, top, strict):
        for i, name in enumerate(feats.features):
            product[(mask, name)] = bool(flags[i])
        hits[r] &= flags
    return FeatureAttribution(
        features=feats.features,
        product=product,
        levels={r: frozenset(feats.features[i] for i in np.flatnonzero(row))
                for r, row in enumerate(hits)},
        stratification=_stratify(feats.features, hits),
    )


def variation_of_information(
    parts_a: Sequence[Iterable[Hashable]], parts_b: Sequence[Iterable[Hashable]]
) -> float:
    """Entropy-based distance between two partitions of the same ground set, in bits."""
    blocks_a = [frozenset(block) for block in parts_a if len(frozenset(block))]
    blocks_b = [frozenset(block) for block in parts_b if len(frozenset(block))]
    ground_a: set = set()
    for block in blocks_a:
        if ground_a & block:
            raise ValidationError("first partition has overlapping blocks")
        ground_a |= block
    ground_b: set = set()
    for block in blocks_b:
        if ground_b & block:
            raise ValidationError("second partition has overlapping blocks")
        ground_b |= block
    if ground_a != ground_b:
        raise ValidationError("partitions must cover the same ground set")
    if not ground_a:
        raise ValidationError("ground set must be nonempty")
    n = len(ground_a)
    vi = 0.0
    for a in blocks_a:
        pa = len(a) / n
        for b in blocks_b:
            joint = len(a & b) / n
            if joint:
                pb = len(b) / n
                vi -= joint * (math.log2(joint / pa) + math.log2(joint / pb))
    return abs(vi)


def _strat_partition(strat: dict[str, int | None]) -> list[set[str]]:
    blocks: dict[int | None, set[str]] = {}
    for name, level in strat.items():
        blocks.setdefault(level, set()).add(name)
    return [blocks[key] for key in sorted(blocks, key=lambda v: (v is None, v))]


@dataclass(frozen=True)
class PruneStep:
    feature: str
    vi: float


def greedy_feature_pruning(
    rel: Relation,
    feats: FeatureRelation,
    rounds: int,
    max_removed: int | None = None,
    strict: bool = False,
) -> tuple[PruneStep, ...]:
    """Repeatedly blank out the feature whose removal least disturbs the stratification.

    Removal zeroes the feature's column (the ground set of features is fixed),
    so each round compares the stratification partitions before and after by
    variation of information and drops the minimizer, ties to the lowest
    feature index.
    """
    _check_alignment(rel, feats)
    if rounds < 0 or rounds > feats.p:
        raise ValidationError(f"rounds must lie in 0..{feats.p}")
    if rounds == 0:
        return ()
    top = _top_level(rel, max_removed)
    # The relation product is computed column by column, and a zeroed column's
    # flag under a subset is that subset's ``clean`` flag, so one sweep gives
    # every candidate's levels.
    hits = np.ones((top + 1, feats.p), dtype=bool)
    clean = np.ones((top + 1, 1), dtype=bool)
    for r, _, flags, ok in _sweep(rel, feats, top, strict):
        hits[r] &= flags
        clean[r] &= ok

    def partition(zeroed: np.ndarray) -> list[set[str]]:
        return _strat_partition(_stratify(feats.features, np.where(zeroed, clean, hits)))

    zeroed = np.zeros(feats.p, dtype=bool)
    steps: list[PruneStep] = []
    for _ in range(rounds):
        before = partition(zeroed)
        best: tuple[float, int] | None = None
        for i in np.flatnonzero(~zeroed).tolist():
            candidate = zeroed.copy()
            candidate[i] = True
            vi = variation_of_information(before, partition(candidate))
            if best is None or (vi, i) < best:
                best = (vi, i)
        assert best is not None
        vi, index = best
        zeroed[index] = True
        steps.append(PruneStep(feature=feats.features[index], vi=vi))
    return tuple(steps)


def attribution_json(
    rel: Relation,
    feats: FeatureRelation,
    max_removed: int | None = None,
    strict: bool = False,
    prune_rounds: int = 0,
) -> str:
    attribution = attribute_features(rel, feats, max_removed=max_removed, strict=strict)
    pruning = greedy_feature_pruning(
        rel, feats, prune_rounds, max_removed=max_removed, strict=strict
    )
    payload = {
        "levels": {str(r): sorted(members) for r, members in attribution.levels.items()},
        "stratification": {name: attribution.stratification[name] for name in feats.features},
        "pruning": [{"removed": s.feature, "vi": s.vi} for s in pruning],
    }
    return canonical_dumps(payload)
