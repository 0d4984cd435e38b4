"""Attributing inconsistency to input features.

The relation product asks, for a program subset X and a feature, whether every
input that is inconsistent under the restriction to X carries the feature (the
strict variant also forbids the feature on consistent inputs); one sweep
computes it for every subset of each swept size.  Features are
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
from .diagram import inconsistent_accept_sets, region_sizes
from .errors import ValidationError
from .relation import FeatureRelation, Relation, column_masks
from .util import canonical_dumps


def _check_alignment(rel: Relation, feats: FeatureRelation) -> None:
    if rel.inputs != feats.inputs:
        raise ValidationError("feature relation inputs do not match the relation's inputs")


def _accept_set_flags(rel: Relation, feats: FeatureRelation):
    """The distinct accept-sets, how many inputs hold each, and per accept-set
    and feature: does some input holding it lack the feature, does some carry it?

    Whether an input is inconsistent under a restriction depends only on its
    accept-set, so the relation product needs no more than these flags.
    """
    masks, inverse, counts = np.unique(column_masks(rel), return_inverse=True, return_counts=True)
    carriers = np.empty((masks.size, feats.p), dtype=np.int64)
    for i, column in enumerate(feats.has_feature.T):
        carriers[:, i] = np.bincount(inverse[column], minlength=masks.size)
    return masks, counts, carriers < counts[:, None], carriers > 0


def _product(lacks: np.ndarray, carries: np.ndarray, inconsistent: np.ndarray,
             strict: bool) -> np.ndarray:
    """Relation-product flags given each accept-set's inconsistency (an empty ``all`` is true)."""
    out = ~lacks[inconsistent].any(axis=0)
    if strict:
        out &= ~carries[~inconsistent].any(axis=0)
    return out


@dataclass(frozen=True)
class FeatureAttribution:
    """Full feature-attribution sweep over the program subsets of each size.

    ``product[(mask, feature)]`` is the relation-product flag for that subset;
    level r collects the features flagged for EVERY subset of size m - r; the
    stratification assigns each feature the smallest such r (None if it reaches
    none within the sweep).  Raw levels may overlap, the stratification is a
    partition by construction.  ``clean[r]`` says no input is inconsistent
    under any subset of size m - r.
    """

    features: tuple[str, ...]
    product: dict[tuple[int, str], bool]
    levels: dict[int, frozenset[str]]
    stratification: dict[str, int | None]
    clean: dict[int, bool]


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
    top = rel.m - 1 if max_removed is None else max_removed
    if top < 0 or top > rel.m - 1:
        raise ValidationError(f"max_removed must lie in 0..{rel.m - 1}")
    masks, counts, lacks, carries = _accept_set_flags(rel, feats)
    sizes = region_sizes(rel.m)
    product: dict[tuple[int, str], bool] = {}
    hits = np.ones((top + 1, feats.p), dtype=bool)
    clean = [True] * (top + 1)
    for r in range(top + 1):
        for mask in np.flatnonzero(sizes == rel.m - r).tolist():
            inconsistent = inconsistent_accept_sets(masks, counts, mask)
            flags = _product(lacks, carries, inconsistent, strict)
            product.update(zip([(mask, name) for name in feats.features], flags.tolist()))
            hits[r] &= flags
            clean[r] &= not inconsistent.any()
    return FeatureAttribution(
        features=feats.features,
        product=product,
        levels={r: frozenset(feats.features[i] for i in np.flatnonzero(row))
                for r, row in enumerate(hits)},
        stratification=_stratify(feats.features, hits),
        clean=dict(enumerate(clean)),
    )


def variation_of_information(
    parts_a: Sequence[Iterable[Hashable]], parts_b: Sequence[Iterable[Hashable]]
) -> float:
    """Entropy-based distance between two partitions of the same ground set, in bits."""
    blocks_a = [frozenset(block) for block in parts_a if len(frozenset(block))]
    blocks_b = [frozenset(block) for block in parts_b if len(frozenset(block))]
    ground_a, ground_b = frozenset().union(*blocks_a), frozenset().union(*blocks_b)
    # blocks overlap iff their sizes add up to more than their union
    if sum(map(len, blocks_a)) != len(ground_a):
        raise ValidationError("first partition has overlapping blocks")
    if sum(map(len, blocks_b)) != len(ground_b):
        raise ValidationError("second partition has overlapping blocks")
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


def _check_rounds(rounds: int, p: int) -> None:
    if rounds < 0 or rounds > p:
        raise ValidationError(f"rounds must lie in 0..{p}")


def greedy_feature_pruning(
    attribution: FeatureAttribution, rounds: int
) -> tuple[PruneStep, ...]:
    """Repeatedly blank out the feature whose removal least disturbs the stratification.

    Removal zeroes the feature's column (the ground set of features is fixed),
    so each round compares the stratification partitions before and after by
    variation of information and drops the minimizer, ties to the lowest
    feature index.
    """
    features = attribution.features
    _check_rounds(rounds, len(features))
    if rounds == 0:
        return ()
    # A zeroed column's flag under a subset is that subset's ``clean`` flag,
    # so the attribution's levels give every candidate's levels.
    levels = range(len(attribution.levels))
    hits = np.array([[name in attribution.levels[r] for name in features] for r in levels])
    clean = np.array([[attribution.clean[r]] for r in levels])

    def partition(zeroed: np.ndarray) -> list[set[str]]:
        return _strat_partition(_stratify(features, np.where(zeroed, clean, hits)))

    indices = np.arange(len(features))
    zeroed = np.zeros(len(features), dtype=bool)
    steps: list[PruneStep] = []
    for _ in range(rounds):
        before = partition(zeroed)
        vi, index = min(
            (variation_of_information(before, partition(zeroed | (indices == i))), i)
            for i in np.flatnonzero(~zeroed).tolist()
        )
        zeroed[index] = True
        steps.append(PruneStep(feature=features[index], vi=vi))
    return tuple(steps)


def attribution_json(
    rel: Relation,
    feats: FeatureRelation,
    max_removed: int | None = None,
    strict: bool = False,
    prune_rounds: int = 0,
) -> str:
    _check_rounds(prune_rounds, feats.p)  # a bad count fails before the sweep
    attribution = attribute_features(rel, feats, max_removed=max_removed, strict=strict)
    pruning = greedy_feature_pruning(attribution, prune_rounds)
    payload = {
        "levels": {str(r): sorted(members) for r, members in attribution.levels.items()},
        "stratification": {name: attribution.stratification[name] for name in feats.features},
        "pruning": [{"removed": s.feature, "vi": s.vi} for s in pruning],
    }
    return canonical_dumps(payload)
