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
from itertools import compress
from typing import Hashable, Iterable, Sequence

from ._numpy import np
from .diagram import inconsistent_accept_sets, region_sizes
from .errors import ValidationError
from .relation import Relation, column_masks
from .util import canonical_dumps


def _accept_set_flags(rel: Relation, has_feature: np.ndarray):
    """The distinct accept-sets, how many inputs hold each, and per accept-set
    and feature: does some input holding it lack the feature, does some carry it?

    Whether an input is inconsistent under a restriction depends only on its
    accept-set, so the relation product needs no more than these flags.
    """
    masks, inverse, counts = np.unique(column_masks(rel), return_inverse=True, return_counts=True)
    carriers = np.empty((masks.size, has_feature.shape[1]), dtype=np.int64)
    for i, column in enumerate(has_feature.T):
        carriers[:, i] = np.bincount(inverse[column], minlength=masks.size)
    return masks, counts, carriers < counts[:, None], carriers > 0


def _product(lacks: np.ndarray, carries: np.ndarray, inconsistent: np.ndarray,
             strict: bool) -> np.ndarray:
    """Relation-product flags given each accept-set's inconsistency (an empty ``all`` is true)."""
    out = ~lacks[inconsistent].any(axis=0)
    if strict:
        out &= ~carries[~inconsistent].any(axis=0)
    return out


def _stratify(hits: np.ndarray) -> list[int | None]:
    """Each feature's first level (row of ``hits``) that flags it, or None."""
    first = hits.argmax(axis=0).tolist()
    return [f if reached else None for f, reached in zip(first, hits.any(axis=0).tolist())]


def attribute_features(
    rel: Relation,
    has_feature: np.ndarray,
    max_removed: int | None = None,
    strict: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep the relation product over every subset of size m-r for r = 0..max_removed.

    ``has_feature`` is the (n x p) bool matrix with rows in ``rel.inputs``
    order.  Row r of the (levels x p) ``hits`` flags the features whose product
    holds for EVERY subset of size m - r; raw levels may overlap.  ``clean[r]``
    says no input is inconsistent under any subset of that size.
    """
    has_feature = np.asarray(has_feature, dtype=bool)
    if has_feature.ndim != 2 or len(has_feature) != rel.n:
        raise ValidationError(
            f"feature matrix shape {has_feature.shape} does not match the relation's {rel.n} inputs"
        )
    top = rel.m - 1 if max_removed is None else max_removed
    if top < 0 or top > rel.m - 1:
        raise ValidationError(f"max_removed must lie in 0..{rel.m - 1}")
    masks, counts, lacks, carries = _accept_set_flags(rel, has_feature)
    sizes = region_sizes(rel.m)
    hits = np.ones((top + 1, has_feature.shape[1]), dtype=bool)
    clean = np.ones(top + 1, dtype=bool)
    for r in range(top + 1):
        for mask in np.flatnonzero(sizes == rel.m - r).tolist():
            inconsistent = inconsistent_accept_sets(masks, counts, mask)
            hits[r] &= _product(lacks, carries, inconsistent, strict)
            clean[r] &= not inconsistent.any()
    return hits, clean


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


def _strat_partition(strat: list[int | None]) -> list[set[int]]:
    blocks: dict[int | None, set[int]] = {}
    for i, level in enumerate(strat):
        blocks.setdefault(level, set()).add(i)
    return [blocks[key] for key in sorted(blocks, key=lambda v: (v is None, v))]


def _check_rounds(rounds: int, p: int) -> None:
    if rounds < 0 or rounds > p:
        raise ValidationError(f"rounds must lie in 0..{p}")


def greedy_feature_pruning(
    hits: np.ndarray, clean: np.ndarray, rounds: int
) -> list[tuple[int, float]]:
    """Repeatedly blank out the feature whose removal least disturbs the stratification.

    Removal zeroes the feature's column (the ground set of features is fixed),
    so each round compares the stratification partitions before and after by
    variation of information and drops the minimizer, ties to the lowest
    feature index.  Each step is the removed feature's index and that distance.
    """
    p = hits.shape[1]
    _check_rounds(rounds, p)
    # A zeroed column's flag under a subset is that subset's ``clean`` flag,
    # so :func:`attribute_features`' levels give every candidate's levels.

    def partition(zeroed: np.ndarray) -> list[set[int]]:
        return _strat_partition(_stratify(np.where(zeroed, clean[:, None], hits)))

    indices = np.arange(p)
    zeroed = np.zeros(p, dtype=bool)
    steps: list[tuple[int, float]] = []
    for _ in range(rounds):
        before = partition(zeroed)
        vi, index = min(
            (variation_of_information(before, partition(zeroed | (indices == i))), i)
            for i in np.flatnonzero(~zeroed).tolist()
        )
        zeroed[index] = True
        steps.append((index, vi))
    return steps


def attribution_json(
    rel: Relation,
    features: tuple[str, ...],
    has_feature: np.ndarray,
    max_removed: int | None = None,
    strict: bool = False,
    prune_rounds: int = 0,
) -> str:
    _check_rounds(prune_rounds, len(features))  # a bad count fails before the sweep
    hits, clean = attribute_features(rel, has_feature, max_removed=max_removed, strict=strict)
    pruning = greedy_feature_pruning(hits, clean, prune_rounds)
    payload = {
        "levels": {str(r): sorted(compress(features, row)) for r, row in enumerate(hits.tolist())},
        "stratification": dict(zip(features, _stratify(hits))),
        "pruning": [{"removed": features[i], "vi": vi} for i, vi in pruning],
    }
    return canonical_dumps(payload)
