"""Weighted Venn diagrams: exact region weights over the program power set.

The weight of a program subset X is the number of inputs whose accept-set is
exactly X. A region is deficient when some facet (one program fewer) outweighs
it; a diagram with no deficient region is consistent, i.e. its weights are
nondecreasing along inclusion. Equal weights along a covering pair count as
consistent.

Weights live in one int64 vector indexed by mask; the analyses use a few
vectorised subset transforms over it (Yates 1937; Bjorklund et al. 2007).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._numpy import np
from .errors import ValidationError
from .relation import Relation, column_masks, validate_mask
from .util import bits, canonical_dumps, popcount


@dataclass(frozen=True, eq=False)
class WeightedDiagram:
    """Dense weight vector indexed by program-subset mask (length 2^m, read-only int64)."""

    m: int
    weights: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("diagram needs at least one program")
        weights = np.array(self.weights, dtype=np.int64)
        if weights.shape != (1 << self.m,):
            raise ValidationError(
                f"expected {1 << self.m} region weights, got {weights.size}"
            )
        if (weights < 0).any():
            raise ValidationError("region weights must be non-negative")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @property
    def total(self) -> int:
        return int(self.weights.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedDiagram):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.weights, other.weights)


# ---------------------------------------------------------------------------
# subset transforms over vectors indexed by mask


def _halves(vector: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the regions without and with program j, aligned as covering pairs (X, X | 1<<j)."""
    pairs = vector.reshape(-1, 2, 1 << j)
    return pairs[:, 0], pairs[:, 1]


def superset_or(flags: np.ndarray, m: int) -> np.ndarray:
    """Per region: is the flag set on the region or on any superset of it?"""
    out = flags.copy()
    for j in range(m):
        lower, upper = _halves(out, j)
        lower |= upper
    return out


def subset_or(flags: np.ndarray, m: int) -> np.ndarray:
    """Per region: is the flag set on the region or on any subset of it?"""
    out = flags.copy()
    for j in range(m):
        lower, upper = _halves(out, j)
        upper |= lower
    return out


def any_cover(flags: np.ndarray, m: int) -> np.ndarray:
    """Per region: is the flag set on some region with one more program?"""
    out = np.zeros_like(flags)
    for j in range(m):
        lower, _ = _halves(out, j)
        _, upper = _halves(flags, j)
        lower |= upper
    return out


def region_sizes(m: int) -> np.ndarray:
    """Per region, its number of programs (uint8)."""
    out = np.zeros(1 << m, dtype=np.uint8)
    for j in range(m):
        _, upper = _halves(out, j)
        upper += 1
    return out


def subset_labels(names: Sequence[str], masks: np.ndarray, order: Sequence[int]) -> dict[int, str]:
    """Label of each mask: its programs' names comma-joined in ``order`` ('' for 0).

    ``masks`` holds nonempty masks in (size, mask) order, closed under dropping a
    program down to the empty set, so each label extends one built before it.
    """
    last = np.zeros_like(masks)
    for j in order:
        last[masks >> j & 1 == 1] = j
    text = {0: ""}
    for mask, j in zip(masks.tolist(), last.tolist()):
        rest = text[mask & ~(1 << j)]
        text[mask] = f"{rest},{names[j]}" if rest else names[j]
    return text


def heaviest_facet(weights: np.ndarray, m: int) -> np.ndarray:
    """Per region, the largest weight among its facets (0 for the empty region)."""
    out = np.zeros_like(weights)
    for j in range(m):
        lower, _ = _halves(weights, j)
        _, upper = _halves(out, j)
        np.maximum(upper, lower, out=upper)
    return out


def project_masks(masks: np.ndarray, sigma: int) -> np.ndarray:
    """Masks restricted to the programs in sigma; bit t is sigma's t-th set bit."""
    out = np.zeros_like(masks)
    for t, j in enumerate(bits(sigma)):
        out |= (masks >> j & 1) << t
    return out


def region_weights(masks: np.ndarray, m: int, counts: np.ndarray | None = None) -> np.ndarray:
    """Weight vector over 2^m regions of the given masks, each counted ``counts`` times."""
    # bincount sums weights in float64, exact for every total below 2**53
    return np.bincount(masks, weights=counts, minlength=1 << m).astype(np.int64)


# ---------------------------------------------------------------------------
# diagrams


def build_diagram(rel: Relation) -> WeightedDiagram:
    """Count, for every program subset, the inputs accepted by exactly that subset."""
    return WeightedDiagram(m=rel.m, weights=region_weights(column_masks(rel), rel.m))


def deficiency(diag: WeightedDiagram) -> np.ndarray:
    """Per region, how far it falls short of its heaviest facet (positive iff deficient)."""
    return heaviest_facet(diag.weights, diag.m) - diag.weights


def deficient_regions(diag: WeightedDiagram) -> set[int]:
    """Regions strictly outweighed by one of their facets. The empty region never is."""
    return set(np.flatnonzero(deficiency(diag) > 0).tolist())


def is_consistent(diag: WeightedDiagram) -> bool:
    return not (deficiency(diag) > 0).any()


def project_diagram(diag: WeightedDiagram, sigma: int) -> WeightedDiagram:
    """Diagram of the relation restricted to the programs in ``sigma``.

    Region Z of the projection collects every region X with X & sigma == Z;
    bit t of the result corresponds to the t-th set bit of sigma.
    """
    if sigma == 0:
        raise ValidationError("cannot project onto an empty program set")
    if sigma >> diag.m:
        raise ValidationError(f"mask {sigma:#x} sets bits outside the {diag.m} programs")
    regions = project_masks(np.arange(1 << diag.m, dtype=np.int64), sigma)
    k = popcount(sigma)
    return WeightedDiagram(m=k, weights=region_weights(regions, k, diag.weights))


def pair_blame(masks: np.ndarray, sigma: int, tau: int) -> np.ndarray:
    """Per mask: accepted by every program in sigma, rejected by one in tau - sigma?"""
    extra = tau & ~sigma
    return (masks & sigma == sigma) & (masks & extra != extra)


def pair_inconsistent_inputs(rel: Relation, sigma: int, tau: int) -> set[int]:
    """Inputs blamed for the inconsistency of a nested pair sigma <= tau.

    Empty unless weight(sigma) > weight(tau); otherwise the inputs accepted by
    every program in sigma but rejected by at least one program in tau - sigma.
    """
    validate_mask(rel, sigma)
    validate_mask(rel, tau)
    if sigma & ~tau:
        raise ValidationError("sigma must be a subset of tau")
    masks = column_masks(rel)
    if (masks == sigma).sum() <= (masks == tau).sum():  # weight(sigma) <= weight(tau)
        return set()
    return set(np.flatnonzero(pair_blame(masks, sigma, tau)).tolist())


def diagram_report(rel: Relation, diag: WeightedDiagram | None = None) -> str:
    """Canonical JSON report: every region weight, the deficient regions, the verdict.

    A region's key is its program names, sorted and comma-joined ('' for the empty set).
    """
    if diag is None:
        diag = build_diagram(rel)
    regions = np.argsort(region_sizes(diag.m), kind="stable")  # by (size, mask)
    labels = subset_labels(
        rel.programs, regions[1:], sorted(range(rel.m), key=rel.programs.__getitem__)
    )
    weights = {labels[mask]: w for mask, w in enumerate(diag.weights.tolist())}
    deficient = [labels[mask] for mask in regions[deficiency(diag)[regions] > 0].tolist()]
    payload = {
        "weights": weights,
        "deficient": deficient,
        "consistent": not deficient,
    }
    return canonical_dumps(payload)
