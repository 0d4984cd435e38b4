"""Weighted Venn diagrams: exact region weights over the program power set.

The weight of a program subset X is the number of inputs whose accept-set is
exactly X. A region is deficient when some facet (one program fewer) outweighs
it; a diagram with no deficient region is consistent, i.e. its weights are
nondecreasing along inclusion. Equal weights along a covering pair count as
consistent.

Weights live in one int64 vector indexed by mask; a few vectorised subset transforms
over it (Yates 1937; Bjorklund et al. 2007) give its faces, its consistent core and the rest.
"""

from __future__ import annotations

from itertools import compress, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter, ne
from typing import Sequence

from ._numpy import np
from .errors import ValidationError
from .relation import Relation, column_masks
from .util import bits, canonical_dumps


# ---------------------------------------------------------------------------
# subset transforms over vectors indexed by mask


def halves(vector: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the regions without and with program j, aligned as covering pairs (X, X | 1<<j)."""
    pairs = vector.reshape(-1, 2, 1 << j)
    return pairs[:, 0], pairs[:, 1]


def superset_or(flags: np.ndarray, m: int) -> np.ndarray:
    """Per region: is the flag set on the region or on any superset of it?"""
    out = flags.copy()
    for j in range(m):
        lower, upper = halves(out, j)
        lower |= upper
    return out


def subset_sum(vector: np.ndarray, m: int) -> np.ndarray:
    """Per region, the sum of the vector over the region and its subsets (the zeta
    transform); on bool flags, numpy's + is OR: is the flag set on any of them?"""
    out = vector.copy()
    for j in range(m):
        lower, upper = halves(out, j)
        upper += lower
    return out


def region_sizes(m: int) -> np.ndarray:
    """Per region, its number of programs (uint8)."""
    out = np.zeros(1 << m, dtype=np.uint8)
    for j in range(m):
        _, upper = halves(out, j)
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
        lower, _ = halves(weights, j)
        _, upper = halves(out, j)
        np.maximum(upper, lower, out=upper)
    return out


def region_weights(masks: np.ndarray, m: int, counts: np.ndarray | None = None) -> np.ndarray:
    """Weight vector over 2^m regions of the given masks, each counted ``counts`` times."""
    # bincount sums weights in float64, exact for every total below 2**53
    return np.bincount(masks, weights=counts, minlength=1 << m).astype(np.int64)


def faces_of(weights: np.ndarray, m: int) -> np.ndarray:
    """Read-only face flags: every nonempty region at or below a nonzero entry."""
    faces = superset_or(weights > 0, m)
    faces[0] = False
    faces.flags.writeable = False
    return faces


def consistent_regions(weights: np.ndarray, m: int) -> np.ndarray:
    """Per region of a weight vector: is it a face of the consistent core?

    A bad tail is a face outweighed by a nonempty facet, an inconsistent covering
    edge; the core is every face with no bad tail below it.
    """
    faces = faces_of(weights, m)
    bad = faces & (heaviest_facet(weights, m) > weights)
    bad[1 << np.arange(m)] = False  # a program's only facet, the empty set, is no face
    return faces & ~subset_sum(bad, m)


def inconsistent_accept_sets(masks: np.ndarray, counts: np.ndarray, sigma: int) -> np.ndarray:
    """Per accept-set (held by ``counts`` inputs each): is it inconsistent
    in the relation restricted to the programs in ``sigma``?"""
    restricted = np.zeros_like(masks)  # bit t of a restricted mask is sigma's t-th program
    for t, j in enumerate(bits(sigma)):
        restricted |= (masks >> j & 1) << t
    width = bin(sigma).count("1")
    core = consistent_regions(region_weights(restricted, width, counts), width)
    return (restricted != 0) & ~core[restricted]


# ---------------------------------------------------------------------------
# diagrams


def build_diagram(rel: Relation) -> np.ndarray:
    """Count, for every program subset, the inputs accepted by exactly that subset:
    a read-only int64 vector of 2^m region weights, indexed by mask."""
    weights = region_weights(column_masks(rel), rel.m)
    weights.flags.writeable = False
    return weights


def deficiency(weights: np.ndarray, m: int) -> np.ndarray:
    """Per region, how far it falls short of its heaviest facet (positive iff deficient)."""
    return heaviest_facet(weights, m) - weights


def deficient_regions(weights: np.ndarray, m: int) -> set[int]:
    """Regions strictly outweighed by one of their facets. The empty region never is."""
    return set(np.flatnonzero(deficiency(weights, m) > 0).tolist())


def is_consistent(weights: np.ndarray, m: int) -> bool:
    return not (deficiency(weights, m) > 0).any()


def project_diagram(weights: np.ndarray, m: int, sigma: int) -> np.ndarray:
    """Weights of the relation restricted to the programs in ``sigma``.

    Region Z of the projection collects every region X with X & sigma == Z;
    bit t of the result corresponds to the t-th set bit of sigma. Viewed as a
    2x...x2 array, the weights hold program j on axis m-1-j, so the projection
    sums over the dropped programs' axes and keeps sigma's in bit order.
    """
    if sigma == 0:
        raise ValidationError("cannot project onto an empty program set")
    if sigma >> m:
        raise ValidationError(f"mask {sigma:#x} sets bits outside the {m} programs")
    dropped = tuple(m - 1 - j for j in range(m) if not sigma >> j & 1)
    return weights.reshape((2,) * m).sum(axis=dropped).ravel()


def append_weights(head: str, key: str, labels: dict[int, str], weights: np.ndarray) -> str:
    """A canonical JSON object's text ``head`` with one more entry after its last: ``key``
    maps each mask's label to its weight, in json's sort_keys order (by raw label); of
    masks that share a label (names with commas) the last holds it, as in a dict.

    ``key`` must sort after head's keys. Empties ``labels``: the text needs them once.
    """
    get = itemgetter(*sorted(range(len(weights)), key=labels.__getitem__))
    keys, counts = get(labels), get(weights.tolist())
    labels.clear()
    del get  # 2^m dict entries and ints that the lines below do not need
    last = [*map(ne, keys, keys[1:]), True]
    lines = map("{}: {}".format, map(encode_basestring_ascii, compress(keys, last)),
                compress(counts, last))
    blocks = iter(lambda: ",\n    ".join(islice(lines, 1 << 16)), "")  # few lines live at once
    return f'{head[:-3]},\n  "{key}": {{\n    ' + ",\n    ".join(blocks) + "\n  }\n}\n"


def diagram_report(rel: Relation) -> str:
    """Canonical JSON report: every region weight, the deficient regions, the verdict.

    A region's key is its program names, sorted and comma-joined ('' for the empty set).
    """
    weights = build_diagram(rel)
    regions = np.argsort(region_sizes(rel.m), kind="stable")  # by (size, mask)
    labels = subset_labels(rel.programs, regions[1:],
                           sorted(range(rel.m), key=rel.programs.__getitem__))
    deficient = [labels[mask] for mask in regions[deficiency(weights, rel.m)[regions] > 0].tolist()]
    head = canonical_dumps({"deficient": deficient, "consistent": not deficient})
    return append_weights(head, "weights", labels, weights)
