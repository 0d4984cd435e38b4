"""Per-simplex acceptance-pattern counts (stalks) and display vectors.

Each simplex sigma (a nonempty program subset) carries a stalk: the partition
of the corpus into 2^|sigma| classes by acceptance pattern within sigma,
stored as class counts.  Every stalk is a projection of one weight vector, and
restriction to a face coarsens the partition by summing the classes that
project onto each smaller pattern, so the stalks of a coface always restrict
to those of its faces: the assignment is a global section by construction.
Consistency at sigma therefore only asks that the projection onto sigma has no
deficient region; ``stalk_json`` reports it next to sigma's stalk.
"""

from __future__ import annotations

from ._numpy import np
from .diagram import (append_weights, build_diagram, is_consistent, project_diagram, region_sizes,
                      subset_labels)
from .errors import ValidationError
from .relation import Relation, names_from_mask, validate_mask
from .util import canonical_dumps


def display_vector(rel: Relation, sigma: int) -> tuple[int, ...]:
    """Region counts for every region meeting sigma, in the canonical stalk order.

    Regions Z with Z & sigma != 0 are listed by ascending (|Z & sigma|, |Z|,
    mask); counts are exact region weights of the full diagram.
    """
    validate_mask(rel, sigma)
    if sigma == 0:
        raise ValidationError("sigma must be a nonempty program subset")
    size = region_sizes(rel.m)
    meet = size[np.arange(1 << rel.m) & sigma]
    regions = np.flatnonzero(meet)
    # lexsort is stable, so ties keep ascending mask order
    regions = regions[np.lexsort((size[regions], meet[regions]))]
    return tuple(build_diagram(rel)[regions].tolist())


def stalk_json(rel: Relation, sigma: int) -> str:
    """Canonical JSON: {"sigma": [...], "stalk": {pattern: count}, "consistent": bool}."""
    projected = project_diagram(build_diagram(rel), rel.m, sigma)
    members = names_from_mask(rel, sigma)  # bit t of a projected region is members[t]
    width = len(members)
    head = canonical_dumps({"consistent": is_consistent(projected, width),
                            "sigma": sorted(members)})
    regions = np.argsort(region_sizes(width), kind="stable")[1:]  # by (size, mask)
    labels = subset_labels(members, regions, sorted(range(width), key=members.__getitem__))
    return append_weights(head, "stalk", labels, projected)
