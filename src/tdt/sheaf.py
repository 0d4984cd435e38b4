"""Per-simplex acceptance-pattern counts with coarsening restriction maps.

Over the full simplex on the programs, each simplex sigma carries a stalk: the
partition of the corpus into 2^|sigma| classes by acceptance pattern within
sigma, stored as class counts.  Every stalk is a projection of one weight
vector, and restriction to a face coarsens the partition by summing the
classes that project onto each smaller pattern, so the stalks of a coface
always restrict to those of its faces: the assignment is a global section by
construction.  Consistency at sigma therefore only asks that sigma's own
induced diagram has no deficient region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import WeightedDiagram, build_diagram, is_consistent, project_diagram
from .errors import ValidationError
from .relation import Relation, names_from_mask, validate_mask
from .util import canonical_dumps, popcount


@dataclass(frozen=True)
class SheafAssignment:
    """Stalks over every nonempty program subset, derived from one weight vector."""

    m: int
    labels: tuple[str, ...]
    diagram: WeightedDiagram

    def stalk(self, sigma: int) -> dict[int, int]:
        """Counts of inputs per acceptance pattern Z within sigma (keys are submasks of sigma)."""
        counts = project_diagram(self.diagram, sigma).weights
        # the submasks of sigma, ascending: the projection's region order
        patterns = np.flatnonzero(np.arange(1 << self.m) & ~sigma == 0)
        return dict(zip(patterns.tolist(), counts.tolist()))


def build_assignment(rel: Relation) -> SheafAssignment:
    return SheafAssignment(m=rel.m, labels=rel.programs, diagram=build_diagram(rel))


def consistency_at(assignment: SheafAssignment, sigma: int) -> bool:
    """True iff the diagram induced on sigma (the projection onto it) is consistent.

    Sigma's stalk agrees with the restriction of every coface's stalk because
    both are projections of the same diagram, so only consistency is checked.
    """
    return is_consistent(project_diagram(assignment.diagram, sigma))


def display_vector(rel: Relation, sigma: int) -> tuple[int, ...]:
    """Region counts for every region meeting sigma, in the canonical stalk order.

    Regions Z with Z & sigma != 0 are listed by ascending (|Z & sigma|, |Z|,
    mask); counts are exact region weights of the full diagram.
    """
    validate_mask(rel, sigma)
    if sigma == 0:
        raise ValidationError("sigma must be a nonempty program subset")
    diag = build_diagram(rel)
    regions = [mask for mask in range(1, 1 << rel.m) if mask & sigma]
    regions.sort(key=lambda mask: (popcount(mask & sigma), popcount(mask), mask))
    return tuple(diag.weights[regions].tolist())


def stalk_json(rel: Relation, sigma: int) -> str:
    """Canonical JSON: {"sigma": [...], "stalk": {pattern: count}, "consistent": bool}."""
    assignment = build_assignment(rel)
    stalk = assignment.stalk(sigma)
    payload = {
        "sigma": sorted(names_from_mask(rel, sigma)),
        "stalk": {
            ",".join(sorted(names_from_mask(rel, pattern))): count
            for pattern, count in stalk.items()
        },
        "consistent": consistency_at(assignment, sigma),
    }
    return canonical_dumps(payload)
