"""Per-simplex acceptance-pattern counts with coarsening restriction maps.

Over the full simplex on the programs, each simplex sigma carries a stalk: the
partition of the corpus into 2^|sigma| classes by acceptance pattern within
sigma, stored as class counts.  Restriction to a face coarsens the partition by
summing the classes that project onto each smaller pattern, so the assignment
built from a relation is automatically a global section; consistency at sigma
additionally asks that sigma's own induced diagram has no deficient region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import WeightedDiagram, build_diagram, is_consistent, project_diagram
from .errors import ValidationError
from .relation import Relation, names_from_mask, validate_mask
from .util import bits, canonical_dumps, popcount, submasks


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


def restrict_stalk(stalk: dict[int, int], sigma: int, sub: int) -> dict[int, int]:
    """Coarsen a stalk over sigma to its face sub by merging classes."""
    if sub & ~sigma:
        raise ValidationError("sub must be a face of sigma")
    out = {z: 0 for z in submasks(sub)}
    for pattern, count in stalk.items():
        out[pattern & sub] += count
    return out


def consistency_at(assignment: SheafAssignment, sigma: int) -> bool:
    """True iff every coface restricts to sigma's stalk and sigma's induced diagram is consistent.

    The agreement clause is automatic for assignments built from a relation but
    is checked anyway, as the definition asks.
    """
    stalk = assignment.stalk(sigma)
    full = (1 << assignment.m) - 1
    for j in bits(full & ~sigma):
        coface = sigma | (1 << j)
        if restrict_stalk(assignment.stalk(coface), coface, sigma) != stalk:
            return False
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
