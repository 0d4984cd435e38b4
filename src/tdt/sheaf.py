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

from ._numpy import np
from .diagram import WeightedDiagram, build_diagram, is_consistent, project_diagram, region_sizes
from .errors import ValidationError
from .relation import Relation, names_from_mask, validate_mask
from .util import bits, canonical_dumps


@dataclass(frozen=True)
class SheafAssignment:
    """Stalks over every nonempty program subset, derived from one weight vector."""

    diagram: WeightedDiagram

    def stalk(self, sigma: int) -> dict[int, int]:
        """Counts of inputs per acceptance pattern Z within sigma (keys are submasks of sigma)."""
        counts = project_diagram(self.diagram, sigma).weights.tolist()
        patterns = [0]  # the submasks of sigma, ascending: the projection's region order
        for j in bits(sigma):
            patterns += [pattern | 1 << j for pattern in patterns]
        return dict(zip(patterns, counts))


def build_assignment(rel: Relation) -> SheafAssignment:
    return SheafAssignment(diagram=build_diagram(rel))


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
    size = region_sizes(rel.m)
    meet = size[np.arange(1 << rel.m) & sigma]
    regions = np.flatnonzero(meet)
    # lexsort is stable, so ties keep ascending mask order
    regions = regions[np.lexsort((size[regions], meet[regions]))]
    return tuple(diag.weights[regions].tolist())


def stalk_json(rel: Relation, sigma: int) -> str:
    """Canonical JSON: {"sigma": [...], "stalk": {pattern: count}, "consistent": bool}."""
    projected = project_diagram(build_diagram(rel), sigma)
    members = names_from_mask(rel, sigma)  # bit t of a projected region is members[t]
    payload = {
        "sigma": sorted(members),
        "stalk": {
            ",".join(sorted(name for t, name in enumerate(members) if z >> t & 1)): count
            for z, count in enumerate(projected.weights.tolist())
        },
        "consistent": is_consistent(projected),
    }
    return canonical_dumps(payload)
