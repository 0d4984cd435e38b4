"""Distilling a consistent program subset and a consistent subcorpus.

Three stages: a singleton screen drops programs that reject more than they
accept; an iterative pass removes one program at a time until no region of the
weighted diagram is deficient; a filtration threshold then selects the inputs
whose region weight clears the cut.  Alongside, every input gets an
inconsistency score: the number of swept program subsets under whose
restriction it is inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Literal

from ._numpy import np
from .diagram import (
    build_diagram,
    deficiency,
    inconsistent_accept_sets,
    is_consistent,
    project_diagram,
    region_sizes,
    region_weights,
    subset_sum,
)
from .errors import EmptyScreenError, InconsistentDiagramError, ValidationError
from .relation import Relation, column_masks, mask_from_names, restrict_programs
from .util import bits, canonical_dumps, csv_text


@dataclass(frozen=True)
class ScreenRemoval:
    program: str
    accepted: int
    rejected: int


@dataclass(frozen=True)
class DistillStep:
    region: tuple[str, ...]   # deficient region chosen this round
    face: tuple[str, ...]     # its heaviest facet
    removed: str              # the program separating the two


@dataclass(frozen=True)
class DistillTrace:
    initial_removals: tuple[ScreenRemoval, ...]
    steps: tuple[DistillStep, ...]
    final_programs: tuple[str, ...]
    final_relation: Relation


@dataclass(frozen=True)
class ThresholdRow:
    threshold: int
    excluded: int
    components: int


def singleton_screen(rel: Relation) -> tuple[Relation, tuple[ScreenRemoval, ...]]:
    """Keep the programs whose one-program diagram is consistent (accepts >= rejects)."""
    if rel.n < 1:
        raise ValidationError("singleton screen needs a non-empty corpus")
    removed = []
    keep = 0
    for j, name in enumerate(rel.programs):
        accepted = int(rel.accepts[j].sum())
        rejected = rel.n - accepted
        if accepted >= rejected:
            keep |= 1 << j
        else:
            removed.append(ScreenRemoval(program=name, accepted=accepted, rejected=rejected))
    if keep == 0:
        detail = ", ".join(f"{r.program!r}: {r.accepted}/{rel.n} accepted" for r in removed)
        raise EmptyScreenError(f"every program rejects a majority of the corpus ({detail})")
    return restrict_programs(rel, keep), tuple(removed)


def _pick_deficient_region(weights: np.ndarray, m: int) -> int | None:
    """Largest deficient region, or None; ties by larger deficiency, then ascending mask."""
    shortfall = deficiency(weights, m)
    regions = np.flatnonzero(shortfall > 0)
    if not len(regions):
        return None
    sizes = np.zeros_like(regions)  # their program counts, with no vector over all 2^m
    for j in range(m):
        sizes += regions >> j & 1
    return int(regions[np.lexsort((regions, -shortfall[regions], -sizes))[0]])


def _pick_heaviest_facet(weights: np.ndarray, region: int) -> int:
    """Heaviest facet of a region (the empty set counts); ties by ascending mask."""
    return min((region & ~(1 << j) for j in bits(region)), key=lambda f: (-weights[f], f))


def distill(rel: Relation) -> DistillTrace:
    """Screen singletons, then drop one program per round until the diagram is consistent.

    Each round projects the current diagram off the dropped program; the relation
    is restricted once, to the programs left at the end.
    """
    screened, removed = singleton_screen(rel)
    names = list(screened.programs)  # the program of each bit of the diagram
    weights = build_diagram(screened)
    steps = []
    while (region := _pick_deficient_region(weights, len(names))) is not None:
        face = _pick_heaviest_facet(weights, region)
        removed_index = (region & ~face).bit_length() - 1
        steps.append(DistillStep(region=tuple(names[j] for j in bits(region)),
                                 face=tuple(names[j] for j in bits(face)),
                                 removed=names[removed_index]))
        weights = project_diagram(weights, len(names),
                                  ((1 << len(names)) - 1) & ~(1 << removed_index))
        del names[removed_index]
    final = restrict_programs(screened, mask_from_names(screened, names))
    return DistillTrace(
        initial_removals=removed,
        steps=tuple(steps),
        final_programs=final.programs,
        final_relation=final,
    )


def trace_json(trace: DistillTrace) -> str:
    payload = {
        "screened": [r.program for r in trace.initial_removals],
        "steps": [
            {"region": list(s.region), "face": list(s.face), "removed": s.removed}
            for s in trace.steps
        ],
        "final": list(trace.final_programs),
    }
    return canonical_dumps(payload)


def inconsistency_scores(
    rel: Relation,
    min_subset_size: int = 2,
    mode: Literal["subset", "pairs"] = "subset",
) -> tuple[np.ndarray, np.ndarray]:
    """Score every input by how many swept program subsets call it inconsistent:
    an int64 vector over ``rel.inputs``, and the swept subset masks, ascending.

    ``subset`` mode (canonical) sweeps the restrictions to every program subset
    of size >= min_subset_size and collects each restriction's inconsistent
    inputs.  ``pairs`` mode instead sweeps every nested pair sigma < tau of
    subsets, tau swept, and counts the flagged pairs (weight(sigma) >
    weight(tau)) that blame an input: those with sigma inside its accept-set X
    and tau not.  That is [sigma <= X] - [tau <= X], so the score is one subset
    sum over X of ``net``: flagged pairs with sigma = Z minus those with tau = Z.
    """
    if min_subset_size < 1:
        raise ValidationError("min_subset_size must be >= 1")
    if mode not in ("subset", "pairs"):
        raise ValidationError(f"unknown score mode {mode!r}")
    # an input's score depends only on its accept-set: score each distinct one
    masks, inverse, counts = np.unique(column_masks(rel), return_inverse=True, return_counts=True)
    tall = region_sizes(rel.m) >= min_subset_size
    swept = np.flatnonzero(tall)
    if mode == "subset":
        hits = np.zeros(len(masks), dtype=np.int64)
        for sigma in swept.tolist():
            hits += inconsistent_accept_sets(masks, counts, sigma)
    else:
        # program j is axis m-1-j; for d = 1, 2, ... fixing d's axes at 0 views every sigma
        # disjoint from d, and at 1 its tau = sigma | d (a length-1 axis keeps these views)
        shape = (2,) * rel.m + (1,)
        weights = region_weights(masks, rel.m, counts).reshape(shape)
        tall = tall.reshape(shape)
        net = np.zeros(shape, dtype=np.int64)
        steps = zip(product((slice(None), 0), repeat=rel.m),
                    product((slice(None), 1), repeat=rel.m))
        next(steps)  # d = 0 pairs no sigma with a larger tau
        for low, high in steps:
            flagged = (weights[low] > weights[high]) & tall[high]
            sigmas, taus = net[low], net[high]
            sigmas += flagged
            taus -= flagged
        hits = subset_sum(net.ravel(), rel.m)[masks]
    return hits[inverse], swept


def scores_csv(inputs: tuple[str, ...], scores: np.ndarray) -> str:
    return csv_text(["input_id", "score"], zip(inputs, scores.tolist()))


def histogram_csv(scores: np.ndarray) -> str:
    """Each score that occurs, ascending, with its number of inputs."""
    values, counts = np.unique(scores, return_counts=True)
    return csv_text(["score", "count"], zip(values.tolist(), counts.tolist()))


def select_inputs(
    rel: Relation, threshold: int
) -> tuple[tuple[int, ...], tuple[ThresholdRow, ...]]:
    """Keep the inputs whose region weight reaches the threshold.

    Requires a consistent diagram (distill first), so the weights form a
    filtration and the cut is a sublevel selection.  The report lists, for
    every candidate threshold, how many inputs it would exclude and how many
    connected components the surviving complex has.
    """
    if threshold < 0:
        raise ValidationError("threshold must be >= 0")
    weights = build_diagram(rel)
    if not is_consistent(weights, rel.m):
        raise InconsistentDiagramError(
            "the diagram is inconsistent; distill the relation before selecting inputs"
        )
    input_weights = weights[column_masks(rel)]
    kept = tuple(np.flatnonzero(input_weights >= threshold).tolist())
    candidates = sorted(set(weights[weights > 0].tolist()) | {threshold})
    excluded = np.searchsorted(np.sort(input_weights), candidates)  # inputs below each cut
    # Consistent weights never decrease along inclusion, so the full region is the
    # heaviest: the nonempty regions reaching a cut include it whenever they are not
    # empty, and their complex is then the full simplex, one component.
    top = int(weights[-1])
    report = tuple(
        ThresholdRow(threshold=t, excluded=int(e), components=int(t <= top))
        for t, e in zip(candidates, excluded.tolist())
    )
    return kept, report


def selection_report_csv(report: tuple[ThresholdRow, ...]) -> str:
    return csv_text(["threshold", "excluded", "components"],
                    ((r.threshold, r.excluded, r.components) for r in report))
