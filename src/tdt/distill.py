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
from typing import Literal

from ._numpy import np
from .diagram import (
    WeightedDiagram,
    build_diagram,
    deficiency,
    is_consistent,
    pair_blame,
    project_diagram,
    region_weights,
)
from .dowker import inconsistent_accept_sets
from .errors import EmptyScreenError, InconsistentDiagramError, ValidationError
from .relation import Relation, column_masks, mask_from_names, restrict_programs
from .util import bits, canonical_dumps, csv_text, popcount, submasks


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
class ScoreVector:
    """Per-input inconsistency scores plus the subset sweep that produced them."""

    inputs: tuple[str, ...]
    scores: tuple[int, ...]
    swept: tuple[int, ...]          # program-subset masks, ascending
    min_subset_size: int
    mode: str

    def histogram(self) -> list[tuple[int, int]]:
        counts: dict[int, int] = {}
        for s in self.scores:
            counts[s] = counts.get(s, 0) + 1
        return sorted(counts.items())


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
        detail = ", ".join(f"{r.program}: {r.accepted}/{rel.n} accepted" for r in removed)
        raise EmptyScreenError(f"every program rejects a majority of the corpus ({detail})")
    return restrict_programs(rel, keep), tuple(removed)


def _pick_deficient_region(diag: WeightedDiagram) -> int:
    """Largest deficient region; ties by larger deficiency, then ascending mask."""
    shortfall = deficiency(diag)
    return min(
        np.flatnonzero(shortfall > 0).tolist(),
        key=lambda mask: (-popcount(mask), -shortfall[mask], mask),
    )


def _pick_heaviest_facet(diag: WeightedDiagram, region: int) -> int:
    """Heaviest facet of a region (the empty set counts); ties by ascending mask."""
    return min((region & ~(1 << j) for j in bits(region)), key=lambda f: (-diag.weights[f], f))


def distill(rel: Relation) -> DistillTrace:
    """Screen singletons, then drop one program per round until the diagram is consistent.

    Each round projects the current diagram off the dropped program; the relation
    is restricted once, to the programs left at the end.
    """
    screened, removed = singleton_screen(rel)
    names = list(screened.programs)  # the program of each bit of the diagram
    diag = build_diagram(screened)
    steps = []
    while not is_consistent(diag):
        region = _pick_deficient_region(diag)
        face = _pick_heaviest_facet(diag, region)
        removed_index = (region & ~face).bit_length() - 1
        steps.append(
            DistillStep(
                region=tuple(names[j] for j in bits(region)),
                face=tuple(names[j] for j in bits(face)),
                removed=names[removed_index],
            )
        )
        diag = project_diagram(diag, ((1 << diag.m) - 1) & ~(1 << removed_index))
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
) -> ScoreVector:
    """Score every input by how many swept program subsets call it inconsistent.

    ``subset`` mode (canonical) sweeps the restrictions to every program subset
    of size >= min_subset_size and collects each restriction's inconsistent
    inputs.  ``pairs`` mode instead sweeps every nested pair of subsets and
    counts pairwise blame.
    """
    if min_subset_size < 1:
        raise ValidationError("min_subset_size must be >= 1")
    if mode not in ("subset", "pairs"):
        raise ValidationError(f"unknown score mode {mode!r}")
    # an input's score depends only on its accept-set: score each distinct one
    masks, inverse, counts = np.unique(column_masks(rel), return_inverse=True, return_counts=True)
    swept = [
        mask for mask in range(1, 1 << rel.m) if popcount(mask) >= min_subset_size
    ]
    hits = np.zeros(len(masks), dtype=np.int64)
    if mode == "subset":
        for sigma in swept:
            hits += inconsistent_accept_sets(masks, counts, sigma)
    else:
        weights = region_weights(masks, rel.m, counts).tolist()
        for tau in swept:
            for sigma in submasks(tau):
                if sigma != tau and weights[sigma] > weights[tau]:
                    hits += pair_blame(masks, sigma, tau)
    return ScoreVector(
        inputs=rel.inputs,
        scores=tuple(hits[inverse].tolist()),
        swept=tuple(swept),
        min_subset_size=min_subset_size,
        mode=mode,
    )


def scores_csv(vec: ScoreVector) -> str:
    return csv_text(["input_id", "score"], zip(vec.inputs, vec.scores))


def histogram_csv(vec: ScoreVector) -> str:
    return csv_text(["score", "count"], vec.histogram())


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
    diag = build_diagram(rel)
    if not is_consistent(diag):
        raise InconsistentDiagramError(
            "the diagram is inconsistent; distill the relation before selecting inputs"
        )
    input_weights = diag.weights[column_masks(rel)]
    kept = tuple(np.flatnonzero(input_weights >= threshold).tolist())
    candidates = sorted(set(diag.weights[diag.weights > 0].tolist()) | {threshold})
    excluded = np.searchsorted(np.sort(input_weights), candidates)  # inputs below each cut
    # Consistent weights never decrease along inclusion, so the full region is the
    # heaviest: the nonempty regions reaching a cut include it whenever they are not
    # empty, and their complex is then the full simplex, one component.
    top = int(diag.weights[-1])
    report = tuple(
        ThresholdRow(threshold=t, excluded=int(e), components=int(t <= top))
        for t, e in zip(candidates, excluded.tolist())
    )
    return kept, report


def selection_report_csv(report: tuple[ThresholdRow, ...]) -> str:
    return csv_text(["threshold", "excluded", "components"],
                    ((r.threshold, r.excluded, r.components) for r in report))
