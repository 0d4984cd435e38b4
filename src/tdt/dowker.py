"""Dowker complexes and graphs: joint-acceptance faces, edge consistency, the
consistent core, components, and GF(2) homology.

A program subset is a face of the complex when at least one input is accepted
by every program in the subset, so faces are downward closed by construction.
The Dowker graph puts the faces in covering order (superset -> subset); an edge
is inconsistent when the subset outweighs the superset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._numpy import np
from .diagram import (
    any_cover,
    build_diagram,
    heaviest_facet,
    project_masks,
    region_sizes,
    region_weights,
    subset_labels,
    subset_or,
    superset_or,
)
from .errors import CapacityError, ValidationError
from .relation import MAX_PROGRAMS, Relation, column_masks
from .util import bits, popcount

FACE_BUDGET = 10**6


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_budget(face_flags: np.ndarray, budget: int) -> None:
    if np.count_nonzero(face_flags) > budget:
        raise CapacityError(f"complex exceeds the {budget}-face budget")


@dataclass(frozen=True, eq=False)
class DowkerComplex:
    """Abstract simplicial complex over bit positions 0..width-1.

    ``face_flags`` marks every face (a nonempty mask) in a read-only bool
    vector over all 2^width masks, closed under taking subsets. ``weights``
    holds the exact region weight of every mask (int64, 2^width entries, all
    zero for a dual complex); a face that only arises by downward closure has
    weight 0.
    """

    width: int
    labels: tuple[str, ...]
    face_flags: np.ndarray
    weights: np.ndarray

    @cached_property
    def facets(self) -> frozenset[int]:
        """The maximal faces: those with no face one program larger."""
        maximal = self.face_flags & ~any_cover(self.face_flags, self.width)
        return frozenset(np.flatnonzero(maximal).tolist())

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.width) if self.face_flags[1 << j])

    def weight(self, mask: int) -> int:
        return int(self.weights[mask]) if self.has_face(mask) else 0

    def faces(self, budget: int = FACE_BUDGET) -> frozenset[int]:
        """All faces, materialized."""
        _check_budget(self.face_flags, budget)
        return frozenset(np.flatnonzero(self.face_flags).tolist())

    def has_face(self, mask: int) -> bool:
        return 0 < mask < 1 << self.width and bool(self.face_flags[mask])

    def faces_of_dim(self, dim: int) -> list[int]:
        """Faces with dim+1 vertices, ascending mask order."""
        return np.flatnonzero(self.face_flags & (region_sizes(self.width) == dim + 1)).tolist()


@dataclass(frozen=True, eq=False)
class DowkerGraph:
    """Covering-order digraph on the faces, each node carrying its region weight.

    ``faces`` lists the nodes in (size, mask) order; edge k runs from the face
    ``tails[k]`` to its facet ``heads[k]`` (one program fewer) and is consistent
    iff ``consistent[k]``, in (size of tail, tail, head) order. ``weights`` is
    the complex's weight vector.
    """

    width: int
    labels: tuple[str, ...]
    faces: np.ndarray
    weights: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    consistent: np.ndarray


def build_complex(rel: Relation) -> DowkerComplex:
    """Faces = program subsets that jointly accept at least one input."""
    weights = build_diagram(rel).weights
    faces = superset_or(weights > 0, rel.m)
    faces[0] = False
    _check_budget(faces, FACE_BUDGET)
    return DowkerComplex(
        width=rel.m, labels=rel.programs, face_flags=_frozen(faces), weights=weights
    )


def build_graph(cpx: DowkerComplex) -> DowkerGraph:
    """Covering edges between faces; an edge is inconsistent iff the subset is heavier."""
    sizes = region_sizes(cpx.width)
    faces = np.flatnonzero(cpx.face_flags)
    faces = faces[np.argsort(sizes[faces], kind="stable")]
    tails, heads = [faces[:0]], [faces[:0]]
    for j in range(cpx.width):
        # faces are closed under dropping a program, so every nonempty head is a face
        tail = faces[(faces >> j & 1 == 1) & (faces != 1 << j)]
        tails.append(tail)
        heads.append(tail ^ 1 << j)
    tails, heads = np.concatenate(tails), np.concatenate(heads)
    order = np.lexsort((heads, tails, sizes[tails]))
    tails, heads = tails[order], heads[order]
    return DowkerGraph(
        width=cpx.width,
        labels=cpx.labels,
        faces=_frozen(faces),
        weights=cpx.weights,
        tails=_frozen(tails),
        heads=_frozen(heads),
        consistent=_frozen(cpx.weights[heads] <= cpx.weights[tails]),
    )


def consistent_regions(weights: np.ndarray, m: int) -> np.ndarray:
    """Per region of a weight vector: is it a face of the consistent core?

    A bad tail is a face outweighed by a nonempty facet (an inconsistent
    covering edge); the core is every face with no bad tail below it.
    """
    faces = superset_or(weights > 0, m)
    faces[0] = False  # so no edge runs into the empty set
    bad = faces & (heaviest_facet(weights * faces, m) > weights)
    return faces & ~subset_or(bad, m)


def consistent_core(graph: DowkerGraph) -> frozenset[int]:
    """Faces whose entire sub-face lattice contains no inconsistent covering edge.

    The result is closed under taking sub-faces; accept-sets outside it mark
    inconsistent inputs.
    """
    # only faces carry weight, so the graph's faces are those of its weight vector
    return frozenset(np.flatnonzero(consistent_regions(graph.weights, graph.width)).tolist())


def inconsistent_accept_sets(masks: np.ndarray, counts: np.ndarray, sigma: int) -> np.ndarray:
    """Per distinct accept-set (held by ``counts`` inputs each): is it inconsistent
    in the relation restricted to the programs in ``sigma``?"""
    restricted = project_masks(masks, sigma)
    width = popcount(sigma)
    core = consistent_regions(region_weights(restricted, width, counts), width)
    return (restricted != 0) & ~core[restricted]


def inconsistent_inputs(rel: Relation) -> set[int]:
    """Inputs whose nonempty accept-set lies outside the consistent core."""
    masks, inverse, counts = np.unique(column_masks(rel), return_inverse=True, return_counts=True)
    flags = inconsistent_accept_sets(masks, counts, (1 << rel.m) - 1)
    return set(np.flatnonzero(flags[inverse]).tolist())


def connected_components(cpx: DowkerComplex) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Components of the 1-skeleton: (count, vertex partition ordered by least member)."""
    components: list[int] = []  # disjoint vertex masks; every vertex lies in some facet
    for facet in cpx.facets:
        joined = [c for c in components if c & facet]
        components = [c for c in components if not c & facet]
        components.append(facet | sum(joined))
    partition = tuple(sorted(tuple(bits(c)) for c in components))
    return len(partition), partition


def gf2_rank(rows: list[int]) -> int:
    """Rank of a GF(2) matrix whose rows are given as bitmask ints."""
    rows = list(rows)
    rank = 0
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        rank += 1
        lsb = pivot & -pivot
        rows = [row ^ pivot if row & lsb else row for row in rows]
    return rank


def betti_numbers(cpx: DowkerComplex, max_dim: int, budget: int = FACE_BUDGET) -> tuple[int, ...]:
    """Betti numbers beta_0..beta_max_dim over GF(2) via boundary-matrix ranks."""
    if max_dim < 0:
        raise ValidationError("max_dim must be >= 0")
    _check_budget(cpx.face_flags, budget)  # before any rank work
    faces = np.flatnonzero(cpx.face_flags)
    sizes = region_sizes(cpx.width)[faces]
    faces_by_dim = [faces[sizes == d + 1] for d in range(max_dim + 2)]
    ranks = [0] * (max_dim + 2)  # ranks[d] = rank of boundary map C_d -> C_{d-1}
    for d in range(1, max_dim + 2):
        upper, lower = faces_by_dim[d], faces_by_dim[d - 1]
        rows = [0] * len(upper)
        for j in range(cpx.width):
            (row_index,) = np.nonzero(upper >> j & 1)
            # position of each facet (upper face minus program j) among the lower faces
            position = np.searchsorted(lower, upper[row_index] ^ 1 << j)
            for r, p in zip(row_index.tolist(), position.tolist()):
                rows[r] |= 1 << p
        ranks[d] = gf2_rank(rows)
    return tuple(len(faces_by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))


def dual_complex(rel: Relation) -> DowkerComplex:
    """Complex of the transposed relation, duplicate input columns collapsed.

    Vertices are the distinct nonzero accept-set patterns (in first-appearance
    order, labeled by a representative input); each program spans the face of
    the patterns it accepts.
    """
    accepted = np.flatnonzero(rel.accepts.any(axis=0))
    patterns, first = np.unique(rel.accepts[:, accepted], axis=1, return_index=True)
    order = np.argsort(first)
    width = len(order)
    if width > MAX_PROGRAMS:
        raise CapacityError(
            f"{width} distinct accept-sets exceed the {MAX_PROGRAMS}-vertex cap"
        )
    program_faces = patterns[:, order].astype(np.int64) @ (1 << np.arange(width, dtype=np.int64))
    # the complex is the downward closure of the program faces
    faces = np.zeros(1 << width, dtype=bool)
    faces[program_faces] = True
    faces = superset_or(faces, width)
    faces[0] = False
    return DowkerComplex(
        width=width,
        labels=tuple(rel.inputs[k] for k in accepted[first[order]].tolist()),
        face_flags=_frozen(faces),
        weights=np.broadcast_to(np.int64(0), faces.shape),  # no region weights
    )


def graph_dot(graph: DowkerGraph) -> str:
    """DOT rendering: nodes ``{P1,P2}; w`` ordered by (popcount, mask), red inconsistent edges."""
    names = subset_labels(graph.labels, graph.faces, range(graph.width))
    lines = ["digraph dowker {"]
    lines.extend(
        f'    n{mask} [label="{{{names[mask]}}}; {w}"];'
        for mask, w in zip(graph.faces.tolist(), graph.weights[graph.faces].tolist())
    )
    lines.extend(
        f"    n{tail} -> n{head}{'' if ok else ' [color=red]'};"
        for tail, head, ok in zip(
            graph.tails.tolist(), graph.heads.tolist(), graph.consistent.tolist()
        )
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
