"""Dowker complexes and graphs: joint-acceptance faces, edge consistency, the
consistent core, components, and GF(2) homology.

A program subset is a face of the complex when at least one input is accepted
by every program in the subset, so faces are downward closed by construction.
The Dowker graph puts the faces in covering order (superset -> subset); an edge
is inconsistent when the subset outweighs the superset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .diagram import (
    build_diagram,
    heaviest_facet,
    project_masks,
    region_weights,
    subset_or,
    superset_or,
)
from .errors import CapacityError, ValidationError
from .relation import MAX_PROGRAMS, Relation, column_masks
from .util import bits, facet_masks, mask_of, popcount

FACE_BUDGET = 10**6


def maximal_masks(masks: Iterable[int]) -> frozenset[int]:
    """Masks not strictly contained in another mask of the collection."""
    distinct = sorted(set(masks), key=popcount, reverse=True)
    kept: list[int] = []
    for mask in distinct:
        if not any(mask & ~other == 0 for other in kept):
            kept.append(mask)
    return frozenset(kept)


def _closure(facets: frozenset[int], budget: int = FACE_BUDGET) -> frozenset[int]:
    faces: set[int] = set()
    for facet in sorted(facets, key=popcount, reverse=True):
        stack = [facet]
        while stack:
            mask = stack.pop()
            if mask in faces:
                continue
            faces.add(mask)
            if len(faces) > budget:
                raise CapacityError(f"complex exceeds the {budget}-face budget")
            for sub in facet_masks(mask):
                if sub and sub not in faces:
                    stack.append(sub)
    return frozenset(faces)


@dataclass(frozen=True)
class DowkerComplex:
    """Abstract simplicial complex over bit positions 0..width-1.

    Faces are nonempty bitmasks, stored by their maximal elements; ``weights``
    carries the exact region weight of each face (0 if the face only arises by
    downward closure).
    """

    width: int
    labels: tuple[str, ...]
    facets: frozenset[int]
    weights: Mapping[int, int] = field(default_factory=dict)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*(set(bits(f)) for f in self.facets)) if self.facets else ()))

    def weight(self, mask: int) -> int:
        return self.weights.get(mask, 0)

    def faces(self, budget: int = FACE_BUDGET) -> frozenset[int]:
        """All faces, materialized (downward closure of the facets)."""
        return _closure(self.facets, budget)

    def has_face(self, mask: int) -> bool:
        return mask != 0 and any(mask & ~facet == 0 for facet in self.facets)

    def faces_of_dim(self, dim: int) -> list[int]:
        """Faces with dim+1 vertices, ascending mask order."""
        out: set[int] = set()
        for facet in self.facets:
            members = list(bits(facet))
            if len(members) >= dim + 1:
                for combo in combinations(members, dim + 1):
                    out.add(mask_of(combo))
        return sorted(out)


@dataclass(frozen=True)
class GraphEdge:
    tail: int  # superset mask
    head: int  # subset mask (one program fewer)
    consistent: bool


@dataclass(frozen=True)
class DowkerGraph:
    """Covering-order digraph on the faces, each node carrying its region weight."""

    width: int
    labels: tuple[str, ...]
    nodes: Mapping[int, int]  # face mask -> weight
    edges: tuple[GraphEdge, ...]


def build_complex(rel: Relation) -> DowkerComplex:
    """Faces = program subsets that jointly accept at least one input."""
    weights = build_diagram(rel).weights
    facets = maximal_masks((np.flatnonzero(weights[1:]) + 1).tolist())
    return DowkerComplex(
        width=rel.m,
        labels=rel.programs,
        facets=facets,
        weights={face: int(weights[face]) for face in _closure(facets)},
    )


def build_graph(cpx: DowkerComplex) -> DowkerGraph:
    """Covering edges between faces; an edge is inconsistent iff the subset is heavier."""
    faces = cpx.faces()
    edges = []
    for tail in sorted(faces, key=lambda mask: (popcount(mask), mask)):
        for head in facet_masks(tail):
            if head == 0:
                continue
            edges.append(
                GraphEdge(tail=tail, head=head, consistent=cpx.weight(head) <= cpx.weight(tail))
            )
    nodes = {face: cpx.weight(face) for face in faces}
    return DowkerGraph(width=cpx.width, labels=cpx.labels, nodes=nodes, edges=tuple(edges))


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
    faces = np.fromiter(graph.nodes, np.int64, len(graph.nodes))
    node_weights = np.fromiter(graph.nodes.values(), np.int64, len(graph.nodes))
    weights = region_weights(faces, graph.width, node_weights)
    return frozenset(np.flatnonzero(consistent_regions(weights, graph.width)).tolist())


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
    vertices = list(cpx.vertices)
    parent = {v: v for v in vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for facet in cpx.facets:
        members = list(bits(facet))
        for a, b in zip(members, members[1:]):
            union(a, b)
    groups: dict[int, list[int]] = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    partition = tuple(tuple(sorted(group)) for _, group in sorted(groups.items()))
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
    cpx.faces(budget)  # enforce the face budget before any rank work
    faces_by_dim = [cpx.faces_of_dim(d) for d in range(max_dim + 2)]
    ranks = [0] * (max_dim + 2)  # ranks[d] = rank of boundary map C_d -> C_{d-1}
    for d in range(1, max_dim + 2):
        lower = {mask: i for i, mask in enumerate(faces_by_dim[d - 1])}
        rows = []
        for mask in faces_by_dim[d]:
            row = 0
            for sub in facet_masks(mask):
                row |= 1 << lower[sub]
            rows.append(row)
        ranks[d] = gf2_rank(rows)
    betti = []
    for d in range(max_dim + 1):
        betti.append(len(faces_by_dim[d]) - ranks[d] - ranks[d + 1])
    return tuple(betti)


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
    return DowkerComplex(
        width=width,
        labels=tuple(rel.inputs[k] for k in accepted[first[order]].tolist()),
        facets=maximal_masks(face for face in program_faces.tolist() if face),
        weights={},
    )


def graph_dot(graph: DowkerGraph) -> str:
    """DOT rendering: nodes ``{P1,P2}; w`` ordered by (popcount, mask), red inconsistent edges."""

    def node_id(mask: int) -> str:
        return f"n{mask}"

    def label(mask: int) -> str:
        names = ",".join(graph.labels[j] for j in bits(mask))
        return f"{{{names}}}; {graph.nodes[mask]}"

    lines = ["digraph dowker {"]
    for mask in sorted(graph.nodes, key=lambda m_: (popcount(m_), m_)):
        lines.append(f'    {node_id(mask)} [label="{label(mask)}"];')
    for edge in sorted(graph.edges, key=lambda e: (popcount(e.tail), e.tail, e.head)):
        attr = "" if edge.consistent else " [color=red]"
        lines.append(f"    {node_id(edge.tail)} -> {node_id(edge.head)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
