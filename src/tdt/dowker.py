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
    _halves,
    any_cover,
    build_diagram,
    heaviest_facet,
    region_sizes,
    region_weights,
    subset_labels,
    subset_sum,
    superset_or,
)
from .errors import CapacityError, ValidationError
from .relation import MAX_PROGRAMS, Relation, column_masks
from .util import bits

FACE_BUDGET = 10**6


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_budget(face_flags: np.ndarray) -> None:
    if np.count_nonzero(face_flags) > FACE_BUDGET:
        raise CapacityError(f"complex exceeds the {FACE_BUDGET}-face budget")


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

    def faces(self) -> frozenset[int]:
        """All faces, materialized."""
        _check_budget(self.face_flags)
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


def faces_of(weights: np.ndarray, m: int) -> np.ndarray:
    """Read-only face flags: every nonempty region at or below a nonzero entry."""
    faces = superset_or(weights > 0, m)
    faces[0] = False
    return _frozen(faces)


def build_complex(rel: Relation) -> DowkerComplex:
    """Faces = program subsets that jointly accept at least one input."""
    weights = build_diagram(rel).weights
    faces = faces_of(weights, rel.m)
    _check_budget(faces)
    return DowkerComplex(width=rel.m, labels=rel.programs, face_flags=faces, weights=weights)


def build_graph(cpx: DowkerComplex) -> DowkerGraph:
    """Covering edges between faces; an edge is inconsistent iff the subset is heavier."""
    _check_budget(cpx.face_flags)  # the graph lists every face
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


def consistent_regions(weights: np.ndarray, m: int, faces: np.ndarray | None = None) -> np.ndarray:
    """Per region of a weight vector: is it a face of the consistent core?

    A bad tail is a face (of ``faces``, if given) outweighed by a nonempty facet, an
    inconsistent covering edge; the core is every face with no bad tail below it.
    """
    if faces is None:  # the empty set is no face, so no edge runs into it
        faces = faces_of(weights, m)
    bad = faces & (heaviest_facet(weights * faces, m) > weights)
    return faces & ~subset_sum(bad, m)


def consistent_core(graph: DowkerGraph) -> frozenset[int]:
    """Faces whose entire sub-face lattice contains no inconsistent covering edge.

    The result is closed under taking sub-faces; accept-sets outside it mark
    inconsistent inputs.
    """
    # only faces carry weight, so the graph's faces are those of its weight vector
    return frozenset(np.flatnonzero(consistent_regions(graph.weights, graph.width)).tolist())


def complex_counts(weights: np.ndarray, m: int,
                   faces: np.ndarray | None = None) -> tuple[int, int, np.ndarray]:
    """Faces and inconsistent covering edges of the complex of a weight vector,
    counted on the vectors without listing a face, and its consistent core as
    ``consistent_regions`` flags; ``faces`` as for ``consistent_regions``."""
    if faces is None:
        faces = faces_of(weights, m)
    red = 0
    for j in range(m):
        (head_faces, tail_faces), (heads, tails) = _halves(faces, j), _halves(weights, j)
        red += int(np.count_nonzero(head_faces & tail_faces & (heads > tails)))
    return int(np.count_nonzero(faces)), red, consistent_regions(weights, m, faces)


def inconsistent_accept_sets(masks: np.ndarray, counts: np.ndarray, sigma: int) -> np.ndarray:
    """Per distinct accept-set (held by ``counts`` inputs each): is it inconsistent
    in the relation restricted to the programs in ``sigma``?"""
    restricted = np.zeros_like(masks)  # bit t of a restricted mask is sigma's t-th program
    for t, j in enumerate(bits(sigma)):
        restricted |= (masks >> j & 1) << t
    width = bin(sigma).count("1")
    core = consistent_regions(region_weights(restricted, width, counts), width)
    return (restricted != 0) & ~core[restricted]


def inconsistent_inputs(rel: Relation) -> set[int]:
    """Inputs whose nonempty accept-set lies outside the consistent core."""
    masks = column_masks(rel)
    core = consistent_regions(region_weights(masks, rel.m), rel.m)
    return set(np.flatnonzero((masks != 0) & ~core[masks]).tolist())


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


def betti_numbers(cpx: DowkerComplex, max_dim: int) -> tuple[int, ...]:
    """Betti numbers beta_0..beta_max_dim over GF(2). An element matching (Forman
    1998) pairs, for each program j in turn, every remaining cell X without j with
    X | 1<<j, the empty face included. If no two adjacent dimensions keep unmatched
    (critical) cells, their counts are the reduced Betti numbers; else ranks decide."""
    if max_dim < 0:
        raise ValidationError("max_dim must be >= 0")
    cells = np.concatenate(([True], cpx.face_flags[1:]))
    for j in range(cpx.width):
        without, with_j = _halves(cells, j)
        without[...], with_j[...] = without & ~with_j, with_j & ~without
    # critical[d + 1] counts the critical cells of dimension d = -1..max_dim+1
    critical = np.bincount(region_sizes(cpx.width)[cells], minlength=max_dim + 3)[: max_dim + 3]
    if not (critical[:-1] * critical[1:]).any():  # so every Morse boundary map is zero
        return tuple(int(c) + (d == 0 and not cells[0]) for d, c in enumerate(critical[1:-1]))
    _check_budget(cpx.face_flags)  # before any rank work
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
    return DowkerComplex(
        width=width,
        labels=tuple(rel.inputs[k] for k in accepted[first[order]].tolist()),
        face_flags=faces_of(faces, width),
        weights=np.broadcast_to(np.int64(0), faces.shape),  # no region weights
    )


def graph_dot(graph: DowkerGraph) -> str:
    """DOT rendering: nodes ``{P1,P2}; w`` ordered by (popcount, mask), red inconsistent edges."""
    escaped = [name.replace("\\", "\\\\").replace('"', '\\"') for name in graph.labels]
    names = subset_labels(escaped, graph.faces, range(graph.width))
    nodes = "".join(
        f'    n{mask} [label="{{{names[mask]}}}; {w}"];\n'
        for mask, w in zip(graph.faces.tolist(), graph.weights[graph.faces].tolist())
    )
    # edge lines as byte rows: each mask's digits NUL-padded to one width, between
    # constant pieces; one boolean index drops the NULs
    masks = np.arange(1 << graph.width)[:, None]
    powers = 10 ** np.arange(len(str(masks[-1, 0])))[::-1]
    digits = np.where((masks >= powers) | (powers == 1), masks // powers % 10 + 48, 0)
    w = len(powers)
    line = np.frombuffer(b"    n" + bytes(w) + b" -> n" + bytes(w) + b" [color=red];\n", np.uint8)
    rows = np.tile(line, (len(graph.tails), 1))
    rows[:, 5:5 + w], rows[:, 10 + w:10 + 2 * w] = digits[graph.tails], digits[graph.heads]
    rows[graph.consistent, -14:-2] = 0  # the color only on inconsistent edges
    return "digraph dowker {\n" + nodes + rows[rows != 0].tobytes().decode() + "}\n"
