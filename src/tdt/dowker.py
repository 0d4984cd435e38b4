"""Dowker complexes and graphs: joint-acceptance faces, edge consistency, the
consistent core, and GF(2) homology.

A program subset is a face of the complex when at least one input is accepted
by every program in the subset, so faces are downward closed by construction.
The Dowker graph puts the faces in covering order (superset -> subset); an edge
is inconsistent when the subset outweighs the superset.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np
from .diagram import (
    build_diagram,
    consistent_regions,
    faces_of,
    halves,
    region_sizes,
    region_weights,
    subset_labels,
    subset_sum,
)
from .errors import CapacityError, ValidationError
from .relation import MAX_PROGRAMS, Relation, column_masks
from .util import bits

FACE_BUDGET = 10**6


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class DowkerComplex:
    """Abstract simplicial complex over bit positions 0..width-1.

    ``face_flags`` marks every face (a nonempty mask) in a read-only bool
    vector over all 2^width masks, closed under taking subsets. ``weights``
    holds the exact region weight of every mask (int64, 2^width entries); a
    face that only arises by downward closure has weight 0.
    """

    width: int
    labels: tuple[str, ...]
    face_flags: np.ndarray
    weights: np.ndarray


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
    weights = build_diagram(rel)
    return DowkerComplex(rel.m, rel.programs, faces_of(weights, rel.m), weights)


def build_graph(cpx: DowkerComplex) -> DowkerGraph:
    """Covering edges between faces; an edge is inconsistent iff the subset is heavier."""
    if np.count_nonzero(cpx.face_flags) > FACE_BUDGET:  # the graph lists every face
        raise CapacityError(f"complex exceeds the {FACE_BUDGET}-face budget")
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


def consistent_core(graph: DowkerGraph) -> frozenset[int]:
    """Faces whose entire sub-face lattice contains no inconsistent covering edge.

    The result is closed under taking sub-faces; accept-sets outside it mark
    inconsistent inputs.
    """
    # only faces carry weight, so the graph's faces are those of its weight vector
    return frozenset(np.flatnonzero(consistent_regions(graph.weights, graph.width)).tolist())


def complex_counts(cpx: DowkerComplex) -> tuple[int, int, np.ndarray, bool]:
    """Faces and inconsistent covering edges of a complex, counted on its vectors, its
    consistent core (faces with no red edge's tail at or below), and whether its diagram
    is consistent: the edges' comparison run over every region, the empty facet included."""
    faces, weights, m = cpx.face_flags, cpx.weights, cpx.width
    red, consistent, bad = 0, True, np.zeros_like(faces)
    for j in range(m):
        (head_faces, tail_faces), (heads, tails) = halves(faces, j), halves(weights, j)
        _, bad_tails = halves(bad, j)
        deficient = heads > tails
        consistent = consistent and not deficient.any()
        red_tails = head_faces & tail_faces & deficient
        red += int(np.count_nonzero(red_tails))
        bad_tails |= red_tails
    return int(np.count_nonzero(faces)), red, faces & ~subset_sum(bad, m), consistent


def inconsistent_inputs(rel: Relation) -> set[int]:
    """Inputs whose nonempty accept-set lies outside the consistent core."""
    masks = column_masks(rel)
    core = consistent_regions(region_weights(masks, rel.m), rel.m)
    return set(np.flatnonzero((masks != 0) & ~core[masks]).tolist())


def _morse_row(cell: int, partner: np.ndarray, lower: dict[int, int]) -> int:
    """Morse boundary of a critical cell: bit ``lower[X]`` is the parity of the gradient
    paths to the critical cell X. Paths start at the facets, step from a cell X with a
    partner j on to the other facets of X | 1<<j, and end at a cell without a partner."""
    row, reached = 0, {cell ^ 1 << i for i in bits(cell)}
    while reached:
        step: set[int] = set()
        for x in reached:
            if x in lower:
                row ^= 1 << lower[x]
            elif (j := int(partner[x])) >= 0:
                step ^= {x ^ 1 << i | 1 << j for i in bits(x)}
        reached = step
    return row


def betti_numbers(cpx: DowkerComplex, max_dim: int) -> tuple[int, ...]:
    """Betti numbers beta_0..beta_max_dim over GF(2). An element matching (Forman
    1998) pairs, for each program j in turn, every remaining cell X without j with
    X | 1<<j, the empty face included. The reduced Betti numbers are the unmatched
    (critical) cell counts less the ranks of the Morse boundaries between them."""
    if max_dim < 0:
        raise ValidationError("max_dim must be >= 0")
    if max_dim > MAX_PROGRAMS:
        raise ValidationError(f"max_dim must be <= {MAX_PROGRAMS}")
    cells = np.concatenate(([True], cpx.face_flags[1:]))
    partner = np.full(cells.shape, -1, dtype=np.int8)  # j where cell X is matched to X | 1<<j
    for j in range(cpx.width):
        (without, with_j), (matched_up, _) = halves(cells, j), halves(partner, j)
        matched = without & with_j
        matched_up[matched] = j
        without[...], with_j[...] = without ^ matched, with_j ^ matched
    critical = np.flatnonzero(cells)
    sizes = region_sizes(cpx.width)[critical]
    top = min(max_dim, cpx.width)  # no face has more than width programs: beta_k = 0 past it
    by_size = [critical[sizes == s].tolist() for s in range(top + 3)]
    ranks = [0] * (top + 3)  # ranks[s]: rank of the Morse boundary from size s to s - 1
    for s in range(1, top + 3):
        lower = {x: k for k, x in enumerate(by_size[s - 1])}
        pivots: dict[int, int] = {}
        for row in (_morse_row(x, partner, lower) for x in by_size[s] if lower):
            while row and (row & -row) in pivots:
                row ^= pivots[row & -row]
            if row:
                pivots[row & -row] = row
        ranks[s] = len(pivots)
    return tuple(len(by_size[s]) - ranks[s] - ranks[s + 1] + (s == 1 and not cells[0])
                 for s in range(1, top + 2)) + (0,) * (max_dim - top)


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
