"""The vectorised Dowker layer against brute-force oracles at m = 1..8 (the
counts read off the vectors at m = 1..10).

Complex (faces and their weights), graph edges and their flags, the face,
red-edge and core counts read off the vectors, the DOT text, the weights
report, Betti numbers of the complex and of its dual (built from the oracles'
generators) and the threshold-selection report, on seed-pinned relations that
include an empty corpus and an all-reject matrix. Program names are drawn so
that name order differs from program order, which the report's keys depend on.
"""

import random

import numpy as np
import pytest

from tdt.diagram import build_diagram, diagram_report, is_consistent
from tdt.distill import distill, select_inputs
from tdt.dowker import (
    DowkerComplex,
    betti_numbers,
    build_complex,
    build_graph,
    complex_counts,
    consistent_core,
    graph_dot,
)
from tdt.errors import CapacityError, EmptyScreenError

from conftest import dual_complex, relation_from_masks
import oracles

NAMES = ("b", "A", "c10", "c2", "Zed", "x,y", "p", "B")


def _instances(m, seed, count=12):
    rng = random.Random(seed)
    names = tuple(rng.sample(NAMES, m)) if m <= len(NAMES) else None  # None: p00, p01, ...
    yield relation_from_masks([], m=m, programs=names)  # no inputs
    yield relation_from_masks([0] * rng.randint(1, 5), m=m, programs=names)  # all reject
    for _ in range(count):
        density = rng.choice((0.3, 0.6, 0.9))
        masks = [
            sum(1 << j for j in range(m) if rng.random() < density)
            for _ in range(rng.randint(1, 14))
        ]
        yield relation_from_masks(masks, m=m, programs=names)


def _rows(rel):
    return ["".join("1" if v else "0" for v in row) for row in rel.accepts]


def _edge_flags(graph):
    """(tail, head) -> consistent, read off the graph's edge arrays."""
    pairs = zip(graph.tails.tolist(), graph.heads.tolist())
    return dict(zip(pairs, graph.consistent.tolist()))


@pytest.mark.parametrize("m", range(1, 9))
def test_dowker_layer_matches_oracles(m):
    for rel in _instances(m, seed=900 + m):
        rows = _rows(rel)
        weights = oracles.region_weights(rows)
        faces = oracles.faces_of(rows)
        face_weights = {face: weights[face] for face in faces}

        cpx = build_complex(rel)
        assert set(np.flatnonzero(cpx.face_flags).tolist()) == faces
        assert {face: int(cpx.weights[face]) for face in faces} == face_weights

        graph = build_graph(cpx)
        edges = oracles.covering_edges(faces, face_weights)
        assert _edge_flags(graph) == edges
        assert len(graph.tails) == len(edges)
        assert graph.faces.tolist() == sorted(faces, key=lambda f: (bin(f).count("1"), f))
        assert graph.weights[graph.faces].tolist() == [face_weights[f] for f in graph.faces.tolist()]
        assert graph_dot(graph) == oracles.graph_dot(list(rel.programs), faces, face_weights)
        assert diagram_report(rel) == oracles.diagram_report(list(rel.programs), weights)
        red = int(np.count_nonzero(~graph.consistent))
        face_count, red_count, core, _ = complex_counts(cpx)
        assert (face_count, red_count) == (len(graph.faces), red)
        assert set(np.flatnonzero(core).tolist()) == consistent_core(graph)

        max_dim = min(m, 3)
        assert betti_numbers(cpx, max_dim) == oracles.betti_numbers(
            oracles.facets_of(faces), m, max_dim
        )


@pytest.mark.parametrize("m", range(1, 11))
def test_complex_counts_match_oracles(m):
    # one comparison pass gives the red edges (between faces) and the verdict (over
    # every region, the empty facet included); the core compares against every facet
    for rel in _instances(m, seed=980 + m):
        rows = _rows(rel)
        weights = oracles.region_weights(rows)
        faces = oracles.faces_of(rows)
        edges = oracles.covering_edges(faces, {face: weights[face] for face in faces})
        diag = build_diagram(rel)
        face_count, red_count, core, consistent = complex_counts(build_complex(rel))
        assert (face_count, red_count) == (len(faces), list(edges.values()).count(False))
        assert set(np.flatnonzero(core).tolist()) == oracles.core_faces(rows)
        assert type(consistent) is bool
        assert consistent == is_consistent(diag, m)
        assert consistent == oracles.consistent_by_covers(weights, m)


@pytest.mark.parametrize("m", range(1, 9))
def test_dual_complex_matches_oracles(m):
    for rel in _instances(m, seed=950 + m, count=6):
        rows = _rows(rel)
        firsts, program_masks = oracles.dual_generators(rows)
        width = len(firsts)
        faces = oracles.closure(program_masks, width)

        dual = dual_complex(rel)
        assert betti_numbers(dual, 2) == oracles.betti_numbers(oracles.facets_of(faces), width, 2)
        graph = build_graph(dual)
        assert set(_edge_flags(graph)) == set(oracles.covering_edges(faces, {}))
        assert graph.consistent.all()


def _consistent_relations(m, seed):
    """Relations with consistent diagrams: distilled random ones, and ones whose
    weights are a random vector made nondecreasing along inclusion."""
    rng = random.Random(seed)
    for _ in range(6):
        masks = [rng.randrange(1 << m) for _ in range(rng.randint(1, 40))]
        masks += [(1 << m) - 1] * rng.randint(0, 3)
        try:
            yield distill(relation_from_masks(masks, m=m))[0]
        except EmptyScreenError:
            continue
    for _ in range(6):
        raw = [rng.choice((0, 0, 1, 2, 3)) for _ in range(1 << m)]
        weights = list(raw)
        for region in range(1 << m):  # max over subsets, ascending so subsets come first
            for j in range(m):
                if region >> j & 1:
                    weights[region] = max(weights[region], weights[region & ~(1 << j)])
        yield relation_from_masks(
            [region for region, w in enumerate(weights) for _ in range(w)], m=m
        )


@pytest.mark.parametrize("m", range(1, 8))
def test_selection_report_matches_per_threshold_components(m):
    seen_components = set()
    for rel in _consistent_relations(m, seed=700 + m):
        rows = _rows(rel)
        weights = oracles.region_weights(rows)
        input_weights = [weights[col] for col in oracles.masks_from_rows(rows)]
        top = max(weights.values())
        for threshold in {0, 1, top, top + 1, random.Random(m).randint(0, top + 2)}:
            kept, report = select_inputs(rel, threshold)
            expected = oracles.selection_report(weights, rel.m, input_weights, threshold)
            assert report == expected
            assert kept.tolist() == [k for k, w in enumerate(input_weights) if w >= threshold]
            seen_components |= {components for _, _, components in report}
    assert seen_components == {0, 1}


def test_face_budget_counts_faces():
    # the full simplex on 21 vertices has 2^21 - 1 faces: the graph lists them
    # all and is refused, Betti numbers list none
    flags = np.ones(1 << 21, dtype=bool)
    flags[0] = False
    simplex = DowkerComplex(21, tuple(map(str, range(21))), flags, np.zeros(1 << 21, np.int64))
    message = "complex exceeds the 1000000-face budget"
    with pytest.raises(CapacityError, match=message):
        build_graph(simplex)
    assert betti_numbers(simplex, 1) == (1, 0)
    cpx = build_complex(relation_from_masks([(1 << 20) - 1], m=20))
    with pytest.raises(CapacityError, match=message):
        build_graph(cpx)


def test_graph_arrays_are_read_only_and_in_dot_order(toy_relation):
    graph = build_graph(build_complex(toy_relation))
    pairs = list(zip(graph.tails.tolist(), graph.heads.tolist()))
    assert pairs == sorted(pairs, key=lambda e: (bin(e[0]).count("1"), e[0], e[1]))
    assert len(pairs) == len(graph.consistent) == 13
    for array in (graph.faces, graph.tails, graph.heads, graph.consistent):
        with pytest.raises(ValueError):
            array[0] = 0
    assert graph.consistent.dtype == np.bool_
