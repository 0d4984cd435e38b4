import random

import numpy as np
import pytest

from tdt.dowker import (
    betti_numbers,
    build_complex,
    build_graph,
    consistent_core,
    graph_dot,
    inconsistent_inputs,
)

from conftest import dual_complex, relation_from_masks, relation_from_rows
from oracles import euler_characteristic, inconsistent_input_indices, skeleton_components

A, B, C, D = 1, 2, 4, 8
TRIO_ABC = {A, B, C, A | B, A | C, B | C, A | B | C}


def test_build_complex_toy(toy_relation):
    cpx = build_complex(toy_relation)
    expected = {A, B, C, D, A | B, A | C, A | D, B | C, C | D, A | C | D}
    assert set(np.flatnonzero(cpx.face_flags).tolist()) == expected
    assert cpx.weights[A | C | D] == 4
    assert cpx.weights[A | C] == 1


def test_build_complex_degenerate():
    nothing = relation_from_masks([0, 0], m=3)
    assert not build_complex(nothing).face_flags.any()
    everything = relation_from_masks([7], m=3)
    assert everything.m == 3
    assert set(np.flatnonzero(build_complex(everything).face_flags).tolist()) == TRIO_ABC


def test_build_graph_toy_edge_flags(toy_relation):
    graph = build_graph(build_complex(toy_relation))
    inconsistent = ~graph.consistent
    bad = set(zip(graph.tails[inconsistent].tolist(), graph.heads[inconsistent].tolist()))
    assert bad == {(A | C, C), (B | C, B), (B | C, C)}
    assert len(graph.tails) == len(graph.heads) == 13


def test_build_graph_graded_all_consistent(graded_relation):
    graph = build_graph(build_complex(graded_relation))
    assert graph.consistent.all()


def test_build_graph_two_programs():
    # one input accepted jointly, two accepted by the first program alone
    rel = relation_from_masks([A | B, A, A], m=2)
    graph = build_graph(build_complex(rel))
    flags = dict(zip(zip(graph.tails.tolist(), graph.heads.tolist()), graph.consistent.tolist()))
    assert flags == {(A | B, A): False, (A | B, B): True}


def test_consistent_core_toy(toy_relation):
    graph = build_graph(build_complex(toy_relation))
    core = consistent_core(graph)
    assert core == {A, B, C, D, A | B, A | D, C | D}
    # closed under taking sub-faces
    for face in core:
        for j in range(4):
            sub = face & ~(1 << j)
            if sub:
                assert sub in core


def test_consistent_core_trivial_cases():
    all_good = relation_from_masks([A | B, A | B, A, B], m=2)
    graph = build_graph(build_complex(all_good))
    assert consistent_core(graph) == {A, B, A | B}
    lone = relation_from_masks([A], m=1)
    assert consistent_core(build_graph(build_complex(lone))) == {A}


def test_inconsistent_inputs_toy(toy_relation):
    assert inconsistent_inputs(toy_relation) == {9, 12, 16, 17, 18, 19}


def test_inconsistent_inputs_all_ones():
    rel = relation_from_rows(("1111", "1111"))
    assert inconsistent_inputs(rel) == set()


def test_inconsistent_inputs_trio_matches_oracle(trio_relation):
    rows = ["".join("1" if v else "0" for v in row) for row in trio_relation.accepts]
    expected = inconsistent_input_indices(rows)
    assert expected == {4, 9, 11}  # frozen from the brute-force oracle
    assert inconsistent_inputs(trio_relation) == expected


def test_inconsistent_inputs_partition(toy_relation):
    from tdt.dowker import build_complex as _bc
    from tdt.relation import column_masks

    core = consistent_core(build_graph(_bc(toy_relation)))
    flagged = inconsistent_inputs(toy_relation)
    masks = column_masks(toy_relation)
    for k, mask in enumerate(masks):
        in_core = mask != 0 and mask in core
        rejected_by_all = mask == 0
        assert (k in flagged) + in_core + rejected_by_all == 1


def test_connected_components(toy_relation):
    # beta_0 counts the components of the 1-skeleton
    assert betti_numbers(build_complex(toy_relation), 0) == (1,)
    split = relation_from_masks([A, B], m=2)
    assert betti_numbers(build_complex(split), 0) == (2,)
    empty = relation_from_masks([0], m=2)
    assert betti_numbers(build_complex(empty), 0) == (0,)


@pytest.mark.parametrize("m", range(1, 9))
def test_connected_components_match_graph_search(m):
    rng = random.Random(m)
    for _ in range(12):
        n = rng.randint(1, 12)
        density = rng.choice([0.1, 0.3, 0.6])
        rows = ["".join("1" if rng.random() < density else "0" for _ in range(n))
                for _ in range(m)]
        expected = skeleton_components(rows)
        assert betti_numbers(build_complex(relation_from_rows(rows)), 0) == (len(expected),)


def test_betti_toy(toy_relation):
    cpx = build_complex(toy_relation)
    betti = betti_numbers(cpx, 2)
    assert betti == (1, 1, 0)
    # Euler characteristic cross-check
    assert euler_characteristic(set(np.flatnonzero(cpx.face_flags).tolist())) == 1 - 1 + 0


def test_betti_degenerate():
    full = relation_from_masks([7], m=3)
    assert betti_numbers(build_complex(full), 2) == (1, 0, 0)
    two_dots = relation_from_masks([A, B], m=2)
    assert betti_numbers(build_complex(two_dots), 1) == (2, 0)


def test_betti_circle():
    # three edges, no triangle: a genuine 1-cycle
    rel = relation_from_masks([A | B, B | C, A | C], m=3)
    assert betti_numbers(build_complex(rel), 2) == (1, 1, 0)


def test_dual_complex_toy(toy_relation):
    # the complex on the ten distinct nonzero accept-sets has the toy's Betti numbers
    dual = dual_complex(toy_relation)
    assert dual.width == 10
    assert betti_numbers(dual, 2) == betti_numbers(build_complex(toy_relation), 2) == (1, 1, 0)


def test_graph_dot_toy(toy_relation):
    dot = graph_dot(build_graph(build_complex(toy_relation)))
    assert dot.count("color=red") == 3
    assert 'label="{A,C,D}; 4"' in dot
    assert 'label="{B}; 2"' in dot
    assert dot.startswith("digraph dowker {")
    # nodes listed before edges, singletons first
    assert dot.index('label="{A}; 1"') < dot.index('label="{A,B}; 3"')
