"""Element-matching Betti numbers, the bulk DOT edge lines and the bulk weights
report against the per-face code they replaced, at m = 1..10.

The seed-pinned relations include an empty corpus, an all-reject matrix,
complexes whose critical cells sit in adjacent dimensions (so Betti numbers
rank the Morse boundary between them), and program names whose JSON-escaped order
differs from their raw order or that hold commas, quotes and backslashes.
"""

import random

import pytest

from tdt.diagram import diagram_report
from tdt.dowker import betti_numbers, build_complex, build_graph, graph_dot

from conftest import dual_complex, relation_from_masks
import oracles

# raw order \ < z < é, escaped order "\\" < "é" < "z"; "x,y" shares its key
# with the pair {x, y}
NAMES = ("b", "A", "é", "z", "\\", 'q"t', "x,y", "x", "y", "c10")

# how many of each m's seeded complexes (and their duals) compute a Morse boundary
FALLBACKS = {1: 0, 2: 0, 3: 0, 4: 2, 5: 2, 6: 4, 7: 5, 8: 3, 9: 4, 10: 4}


def _instances(m, seed, count=16):
    rng = random.Random(seed)
    names = tuple(rng.sample(NAMES, m))
    yield relation_from_masks([], m=m, programs=names)  # no inputs
    yield relation_from_masks([0] * rng.randint(1, 5), m=m, programs=names)  # all reject
    if m >= 2:  # a hollow simplex, and two vertices, one of them on a hollow triangle
        full = (1 << m) - 1
        yield relation_from_masks([full ^ 1 << j for j in range(m)], m=m, programs=names)
        yield relation_from_masks([1, 2], m=m, programs=names)
    if m >= 4:
        yield relation_from_masks([0b0011, 0b0110, 0b0101, 0b1000], m=m, programs=names)
    for _ in range(count):
        density = rng.choice((0.3, 0.5, 0.7, 0.9))
        masks = [
            sum(1 << j for j in range(m) if rng.random() < density)
            for _ in range(rng.randint(1, min(3 * m, 14)))
        ]
        yield relation_from_masks(masks, m=m, programs=names)


@pytest.mark.parametrize("m", range(1, 11))
def test_bulk_outputs_match_the_per_face_code(m, morse_row_calls):
    fallbacks = 0
    for rel in _instances(m, seed=1400 + m):
        cpx = build_complex(rel)
        graph = build_graph(cpx)
        assert graph_dot(graph) == oracles.fstring_graph_dot(graph)
        rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
        assert diagram_report(rel) == oracles.dict_diagram_report(
            list(rel.programs), oracles.region_weights(rows)
        )
        for complex_ in (cpx, dual_complex(rel)):
            max_dim = min(complex_.width, 4)
            before = len(morse_row_calls)
            assert betti_numbers(complex_, max_dim) == oracles.rank_betti_numbers(
                complex_.face_flags, complex_.width, max_dim
            )
            fallbacks += len(morse_row_calls) > before
    assert fallbacks == FALLBACKS[m]
