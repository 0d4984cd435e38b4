"""The vectorised power-set kernel against the brute-force oracles at m = 6..8,
and the projection and the pairs-mode scores at every m from 1 (pairs mode
against the per-pair loop at m = 9..11).

The acceptance suites stop at m <= 5; these seed-pinned instances cover the
program counts where every subset transform runs several passes over
non-trivial strides.
"""

import random

import numpy as np
import pytest

from tdt.diagram import build_diagram, deficient_regions, is_consistent, project_diagram
from tdt.distill import inconsistency_scores
from tdt.dowker import build_complex, build_graph, consistent_core, inconsistent_inputs

from conftest import relation_from_masks
import oracles

INSTANCES_PER_M = 40


def _instances(m, seed, count=INSTANCES_PER_M):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        # a biased draw gives both consistent and inconsistent diagrams
        density = rng.choice((0.3, 0.6, 0.9))
        masks = [
            sum(1 << j for j in range(m) if rng.random() < density) for _ in range(n)
        ]
        rel = relation_from_masks(masks, m=m)
        rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
        yield rng, rel, rows


@pytest.mark.parametrize("m", [6, 7, 8])
def test_kernel_matches_oracles(m):
    verdicts = set()
    for rng, rel, rows in _instances(m, seed=800 + m):
        diag = build_diagram(rel)
        weights = oracles.region_weights(rows)
        assert diag.tolist() == [weights[mask] for mask in range(1 << m)]

        consistent = oracles.consistent_by_covers(weights, m)
        assert is_consistent(diag, m) == consistent
        assert deficient_regions(diag, m) == oracles.deficient_by_covers(weights, m)
        verdicts.add(consistent)

        assert consistent_core(build_graph(build_complex(rel))) == oracles.core_faces(rows)
        assert inconsistent_inputs(rel) == oracles.inconsistent_input_indices(rows)

        min_size = rng.randint(2, m)
        assert inconsistency_scores(rel, min_size)[0].tolist() == oracles.sweep_scores(
            rows, min_size
        )

        sigma = rng.randrange(1, 1 << m)
        kept = [j for j in range(m) if sigma >> j & 1]
        expected = oracles.region_weights(oracles.restrict_rows(rows, kept))
        assert project_diagram(diag, m, sigma).tolist() == [
            expected[z] for z in range(1 << len(kept))
        ]
    assert verdicts == {True, False}


@pytest.mark.parametrize("m", range(1, 11))
def test_projection_matches_per_mask_oracle(m):
    rng = np.random.default_rng(1000 + m)
    weights = rng.integers(0, 6, size=1 << m) * (rng.random(1 << m) < 0.7)
    for sigma in range(1, 1 << m):
        projected = project_diagram(weights, m, sigma)
        assert len(projected) == 1 << bin(sigma).count("1")
        assert projected.tolist() == oracles.project_weights(weights.tolist(), sigma)


@pytest.mark.parametrize("m", range(1, 9))
def test_pair_scores_match_per_pair_oracle(m):
    blamed = 0
    for _, rel, rows in _instances(m, seed=850 + m, count=8):
        for min_size in sorted({1, 2, max(1, m - 1), m, m + 1}):
            scores, _ = inconsistency_scores(rel, min_size, mode="pairs")
            assert scores.tolist() == oracles.pair_scores(rows, min_size)
            blamed += scores.sum()
    assert blamed > 0


@pytest.mark.parametrize("m", [9, 10, 11])
def test_pair_scores_match_per_pair_loop(m):
    """Past m = 8 the per-pair loop over submasks is the referee."""
    blamed = 0
    for _, rel, rows in _instances(m, seed=870 + m, count=4):
        for min_size in (2, m - 1, m):
            scores, _ = inconsistency_scores(rel, min_size, mode="pairs")
            assert scores.tolist() == oracles.pair_scores_by_blame(rows, min_size)
            blamed += scores.sum()
    assert blamed > 0


def test_weights_are_read_only_int64(trio_relation):
    weights = build_diagram(trio_relation)
    assert weights.dtype == np.int64
    with pytest.raises(ValueError):
        weights[0] = 5
    assert np.array_equal(weights, (1, 2, 3, 1, 2, 3, 1, 1))
    assert not np.array_equal(weights, (1, 2, 3, 1, 2, 3, 1, 2))
