"""Betti numbers through the Morse boundary between critical cells, past the
m <= 10 suites: against the boundary-matrix rank oracle at m = 11..12, and
invariant under permuting the programs and under Dowker duality at m = 11..20.
"""

import random

import numpy as np
import pytest

from tdt.dowker import betti_numbers, build_complex
from tdt.errors import ValidationError
from tdt.relation import MAX_PROGRAMS, Relation

from conftest import dual_complex, relation_from_masks
import oracles


@pytest.mark.parametrize("m", [11, 12])
def test_betti_numbers_match_the_rank_oracle(m, morse_row_calls):
    rng = random.Random(1600 + m)
    for _ in range(40):
        density = rng.choice((0.1, 0.2, 0.3, 0.5, 0.7, 0.9))
        masks = [
            sum(1 << j for j in range(m) if rng.random() < density)
            for _ in range(rng.randint(1, 14))
        ]
        rel = relation_from_masks(masks, m=m)
        for cpx in (build_complex(rel), dual_complex(rel)):
            max_dim = min(cpx.width, 6)
            assert betti_numbers(cpx, max_dim) == oracles.rank_betti_numbers(
                cpx.face_flags, cpx.width, max_dim
            )
    assert morse_row_calls


@pytest.mark.parametrize("m", range(11, 21))
def test_betti_numbers_survive_program_permutation_and_duality(m):
    # 20 inputs, so the dual complex stays within the 24-vertex cap
    rng = np.random.default_rng(m)
    rel = Relation(
        programs=tuple(f"p{j}" for j in range(m)),
        inputs=tuple(f"i{k}" for k in range(20)),
        accepts=rng.random((m, 20)) < 0.6,
    )
    betti = betti_numbers(build_complex(rel), m)
    assert betti_numbers(dual_complex(rel), m) == betti
    for _ in range(3):  # each order of the programs matches different cells
        order = rng.permutation(m)
        permuted = Relation(programs=tuple(rel.programs[j] for j in order), inputs=rel.inputs,
                            accepts=rel.accepts[order])
        assert betti_numbers(build_complex(permuted), m) == betti


@pytest.mark.parametrize("facets, betti", [
    ([0b1, 0b1110, 0b10010, 0b10100, 0b11000], (2, 2, 0)),
    ([0b1, 0b110, 0b1100, 0b100010, 0b111000], (2, 1, 0)),
])
def test_gradient_paths_count_mod_2(facets, betti):
    # an even number of gradient paths between two critical cells cancels: once
    # where paths meet on the way, once where they meet at the end
    m = max(facets).bit_length()
    cpx = build_complex(relation_from_masks(facets, m=m))
    assert betti_numbers(cpx, 2) == betti == oracles.rank_betti_numbers(cpx.face_flags, m, 2)


def test_betti_numbers_reject_a_negative_max_dim():
    cpx = build_complex(relation_from_masks([0b011, 0b110], m=3))
    with pytest.raises(ValidationError, match=r"^max_dim must be >= 0$"):
        betti_numbers(cpx, -1)


def test_betti_numbers_stop_at_the_top_of_the_complex():
    # no face has more than width programs, so past the width every Betti number is 0;
    # a max_dim past the program cap is refused rather than padded
    cpx = build_complex(relation_from_masks([0b011, 0b110], m=3))
    assert betti_numbers(cpx, MAX_PROGRAMS) == betti_numbers(cpx, 2) + (0,) * 22
    assert betti_numbers(cpx, MAX_PROGRAMS) == oracles.rank_betti_numbers(
        cpx.face_flags, 3, MAX_PROGRAMS)
    with pytest.raises(ValidationError, match=r"^max_dim must be <= 24$"):
        betti_numbers(cpx, MAX_PROGRAMS + 1)
