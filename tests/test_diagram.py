import json

import numpy as np
import pytest

from tdt.diagram import (
    build_diagram,
    deficient_regions,
    diagram_report,
    is_consistent,
    project_diagram,
)
from tdt.errors import CapacityError
from tdt.relation import mask_from_names, restrict_programs

from conftest import GRADED_COUNTS, relation_from_masks, relation_from_rows

A, B, C, D = 1, 2, 4, 8


def test_build_diagram_trio(trio_relation):
    weights = build_diagram(trio_relation)
    assert tuple(weights) == (1, 2, 3, 1, 2, 3, 1, 1)
    assert weights.sum() == 14


def test_build_diagram_toy(toy_relation):
    weights = build_diagram(toy_relation)
    expected = {
        A: 1, B: 2, C: 2, D: 1,
        A | B: 3, A | C: 1, A | D: 2, B | C: 1, C | D: 3,
        A | C | D: 4,
    }
    for mask in range(16):
        assert weights[mask] == expected.get(mask, 0)


def test_build_diagram_all_ones():
    rel = relation_from_rows(("11111111", "11111111", "11111111"))
    weights = build_diagram(rel)
    assert weights[7] == 8
    assert sum(weights) == 8


def test_build_diagram_capacity():
    rel = relation_from_masks([0], m=25)
    with pytest.raises(CapacityError):
        build_diagram(rel)


def test_deficient_regions_trio(trio_relation):
    assert deficient_regions(build_diagram(trio_relation), 3) == {A | B, B | C, A | B | C}


def test_deficient_regions_monotone_weights():
    weights = np.array((0, 1, 1, 2, 1, 2, 2, 3), dtype=np.int64)
    assert deficient_regions(weights, 3) == set()


def test_deficient_regions_graded(graded_relation):
    weights = build_diagram(graded_relation)
    assert deficient_regions(weights, 3) == set()
    assert is_consistent(weights, 3)


def test_is_consistent_trio_variants(trio_relation):
    assert not is_consistent(build_diagram(trio_relation), 3)
    only_a = restrict_programs(trio_relation, mask_from_names(trio_relation, ["A"]))
    weights = build_diagram(only_a)
    assert tuple(weights) == (7, 7)
    assert is_consistent(weights, 1)
    only_b = restrict_programs(trio_relation, mask_from_names(trio_relation, ["B"]))
    assert tuple(build_diagram(only_b)) == (8, 6)
    assert not is_consistent(build_diagram(only_b), 1)


def test_equal_weights_count_as_consistent():
    assert is_consistent(np.array((7, 7), dtype=np.int64), 1)


def test_project_diagram_matches_restriction(toy_relation):
    keep = A | C | D
    projected = project_diagram(build_diagram(toy_relation), 4, keep)
    direct = build_diagram(restrict_programs(toy_relation, keep))
    assert np.array_equal(projected, direct)


def test_diagram_report_trio(trio_relation):
    report = json.loads(diagram_report(trio_relation))
    assert report["consistent"] is False
    assert sorted(report["deficient"]) == ["A,B", "A,B,C", "B,C"]
    assert report["weights"][""] == 1
    assert report["weights"]["A,C"] == 3
    assert sum(report["weights"].values()) == 14


def test_weights_partition_corpus(toy_relation, graded_relation):
    assert sum(build_diagram(toy_relation)) == toy_relation.n
    assert sum(build_diagram(graded_relation)) == 1000
    assert dict(enumerate(build_diagram(graded_relation))) == {
        mask: GRADED_COUNTS.get(mask, 0) for mask in range(8)
    }
