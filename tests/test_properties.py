"""Property tests for the structural invariants, driven by hypothesis."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdt.cli import main
from tdt.diagram import build_diagram, deficient_regions, is_consistent, project_diagram
from tdt.distill import distill, inconsistency_scores, select_inputs
from tdt.dowker import (
    betti_numbers,
    build_complex,
    build_graph,
    consistent_core,
    inconsistent_inputs,
)
from tdt.errors import EmptyScreenError
from tdt.features import attribute_features, variation_of_information
from tdt.relation import (
    Relation,
    column_masks,
    load_feature_relation,
    load_relation,
    restrict_programs,
    save_relation,
)
from tdt.sheaf import stalk_json

from conftest import dual_complex, relation_from_masks, stalk
from oracles import masks_from_rows, restrict_stalk, skeleton_components

COMMON = settings(max_examples=60, deadline=None, derandomize=True)


# ids with the characters a CSV writer must quote, and non-ASCII letters
AWKWARD_IDS = st.text(st.sampled_from(',"\r\n') | st.characters(categories=("L",)),
                      min_size=1, max_size=4)


@st.composite
def relations(draw, max_m=5, max_n=30, min_n=0, min_m=1, names=None):
    """A relation; with a ``names`` strategy, its program and input ids are drawn from it."""
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    masks = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
    rel = relation_from_masks(masks, m=m)
    if names is not None:
        programs = draw(st.lists(names, min_size=m, max_size=m, unique=True))
        inputs = draw(st.lists(names, min_size=n, max_size=n, unique=True))
        rel = Relation(tuple(programs), tuple(inputs), rel.accepts)
    return rel


@st.composite
def labelings(draw, n, max_label=3):
    return draw(st.lists(st.integers(0, max_label), min_size=n, max_size=n))


def blocks_of(labels):
    out = {}
    for i, label in enumerate(labels):
        out.setdefault(label, set()).add(i)
    return list(out.values())


@COMMON
@given(relations() | relations(names=AWKWARD_IDS))
def test_round_trip_json(tmp_path_factory, rel):
    path = tmp_path_factory.mktemp("rt") / "rel.json"
    save_relation(rel, path)
    assert load_relation(path) == rel


@COMMON
@given(relations() | relations(names=AWKWARD_IDS))
def test_round_trip_csv(tmp_path_factory, rel):
    path = tmp_path_factory.mktemp("rt") / "rel.csv"
    save_relation(rel, path)
    assert load_relation(path) == rel


# Two stub parsers: the first echoes its file to stderr, where the keywords are
# matched, so it accepts only an empty file; the second accepts a file holding "x".
ECHO, GREP = """sh -c 'cat "$0" >&2' {input}""", "grep -q x {input}"


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(AWKWARD_IDS, min_size=1, max_size=3, unique=True),
       st.lists(AWKWARD_IDS, min_size=2, max_size=2, unique=True),
       st.lists(AWKWARD_IDS, min_size=1, max_size=2, unique=True), st.data())
def test_run_outputs_round_trip_awkward_ids(tmp_path_factory, files, parsers, keywords, data):
    """Input ids (file names), parser names and keywords with awkward characters:
    ``run --out x.csv`` loads as the JSON run's relation, and ``--keywords-out``
    as its feature relation."""
    tmp = tmp_path_factory.mktemp("run")
    corpus = tmp / "corpus"
    corpus.mkdir()
    texts = {}
    for name in files:
        texts[name] = data.draw(st.lists(st.sampled_from(["x", "é", *keywords]), max_size=3)
                                .map("".join))
        (corpus / name).write_bytes(texts[name].encode())
    config = tmp / "run.json"
    config.write_text(json.dumps({
        "parsers": [{"name": parsers[0], "command": ECHO, "keywords": keywords},
                    {"name": parsers[1], "command": GREP, "policy": "exit-zero"}],
        "corpus": str(corpus), "parallelism": 1}))
    for out in ("rel.json", "rel.csv"):
        assert main(["run", "--config", str(config), "--out", str(tmp / out),
                     "--keywords-out", str(tmp / "kw.csv")]) == 0
    rel = load_relation(tmp / "rel.json")
    assert load_relation(tmp / "rel.csv") == rel
    inputs = sorted(files)
    assert (rel.programs, rel.inputs) == (tuple(parsers), tuple(inputs))
    assert rel.accepts.tolist() == [[not texts[f] for f in inputs],
                                     ["x" in texts[f] for f in inputs]]
    features, has_feature = load_feature_relation(tmp / "kw.csv", rel)
    assert features == tuple(f"{parsers[0]}:{kw}" for kw in keywords)
    assert has_feature.tolist() == [[kw in texts[f] for kw in keywords] for f in inputs]


@COMMON
@given(relations(min_m=2), st.data())
def test_restrict_composes_as_mask_intersection(rel, data):
    outer = data.draw(st.integers(1, (1 << rel.m) - 1))
    kept = [j for j in range(rel.m) if outer >> j & 1]
    inner_rel = data.draw(st.integers(1, (1 << len(kept)) - 1))
    once = restrict_programs(restrict_programs(rel, outer), inner_rel)
    combined = 0
    for t, j in enumerate(kept):
        if inner_rel >> t & 1:
            combined |= 1 << j
    assert once == restrict_programs(rel, combined)


@COMMON
@given(relations(min_n=1))
def test_column_masks_match_column_sums(rel):
    masks = column_masks(rel).tolist()
    rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
    assert masks == masks_from_rows(rows)
    for k, mask in enumerate(masks):
        assert bin(mask).count("1") == int(rel.accepts[:, k].sum())


@COMMON
@given(relations())
def test_diagram_partitions_corpus(rel):
    assert sum(build_diagram(rel)) == rel.n


@COMMON
@given(relations())
def test_complex_faces_downward_closed(rel):
    faces = set(np.flatnonzero(build_complex(rel).face_flags).tolist())
    for face in faces:
        for j in range(rel.m):
            sub = face & ~(1 << j)
            if sub:
                assert sub in faces


@COMMON
@given(relations())
def test_core_downward_closed(rel):
    core = consistent_core(build_graph(build_complex(rel)))
    for face in core:
        for j in range(rel.m):
            sub = face & ~(1 << j)
            if sub:
                assert sub in core


@COMMON
@given(relations())
def test_inconsistent_inputs_partition_inputs(rel):
    core = consistent_core(build_graph(build_complex(rel)))
    flagged = inconsistent_inputs(rel)
    for k, mask in enumerate(column_masks(rel)):
        states = (k in flagged, mask != 0 and mask in core, mask == 0)
        assert sum(states) == 1


@COMMON
@given(relations(max_m=4, max_n=16))
def test_euler_characteristic_equals_alternating_betti_sum(rel):
    cpx = build_complex(rel)
    faces = np.flatnonzero(cpx.face_flags).tolist()
    top = max((bin(f).count("1") for f in faces), default=1)
    betti = betti_numbers(cpx, top)
    euler_faces = sum((-1) ** (bin(f).count("1") - 1) for f in faces)
    euler_betti = sum((-1) ** d * b for d, b in enumerate(betti))
    assert euler_faces == euler_betti


@COMMON
@given(relations())
def test_betti0_equals_component_count(rel):
    rows = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
    assert betti_numbers(build_complex(rel), 0) == (len(skeleton_components(rows)),)


@COMMON
@given(relations(max_m=6, max_n=14))
def test_dowker_duality_keeps_betti_numbers(rel):
    # the complex and its dual (inputs as vertices) are homotopy equivalent (Dowker 1952)
    assert betti_numbers(build_complex(rel), 3) == betti_numbers(dual_complex(rel), 3)


@COMMON
@given(relations(max_m=5, max_n=16))
def test_coarsening_identity(rel):
    diag = build_diagram(rel)
    for sigma in range(1, 1 << rel.m):
        for j in range(rel.m):
            sub = sigma & ~(1 << j)
            if sub and sub != sigma:
                merged = restrict_stalk(stalk(diag, rel.m, sigma), sigma, sub)
                assert merged == stalk(diag, rel.m, sub)


@COMMON
@given(relations())
def test_consistency_at_full_simplex_matches_diagram(rel):
    full = (1 << rel.m) - 1
    consistent = is_consistent(build_diagram(rel), rel.m)
    assert json.loads(stalk_json(rel, full))["consistent"] == consistent


@COMMON
@given(relations(max_m=4, max_n=12), st.data())
def test_strict_product_implies_plain(rel, data):
    p = data.draw(st.integers(1, 4))
    bits = data.draw(
        st.lists(st.booleans(), min_size=rel.n * p, max_size=rel.n * p)
    )
    has = np.array(bits, dtype=bool).reshape(rel.n, p)
    for mask in range(1, 1 << rel.m):  # the product at a subset is level 0 of its restriction
        sub = restrict_programs(rel, mask)
        plain, _ = attribute_features(sub, has, max_removed=0)
        strict, _ = attribute_features(sub, has, max_removed=0, strict=True)
        assert not (strict & ~plain).any()


@COMMON
@given(st.integers(1, 10), st.data())
def test_vi_is_a_metric(n, data):
    a = blocks_of(data.draw(labelings(n)))
    b = blocks_of(data.draw(labelings(n)))
    c = blocks_of(data.draw(labelings(n)))
    ab = variation_of_information(a, b)
    assert ab == pytest.approx(variation_of_information(b, a))
    assert variation_of_information(a, a) == 0.0
    assert ab >= 0
    ac = variation_of_information(a, c)
    cb = variation_of_information(c, b)
    assert ab <= ac + cb + 1e-9


@COMMON
@given(relations(max_m=4, max_n=20, min_n=1), st.data())
def test_scores_invariant_under_relabeling(rel, data):
    base, _ = inconsistency_scores(rel)
    # permuting input columns permutes scores the same way
    perm = data.draw(st.permutations(range(rel.n)))
    permuted = relation_from_masks(
        [column_masks(rel)[k] for k in perm], m=rel.m
    )
    assert np.array_equal(inconsistency_scores(permuted)[0], base[perm])
    # relabeling programs leaves scores untouched
    rperm = data.draw(st.permutations(range(rel.m)))
    remapped = []
    for mask in column_masks(rel):
        remapped.append(sum(((mask >> j) & 1) << t for t, j in enumerate(rperm)))
    relabeled = relation_from_masks(remapped, m=rel.m)
    assert np.array_equal(inconsistency_scores(relabeled)[0], base)


@COMMON
@given(relations(max_m=4, max_n=25, min_n=1), st.data())
def test_select_monotone_after_distill(rel, data):
    try:
        survivor, _ = distill(rel)
    except EmptyScreenError:
        return
    lo = data.draw(st.integers(0, 5))
    hi = lo + data.draw(st.integers(0, 5))
    kept_lo, _ = select_inputs(survivor, lo)
    kept_hi, _ = select_inputs(survivor, hi)
    assert set(kept_hi) <= set(kept_lo)


# Strings as tdt writes them (ids, names, reasons): any code point, lone
# surrogates and control characters included, with the ones json escapes
# drawn often.
JSON_TEXT = st.text(st.characters(exclude_categories=())
                    | st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", '"', "\\",
                                       "\n", "\u2028", "\u00e9", "\U0001f600"]))
JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: (st.lists(inner) | st.lists(JSON_TEXT) | st.tuples(inner, inner)
                   | st.dictionaries(JSON_TEXT, inner)),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(JSON_PAYLOADS)
def test_canonical_dumps_matches_json_dumps(payload):
    from tdt.util import canonical_dumps

    assert canonical_dumps(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_subdiagram_deficiency_counts_are_monitored():
    # observed, not asserted: removing a program should not create new
    # deficient regions beyond the parent diagram's count
    rng = np.random.default_rng(20250808)
    violations = []
    for _ in range(300):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 30))
        masks = [int(v) for v in rng.integers(0, 1 << m, size=n)]
        rel = relation_from_masks(masks, m=m)
        diag = build_diagram(rel)
        parent = len(deficient_regions(diag, m))
        if parent == 0:
            continue
        for j in range(m):
            keep = ((1 << m) - 1) & ~(1 << j)
            child = len(deficient_regions(project_diagram(diag, m, keep), m - 1))
            if child > parent:
                violations.append((masks, j, parent, child))
    if violations:
        warnings.warn(
            f"deficient-region count grew after removal in {len(violations)} cases; "
            f"first: {violations[0]}"
        )
    print(f"monitored subdiagram deficiency growth: {len(violations)} violations / 300 runs")
