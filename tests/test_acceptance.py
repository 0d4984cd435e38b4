"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see one line per
criterion.  The randomized suites are seed-pinned and instance counts are
exact, so reruns are bit-identical.
"""

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from tdt.classify import evaluate
from tdt.cli import main
from tdt.diagram import build_diagram, deficient_regions, is_consistent
from tdt.distill import distill, inconsistency_scores, select_inputs, singleton_screen
from tdt.dowker import (
    betti_numbers,
    build_complex,
    build_graph,
    consistent_core,
    inconsistent_inputs,
)
from tdt.errors import EmptyScreenError
from tdt.relation import load_relation, restrict_programs
from tdt.sheaf import display_vector

from conftest import TRIO_ROWS, dual_complex, relation_from_masks
import oracles

DATA = Path(__file__).parent / "data"
A, B, C, D = 1, 2, 4, 8

_suite_seconds: dict[str, float] = {}


def _passed(label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{label} took {elapsed:.2f}s (budget {budget}s)"
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_toy_fixture(toy_relation):
    started = time.perf_counter()
    diag = build_diagram(toy_relation)
    expected = {
        A: 1, B: 2, C: 2, D: 1,
        A | B: 3, A | C: 1, A | D: 2, B | C: 1, C | D: 3, A | C | D: 4,
    }
    for mask in range(16):
        assert diag[mask] == expected.get(mask, 0)
    graph = build_graph(build_complex(toy_relation))
    inconsistent = ~graph.consistent
    red = set(zip(graph.tails[inconsistent].tolist(), graph.heads[inconsistent].tolist()))
    assert red == {(A | C, C), (B | C, B), (B | C, C)}
    core = consistent_core(graph)
    assert core == {A, B, C, D, A | B, A | D, C | D}
    flagged = {toy_relation.inputs[k] for k in inconsistent_inputs(toy_relation)}
    assert flagged == {"f10", "f13", "f17", "f18", "f19", "f20"}
    _passed("criterion 1 (toy weights/edges/core/inconsistent files)", started, 1.0)


def test_criterion_2_three_parser_fixture(trio_relation):
    started = time.perf_counter()
    diag = build_diagram(trio_relation)
    assert tuple(diag) == (1, 2, 3, 1, 2, 3, 1, 1)
    assert deficient_regions(diag, 3) == {A | B, B | C, A | B | C}
    screened, removed = singleton_screen(trio_relation)
    assert removed == ["B"]
    assert screened.programs == ("A", "C")
    pair = build_diagram(screened)
    assert tuple(pair) == (4, 3, 3, 4)
    assert deficient_regions(pair, 2) == {0b01, 0b10}
    distilled, trace = distill(trio_relation)
    assert distilled.programs in (("A",), ("C",))
    assert trace["final"] == list(distilled.programs)
    final = build_diagram(distilled)
    assert tuple(final) == (7, 7)
    assert is_consistent(final, 1)
    _passed("criterion 2 (3x14 screen/deficiency/distill)", started, 1.0)


def test_criterion_3_graded_fixture(graded_relation):
    started = time.perf_counter()
    kept20, _ = select_inputs(graded_relation, 20)
    assert graded_relation.n - len(kept20) == 10
    kept900, _ = select_inputs(graded_relation, 900)
    assert graded_relation.n - len(kept900) == 100
    assert display_vector(graded_relation, A) == (2, 20, 30, 900)
    assert display_vector(graded_relation, A | B) == (2, 3, 30, 40, 20, 900)
    assert display_vector(graded_relation, A | B | C) == (2, 3, 4, 20, 30, 40, 900)
    _passed("criterion 3 (graded selection/display vectors)", started, 1.0)


def test_criterion_4_toy_homology(toy_relation):
    started = time.perf_counter()
    cpx = build_complex(toy_relation)
    betti = betti_numbers(cpx, 1)
    assert betti == (1, 1)
    # Euler-characteristic oracle over the materialized face set
    faces = set(np.flatnonzero(cpx.face_flags).tolist())
    euler = oracles.euler_characteristic(faces)
    full = betti_numbers(cpx, 2)
    assert euler == sum((-1) ** d * b for d, b in enumerate(full))
    _passed("criterion 4 (toy Betti numbers over GF(2))", started, 1.0)


# --- criterion 5: randomized suites, >= 500 seed-pinned instances each -------


def _random_relation(rng, max_m=5, max_n=40, min_m=1, min_n=0):
    m = rng.randint(min_m, max_m)
    n = rng.randint(min_n, max_n)
    masks = [rng.randrange(0, 1 << m) for _ in range(n)]
    return relation_from_masks(masks, m=m)


def _rows_of(rel):
    return ["".join("1" if v else "0" for v in row) for row in rel.accepts]


def _timed_suite(name):
    class Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                _suite_seconds[name] = time.perf_counter() - self.start
                print(f"[acceptance] criterion 5{name}: PASS "
                      f"({_suite_seconds[name]:.2f}s, 500 instances)")
            return False

    return Timer()


def test_criterion_5a_filtration_lemma_equivalence():
    rng = random.Random(501)
    verdicts = set()
    with _timed_suite("a (filtration-lemma equivalence)"):
        for _ in range(500):
            rel = _random_relation(rng)
            diag = build_diagram(rel)
            weights = dict(enumerate(diag))
            via_covers = oracles.consistent_by_covers(weights, rel.m)
            via_pairs = oracles.consistent_by_subset_pairs(weights, rel.m)
            assert is_consistent(diag, rel.m) == via_covers == via_pairs
            verdicts.add(via_covers)
    assert verdicts == {True, False}  # both branches exercised


def test_criterion_5b_subdiagram_lemma():
    rng = random.Random(502)
    exercised = 0
    with _timed_suite("b (subdiagram lemma)"):
        for _ in range(500):
            rel = _random_relation(rng, min_n=1)
            if not is_consistent(build_diagram(rel), rel.m):
                try:
                    rel = distill(rel)[0]
                except EmptyScreenError:
                    continue
            assert is_consistent(build_diagram(rel), rel.m)
            if rel.m < 2:
                continue
            exercised += 1
            for j in range(rel.m):
                keep = ((1 << rel.m) - 1) & ~(1 << j)
                sub = restrict_programs(rel, keep)
                assert is_consistent(build_diagram(sub), sub.m)
    assert exercised >= 100


def test_criterion_5c_removal_additivity():
    rng = random.Random(503)
    with _timed_suite("c (one-program-removal additivity)"):
        for _ in range(500):
            rel = _random_relation(rng, min_m=2)
            diag = build_diagram(rel)
            j = rng.randrange(rel.m)
            keep = ((1 << rel.m) - 1) & ~(1 << j)
            sub = build_diagram(restrict_programs(rel, keep))
            kept_bits = [t for t in range(rel.m) if t != j]
            for small_mask in range(1 << (rel.m - 1)):
                big = sum(1 << kept_bits[t] for t in range(rel.m - 1) if small_mask >> t & 1)
                assert sub[small_mask] == diag[big] + diag[big | (1 << j)]


def test_criterion_5d_duality_component_counts():
    rng = random.Random(504)
    with _timed_suite("d (duality at H0)"):
        for _ in range(500):
            # n <= 24 keeps the dual's face flags (2^vertices) small
            rel = _random_relation(rng, max_n=24)
            primal = betti_numbers(build_complex(rel), 0)[0]  # components of the 1-skeleton
            dual = betti_numbers(dual_complex(rel), 0)[0]
            assert primal == dual
            assert primal == oracles.bipartite_components(_rows_of(rel))


def test_criterion_5e_scores_match_bruteforce():
    rng = random.Random(505)
    with _timed_suite("e (score sweep vs brute force)"):
        for _ in range(500):
            rel = _random_relation(rng, max_m=4, max_n=12)
            assert inconsistency_scores(rel)[0].tolist() == oracles.sweep_scores(
                _rows_of(rel), 2
            )


def test_criterion_5f_distill_terminates_consistent():
    rng = random.Random(506)
    with _timed_suite("f (distill terminates consistent)"):
        for _ in range(500):
            rel = _random_relation(rng, min_n=1)
            try:
                final, trace = distill(rel)
            except EmptyScreenError:
                accepted = rel.accepts.sum(axis=1)
                assert all(2 * a < rel.n for a in accepted)
                continue
            assert is_consistent(build_diagram(final), final.m)
            assert len(trace["steps"]) <= rel.m
            removed = len(trace["screened"]) + len(trace["steps"])
            assert final.m + removed == rel.m


def test_criterion_5_total_time_budget():
    assert len(_suite_seconds) == 6, "run the full acceptance module in order"
    total = sum(_suite_seconds.values())
    assert total < 60, f"randomized suites took {total:.1f}s"
    print(f"[acceptance] criterion 5 total: PASS ({total:.2f}s over 6 suites)")


def test_criterion_6_harness_end_to_end(tmp_path):
    started = time.perf_counter()
    golden_path = DATA / "relation_3x14.golden.json"
    golden = load_relation(golden_path)
    # the golden file is pinned to the published 3x14 matrix, not to the code
    assert _rows_of(golden) == list(TRIO_ROWS)
    stub = DATA / "stubs" / "pattern_parser.py"
    for parallelism in (1, 8):
        cfg = {
            "parsers": [
                {"name": name, "command": f"{sys.executable} {stub} {pattern} {{input}}"}
                for name, pattern in zip("ABC", TRIO_ROWS)
            ],
            "corpus": str(DATA / "corpus14"),
            "glob": "f*",
            "timeout_secs": 20,
            "parallelism": parallelism,
        }
        cfg_path = tmp_path / f"run{parallelism}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"rel{parallelism}.json"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.read_bytes() == golden_path.read_bytes()
    _passed("criterion 6 (harness reproduces the golden relation)", started, 10.0)


def test_criterion_7_classifier_formulas():
    started = time.perf_counter()
    compliant = np.arange(12) == 0
    report = evaluate(np.ones(12, dtype=bool), compliant)  # TP=11, FP=1, FN=0
    assert report["precision"] == Fraction(11, 12)
    assert report["recall"] == Fraction(1)
    assert report["f1"] == Fraction(22, 23)
    p, r, f1 = (float(report["precision"]), float(report["recall"]), float(report["f1"]))
    assert abs(f1 - 2 * p * r / (p + r)) < 1e-12
    empty = evaluate(np.zeros(12, dtype=bool), compliant)
    assert empty["precision"] is None and empty["recall"] == 0
    _passed("criterion 7 (exact classifier metrics)", started, 1.0)


def test_criterion_8_corpus_scale_formats_declared(toy_relation, capsys):
    # Corpus-scale results (real parser acceptance tables, score histograms,
    # adjudicated benchmark metrics) need external corpora and tools; here we
    # pin the report formats those reruns would flow through.
    from tdt.distill import histogram_csv, scores_csv
    from tdt.relation import restrict_inputs

    started = time.perf_counter()
    scores, _ = inconsistency_scores(toy_relation)
    assert scores_csv(toy_relation.inputs, scores).splitlines()[0] == "input_id,score"
    assert histogram_csv(scores).splitlines()[0] == "score,count"
    kept = np.flatnonzero(scores < 3)
    restricted = restrict_inputs(toy_relation, kept)
    assert restricted.programs == toy_relation.programs
    print("[acceptance] criterion 8: corpus-scale figures declared not desk-"
          "reproducible; report formats verified")
    _passed("criterion 8 (corpus-scale report formats)", started, 1.0)
