"""Self-test of the benchmark: span arithmetic, smoke runs, emitted metrics.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_a_hand_built_tree():
    # root [0, 100] holds a [10, 40] (which holds a1 [15, 25]) and b [50, 90];
    # a second "a" [95, 99] sits under root too.
    tree = [
        spans.Span("root", 0, 100, None),
        spans.Span("a", 10, 40, 0),
        spans.Span("a1", 15, 25, 1),
        spans.Span("b", 50, 90, 0),
        spans.Span("a", 95, 99, 0),
    ]
    selfs = {k: round(v * 1e9) for k, v in spans.self_times(tree).items()}
    assert selfs == {"root": 100 - 30 - 40 - 4, "a": 20 + 4, "a1": 10, "b": 40}
    assert sum(selfs.values()) == 100
    assert spans.counts(tree) == {"root": 1, "a": 2, "a1": 1, "b": 1}


def test_recorder_links_parents_and_ignores_other_threads():
    rec = spans.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            worker = threading.Thread(target=lambda: rec.wrap("elsewhere", lambda: None)())
            worker.start()
            worker.join(timeout=10)
        with rec.span("inner"):
            pass
    assert not worker.is_alive()
    assert [(s.name, s.parent) for s in rec.spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    assert all(s.end >= s.start for s in rec.spans)


def test_traced_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    import tdt.cli
    import tdt.diagram
    import tdt.relation

    original = tdt.relation.column_masks
    rec = spans.Recorder()
    with spans.traced(rec):
        assert tdt.diagram.column_masks is not original
        assert tdt.cli.load_relation is tdt.relation.load_relation
        assert hasattr(tdt.cli.load_relation, "__wrapped__")
        rel = tdt.relation.Relation(("A", "B"), ("x", "y"), [[1, 0], [1, 1]])
        tdt.diagram.build_diagram(rel)
    assert tdt.relation.column_masks is original and tdt.diagram.column_masks is original
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("diagram.build", None), ("relation.column_masks", 0)]


def run_bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    stdout, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in emitted.items()}
    for name, value in emitted.items():
        assert isinstance(value["value"], (int, float)), name
    if trace:
        assert emitted["harness.leaked_processes"]["value"] == 0
        planted = 1 if workload == "corpus-run" else 0
        assert emitted["harness.timeouts"]["value"] == planted
    else:
        assert all(value["value"] > 0 for value in emitted.values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tall", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
