"""In-memory span recorder, and tracing of ``tdt`` from outside the program.

A span is (name, start, end, parent).  Spans stay in memory until the run
ends; a layer's self time is its span's duration minus the time its direct
children cover.  ``traced`` swaps a fixed set of public ``tdt`` functions for
wrappers that open a span around each call, in every ``tdt`` module that
binds them, so calls between modules are attributed to the callee's layer as
well.  Nothing inside the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import dataclass

# Public function -> span name.  The span name's first part is the tdt module
# (the layer); "<span>_s" is the per-layer metric.
SPANNED = {
    ("relation", "load_relation"): "relation.load",
    ("relation", "save_relation"): "relation.save",
    ("relation", "column_masks"): "relation.column_masks",
    ("relation", "restrict_inputs"): "relation.restrict_inputs",
    ("relation", "restrict_programs"): "relation.restrict_programs",
    ("diagram", "build_diagram"): "diagram.build",
    ("diagram", "deficient_regions"): "diagram.deficient_regions",
    ("diagram", "is_consistent"): "diagram.is_consistent",
    ("diagram", "diagram_report"): "diagram.report",
    ("dowker", "build_complex"): "dowker.build_complex",
    ("dowker", "build_graph"): "dowker.build_graph",
    ("dowker", "consistent_core"): "dowker.consistent_core",
    ("dowker", "inconsistent_inputs"): "dowker.inconsistent_inputs",
    ("dowker", "betti_numbers"): "dowker.betti",
    ("dowker", "graph_dot"): "dowker.graph_dot",
    ("distill", "distill"): "distill.distill",
    ("distill", "inconsistency_scores"): "distill.scores",
    ("distill", "select_inputs"): "distill.select",
    ("sheaf", "stalk_json"): "sheaf.stalk_json",
    ("sheaf", "display_vector"): "sheaf.display_vector",
    ("features", "attribute_features"): "features.attribute",
    ("features", "greedy_feature_pruning"): "features.prune",
    ("classify", "vote_classifier"): "classify.vote",
    ("classify", "load_ground_truth"): "classify.load_truth",
    ("classify", "evaluate"): "classify.evaluate",
    ("harness", "run_corpus"): "harness.run_corpus",
    ("harness", "results_jsonl"): "harness.results_jsonl",
    ("harness", "keyword_table"): "harness.keyword_table",
}


@dataclass
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int | None  # index into Recorder.spans


class Recorder:
    """Collects spans opened on the thread that created it; other threads pass through."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name: str):
        if threading.get_ident() != self._thread:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per span name, summed over every span of that name."""
    children = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, covered in zip(spans, children):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - covered) / 1e9
    return out


def counts(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    return out


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Route every binding of the SPANNED functions in loaded tdt modules through spans."""
    originals = {}
    for (module, attr), name in SPANNED.items():
        fn = getattr(sys.modules[f"tdt.{module}"], attr)
        originals[id(fn)] = (fn, recorder.wrap(name, fn))
    patched = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "tdt" or modname.startswith("tdt.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
