#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ``tdt`` command line.

    python3 perfbench/run.py --workload corpus-run --seed 1 --seconds 35 --trace 0

Run from a checkout of the repository: the program under test is ``src/tdt``
of that checkout, started as ``python -m tdt.cli`` child processes.  Each run
generates its inputs from the seed, measures set-up (a no-op CLI start), then
repeats the workload's CLI session until ``--seconds`` are used, checks every
output, and prints one JSON object as the last line of stdout.

``--trace 0`` measures every subcommand as a child process: the end-to-end
metrics, CPU seconds per subcommand and per session, peak RSS, set-up.
``--trace 1`` runs the same session in-process through ``tdt.cli.main``, with
spans around the public calls into each module (the per-layer metrics),
alternating with untraced in-process sessions to give the tracing overhead.
``--smoke`` shrinks every input, for the self-test in ``tests/``.

BENCHMARK.json says why each workload exists, ``SIZES`` and ``prepare`` below
give its inputs and session, and context.json records which end-to-end metric
each per-layer metric should move, the machine and the seed-commit baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COMMANDS = ("run", "analyze", "distill", "select", "score", "features", "classify", "sheaf")
SIZES = {
    "full": {
        "corpus-run": {"files": 200, "hangs": 3},
        "tall": {"m": 6, "n": 30_000, "pilot": 40},
        "wide": {"m": 12, "n": 15_000, "pilot": 40},
    },
    "smoke": {
        "corpus-run": {"files": 24, "hangs": 1},
        "tall": {"m": 6, "n": 1_500, "pilot": 6},
        "wide": {"m": 7, "n": 600, "pilot": 6},
    },
}
# A planted hang costs exactly this; a normal awk invocation takes a few ms.
PARSER_TIMEOUT_S = 1.0
PARALLELISM = 2          # the harness's worker count: nproc here
CHILD_LIMIT_S = 150      # the benchmark's own limit on one CLI child
SETUP_REPEATS = 5


# ---------------------------------------------------------------------------
# workload preparation


@dataclass(frozen=True)
class Step:
    command: str
    argv: tuple[str, ...]
    artifacts: tuple[str, ...]   # canonical output files under out/


@dataclass
class Prepared:
    steps: list[Step]
    out: Path
    relation: gen.Matrices        # the relation the analysis commands read
    run_truth: gen.Corpus         # the corpus the session's `run` sees
    properties: dict
    subsets_per_sweep: int        # program subsets in one feature-attribution sweep
    workload: str


def prepare(workload: str, seed: int, size: str, work: Path) -> Prepared:
    sizes = SIZES[size][workload]
    inp, out = work / "in", work / "out"
    inp.mkdir(parents=True)
    out.mkdir()
    if workload == "corpus-run":
        corpus = gen.corpus(seed, sizes["files"], sizes["hangs"])
        mats = corpus.matrices
        rel = out / "rel.json"
    else:
        corpus = gen.corpus(seed, sizes["pilot"], 0)
        make = gen.dialects if workload == "tall" else gen.uniform
        mats = make(seed, sizes["m"], sizes["n"])
        rel = inp / "rel.json"
        gen.write_relation(mats, rel)
    gen.write_corpus(corpus, inp, inp / "run.json", PARSER_TIMEOUT_S, PARALLELISM)
    gen.write_features(mats, inp / "features.csv")
    gen.write_truth(mats, inp / "truth.csv")

    m, n = mats.accepts.shape
    min_size, max_removed, prune = {
        "corpus-run": (2, m - 1, 3),
        "tall": (2, 1, 1),
        "wide": (m - 1, 0, 0),
    }[workload]
    run_rel = "rel.json" if workload == "corpus-run" else "pilot.json"

    def o(name):
        return str(out / name)

    steps = [
        Step("run", ("run", "--config", str(inp / "run.json"), "--out", o(run_rel),
                     "--results", o("results.jsonl"), "--keywords-out", o("keywords.csv")),
             (run_rel, "keywords.csv")),
        Step("analyze", ("analyze", str(rel), "--weights", o("weights.json"), "--dot",
                         o("graph.dot"), "--inconsistent", o("inconsistent.json"), "--betti", "2"),
             ("weights.json", "graph.dot", "inconsistent.json")),
        Step("distill", ("distill", str(rel), "--trace", o("trace.json"), "--out",
                         o("distilled.json")),
             ("trace.json", "distilled.json")),
        Step("select", ("select", o("distilled.json"), "--threshold", str(max(2, n // 200)),
                        "--out", o("selected.json"), "--report", o("selection.csv")),
             ("selected.json", "selection.csv")),
        Step("score", ("score", str(rel), "--min-size", str(min_size), "--scores",
                       o("scores.csv"), "--hist", o("hist.csv"), "--restrict-below", "1",
                       "--restricted-out", o("restricted.json")),
             ("scores.csv", "hist.csv", "restricted.json")),
        Step("features", ("features", str(rel), "--features", str(inp / "features.csv"),
                          "--out", o("attribution.json"), "--max-removed", str(max_removed),
                          "--prune", str(prune)),
             ("attribution.json",)),
        Step("classify", ("classify", str(rel), "--vote", "2", "--truth",
                          str(inp / "truth.csv"), "--out", o("classify.json")),
             ("classify.json",)),
        Step("sheaf", ("sheaf", str(rel), "--sigma", ",".join(mats.programs[:2]),
                       "--display", "--out", o("stalk.json")),
             ("stalk.json",)),
    ]
    props = gen.properties(mats)
    props["corpus_bytes"] = sum(len(t.encode()) for t in corpus.texts)
    return Prepared(steps=steps, out=out, relation=mats, run_truth=corpus, properties=props,
                    subsets_per_sweep=sum(math.comb(m, r) for r in range(max_removed + 1)),
                    workload=workload)


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Independent checks of a session's outputs; returns failure messages."""

    def __init__(self, prep: Prepared, pins: dict | None):
        self.prep = prep
        self.pins = pins
        self.first: dict[str, str] | None = None
        mats = prep.relation
        m = mats.accepts.shape[0]
        counts = np.bincount(gen.column_masks(mats.accepts), minlength=1 << m)
        self.weights = {
            ",".join(sorted(mats.programs[j] for j in range(m) if mask >> j & 1)): int(c)
            for mask, c in enumerate(counts)
        }

    def digests(self, stdout_by_command: dict[str, str]) -> dict[str, str]:
        """sha256 of every canonical artifact, plus the display vector sheaf prints."""
        out = {}
        for step in self.prep.steps:
            for name in step.artifacts:
                path = self.prep.out / name
                out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
        out["sheaf.stdout"] = hashlib.sha256(stdout_by_command["sheaf"].encode()).hexdigest()
        return out

    def owner(self, artifact: str) -> str:
        if artifact == "sheaf.stdout":
            return "sheaf"
        return next(step.command for step in self.prep.steps if artifact in step.artifacts)

    def check(self, step: Step) -> list[str]:
        try:
            return self._check(step)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{step.command}: unreadable output: {exc!r}"]

    def _check(self, step: Step) -> list[str]:
        problems = []
        out = self.prep.out
        if step.command == "run":
            planted = self.prep.run_truth.matrices
            payload = json.loads((out / step.artifacts[0]).read_text())
            if (payload["programs"] != list(planted.programs)
                    or payload["inputs"] != list(planted.inputs)
                    or payload["rows"] != gen.relation_rows(planted.accepts)):
                problems.append("run: relation differs from the planted accept matrix")
            records = read_results(out)
            timed_out = sorted(r["input"] for r in records if r["timed_out"])
            if timed_out != sorted(self.prep.run_truth.hangs):
                planted_hangs = sorted(self.prep.run_truth.hangs)
                problems.append(f"run: timeouts {timed_out} != planted {planted_hangs}")
            if any(r["error"] for r in records):
                problems.append("run: launch failures")
        elif step.command == "analyze":
            report = json.loads((out / "weights.json").read_text())
            if report["weights"] != self.weights:
                problems.append("analyze: weights differ from an independent bincount")
        return problems

    def check_digests(self, digests: dict[str, str], seed: int) -> list[str]:
        """Artifacts must repeat byte for byte across sessions and match the seed's pin."""
        if self.first is None:
            self.first = digests
        problems = [f"{self.owner(k)}: {k} differs from the run's first session"
                    for k in sorted(digests) if digests[k] != self.first.get(k)]
        pinned = (self.pins or {}).get(str(seed), {})
        problems += [f"{self.owner(k)}: {k} differs from its pinned sha256"
                     for k in sorted(pinned) if digests.get(k) != pinned[k]]
        return problems


def read_results(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]


# ---------------------------------------------------------------------------
# child processes


def become_subreaper() -> None:
    """Adopt orphaned descendants, so leaked processes can be counted and reaped."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def children() -> list[int]:
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            out.append(int(entry))
    return out


def reap_orphans() -> int:
    """Kill and reap every process (and its group) left as our child; return how many
    there were.  Rescans, since killing one can orphan its descendants onto us."""
    total = 0
    while found := children():
        total += len(found)
        for pid in found:
            _kill_group(pid)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in found:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return total


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float         # user + system, the child's and its reaped descendants'
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], work: Path) -> ChildResult:
    """Start a CLI child in its own session; kill its group if it outlives CHILD_LIMIT_S."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stdout.txt", "wb") as fo, open(work / "stderr.txt", "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tdt.cli", *argv], cwd=work, env=env,
                                stdout=fo, stderr=fe, start_new_session=True)
        timer = threading.Timer(CHILD_LIMIT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # whatever is left in the child's group
    # ru_maxrss is in KiB on Linux
    return ChildResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024, (work / "stdout.txt").read_text(),
                       (work / "stderr.txt").read_text())


def call_inprocess(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """tdt.cli.main in this process; returns (exit code, stdout, stderr)."""
    import tdt.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tdt.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# sessions


@dataclass
class Tally:
    """Operations attempted and failed: one per command run, failed on a nonzero
    exit or on a failed check of its outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Session:
    stdouts: dict[str, str] = field(default_factory=dict)
    walls: dict[str, float] = field(default_factory=dict)
    cpus: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    total_s: float = 0.0
    leaked: int = 0


def session(prep: Prepared, checker: Checker, seed: int, tally: Tally, work: Path,
            inprocess: bool, recorder: spans.Recorder | None = None) -> Session:
    for stale in prep.out.iterdir():
        stale.unlink()
    s = Session()
    codes, stderrs = {}, {}
    tracing = spans.traced(recorder) if recorder else contextlib.nullcontext()
    start = time.perf_counter()
    with tracing:
        for step in prep.steps:
            if inprocess:
                with recorder.span(f"cli.{step.command}") if recorder else contextlib.nullcontext():
                    code, stdout, stderr = call_inprocess(step.argv)
            else:
                res = run_child(list(step.argv), work)
                code, stdout, stderr = res.code, res.stdout, res.stderr
                s.walls[step.command] = res.wall_s
                s.cpus[step.command] = res.cpu_s
                s.peak_rss_mb = max(s.peak_rss_mb, res.rss_mb)
            codes[step.command], stderrs[step.command] = code, stderr
            s.stdouts[step.command] = stdout
            if step.command == "run":
                s.leaked = reap_orphans()
    s.total_s = time.perf_counter() - start

    failed = {cmd for cmd, code in codes.items() if code != 0}
    problems = [f"{cmd}: exit {codes[cmd]}: {stderrs[cmd].strip()[-300:]}"
                for cmd in sorted(failed)]
    for step in prep.steps:
        if step.command not in failed:
            problems += checker.check(step)
    problems += checker.check_digests(checker.digests(s.stdouts), seed)
    tally.problems += problems
    failed |= {p.split(":", 1)[0] for p in problems}
    tally.attempted += len(prep.steps)
    tally.failed += len(failed)
    return s


def repeat(seconds: float, body) -> list:
    """Run body() until the next repeat would overrun ``seconds`` (at least once)."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


# ---------------------------------------------------------------------------
# metrics


def summary_line(name: str, values: list[float], unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (f"  {name:34s} {statistics.median(values):12.6g} {unit:5s} "
            f"(n={len(values)}, q1={q[0]:.6g}, q3={q[2]:.6g}, "
            f"min={min(values):.6g}, max={max(values):.6g})")


def medians(series: dict[str, tuple[list[float], str]]) -> dict:
    return {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in series.items()}


def no_op_start(work: Path, tally: Tally) -> ChildResult:
    res = run_child(["--help"], work)
    tally.attempted += 1
    if res.code != 0:
        tally.failed += 1
        tally.problems.append(f"setup: exit {res.code}")
    return res


def end_to_end(prep, checker, seed, seconds, work, tally) -> tuple[dict, list[str]]:
    # Times are CPU seconds (user + system of each CLI child and the processes
    # it reaped, from os.wait4); context.json says why, and what that misses.
    # Wall times are printed beside them.  Set-up is sampled up front and again
    # before every session, so its median covers the same stretch of time.
    setup = [no_op_start(work, tally) for _ in range(SETUP_REPEATS)]

    def body():
        setup.append(no_op_start(work, tally))
        return session(prep, checker, seed, tally, work, False)

    sessions = repeat(seconds, body)
    series = {"setup_s": ([r.cpu_s for r in setup], "s")}
    for cmd in COMMANDS:
        series[f"{cmd}_cpu_s"] = ([s.cpus[cmd] for s in sessions], "s")
    series["pipeline_cpu_s"] = ([sum(s.cpus.values()) for s in sessions], "s")
    series["peak_rss_mb"] = ([s.peak_rss_mb for s in sessions], "MB")
    walls = {"setup_wall_s": [r.wall_s for r in setup]}
    for cmd in COMMANDS:
        walls[f"{cmd}_wall_s"] = [s.walls[cmd] for s in sessions]
    walls["pipeline_wall_s"] = [s.total_s for s in sessions]
    lines = [summary_line(k, v, u) for k, (v, u) in series.items()]
    lines += [summary_line(k, v, "s") for k, v in walls.items()]
    lines.append(f"  leaked processes after run: {[s.leaked for s in sessions]}")
    return medians(series), lines


COUNTED = ("dowker.faces", "dowker.edges", "dowker.red_edges", "dowker.core_faces",
           "dowker.inconsistent_inputs", "distill.steps", "distill.swept_subsets",
           "harness.invocations", "harness.timeouts", "harness.launch_failures",
           "harness.invocation_p50_ms", "harness.invocation_p99_ms")


def session_counts(prep: Prepared, s: Session) -> dict[str, float]:
    """Work sizes read off one session's outputs; all 0 if an output is unreadable
    (the failed command is already counted)."""
    out = prep.out
    counts: dict[str, float] = {
        "relation.n": prep.properties["n"],
        "relation.m": prep.properties["m"],
        "relation.distinct_accept_sets": prep.properties["distinct_accept_sets"],
        "harness.leaked_processes": s.leaked,
    }
    try:
        dot = (out / "graph.dot").read_text().splitlines()
        edges = [line for line in dot if "->" in line]
        records = read_results(out)
        ms = [r["wall_time"] * 1000 for r in records]
        counts.update({
            "dowker.faces": sum(1 for line in dot if "[label=" in line),
            "dowker.edges": len(edges),
            "dowker.red_edges": sum(1 for line in edges if "color=red" in line),
            # "<m> programs, <n> inputs: F faces, R inconsistent edges, C faces in the core, ..."
            "dowker.core_faces": int(s.stdouts["analyze"].split(", ")[3].split()[0]),
            "dowker.inconsistent_inputs": len(json.loads((out / "inconsistent.json").read_text())),
            "distill.steps": len(json.loads((out / "trace.json").read_text())["steps"]),
            "distill.swept_subsets": int(s.stdouts["score"].split(" over ")[1].split()[0]),
            "harness.invocations": len(records),
            "harness.timeouts": sum(1 for r in records if r["timed_out"]),
            "harness.launch_failures": sum(1 for r in records if r["error"]),
            "harness.invocation_p50_ms": float(np.percentile(ms, 50)),
            "harness.invocation_p99_ms": float(np.percentile(ms, 99)),
        })
    except (OSError, ValueError, KeyError, IndexError):
        counts.update(dict.fromkeys(COUNTED, 0))
    return counts


def import_tdt() -> None:
    """Import the checkout's tdt for in-process sessions, never an installed one."""
    sys.path.insert(0, str(SRC))
    import tdt.cli

    if Path(tdt.cli.__file__).resolve().parent != SRC / "tdt":
        raise RuntimeError(f"imported tdt from {tdt.cli.__file__}, not from {SRC}")


def per_layer(prep, checker, seed, seconds, work, tally) -> tuple[dict, list[str]]:
    import_tdt()
    # The process's first in-process session is cold; keep it out of both sides,
    # and swap which side goes first on each pair so drift does not favour one.
    session(prep, checker, seed, tally, work, True)
    traced_first = itertools.cycle((False, True))

    def pair():
        recorder = spans.Recorder()
        if next(traced_first):
            traced = session(prep, checker, seed, tally, work, True, recorder)
            untraced = session(prep, checker, seed, tally, work, True)
        else:
            untraced = session(prep, checker, seed, tally, work, True)
            traced = session(prep, checker, seed, tally, work, True, recorder)
        return untraced, traced, recorder.spans, session_counts(prep, traced)

    runs = repeat(seconds, pair)
    series: dict[str, tuple[list[float], str]] = {}
    for _, _, recorded, counts in runs:
        selfs = spans.self_times(recorded)
        values = {f"{name}_s": selfs.get(name, 0.0) for name in spans.SPANNED.values()}
        values["cli.glue_s"] = sum(v for k, v in selfs.items() if k.startswith("cli."))
        for k, v in values.items():
            series.setdefault(k, ([], "s"))[0].append(v)
        counts["features.subsets_swept"] = (
            spans.counts(recorded).get("features.attribute", 0) * prep.subsets_per_sweep)
        counts["trace.spans"] = len(recorded)
        for k, v in counts.items():
            series.setdefault(k, ([], "ms" if k.endswith("_ms") else "count"))[0].append(v)
    series["trace.traced_s"] = ([t.total_s for _, t, _, _ in runs], "s")
    series["trace.untraced_s"] = ([u.total_s for u, _, _, _ in runs], "s")
    out = medians(series)
    out["relation.repeated_accept_set_share"] = {
        "value": prep.properties["repeated_accept_set_share"], "unit": "share"}
    out["harness.corpus_bytes"] = {"value": prep.properties["corpus_bytes"], "unit": "bytes"}
    out["trace.overhead_pct"] = {
        "value": 100 * (out["trace.traced_s"]["value"] / out["trace.untraced_s"]["value"] - 1),
        "unit": "%"}
    path = WORK / f"spans-{prep.workload}-seed{seed}.json"
    write_spans(runs[-1][2], path)
    lines = [summary_line(k, v, u) for k, (v, u) in series.items()]
    return out, lines + [f"  spans of the last traced session: {path.relative_to(ROOT)}"]


def write_spans(recorded: list[spans.Span], path: Path) -> None:
    """The last traced session's spans, times in ns from its first span."""
    origin = recorded[0].start if recorded else 0
    rows = [{"name": sp.name, "start_ns": sp.start - origin, "end_ns": sp.end - origin,
             "parent": sp.parent} for sp in recorded]
    path.write_text(json.dumps(rows) + "\n")


# ---------------------------------------------------------------------------
# entry point


def make_work(name: str) -> Path:
    """A fresh work directory in the checkout; temporary files go there too."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # the harness's job directories, in CLI children and in this process
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    return work


def load_pins(workload: str, size: str) -> dict:
    path = HERE / "pins.json"
    return json.loads(path.read_text()).get(size, {}).get(workload, {}) if path.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "tdt" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'tdt' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # clean up below, then exit
    work = make_work(f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        prep = prepare(args.workload, args.seed, size, work)
        checker = Checker(prep, load_pins(args.workload, size))
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        metrics, lines = measure(prep, checker, args.seed, args.seconds, work, tally)
    finally:
        reap_orphans()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, {size} size, trace {args.trace}")
    print("  inputs: " + ", ".join(f"{k}={v}" for k, v in prep.properties.items()))
    for line in lines:
        print(line)
    share = tally.failed / tally.attempted
    print(f"  failed_share: {tally.failed}/{tally.attempted} = {share:.4g}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
