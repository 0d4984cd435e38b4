"""Running external programs over a corpus and recording accept/reject behavior.

Acceptance follows the configured policy per parser: ``stderr-empty`` (the
default: any stderr output means reject), ``exit-zero``, or ``both``.  Timeouts
and crashes (termination by signal) are rejects under every policy.  Results
are keyed by (parser index, input index), so the emitted relation is identical
at any parallelism level.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import selectors
import shlex
import shutil
import signal
import stat
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import ConfigurationError, FormatError, ValidationError
from .util import csv_text, json_field, load_json_object

POLICIES = ("stderr-empty", "exit-zero", "both")
DEFAULT_STDERR_CAP = 64 * 1024
MAX_TIMEOUT_SECS = (2**31 - 1) / 1000


@dataclass(frozen=True)
class ParserSpec:
    name: str
    command: str  # template with an {input} placeholder
    policy: str = "stderr-empty"
    keywords: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    parsers: tuple[ParserSpec, ...]
    corpus: str
    glob: str = "*"
    timeout_secs: float = 30.0
    parallelism: int = 1
    stderr_cap_bytes: int = DEFAULT_STDERR_CAP

    def __post_init__(self):
        names = [p.name for p in self.parsers]
        if not names:
            raise ValidationError("configuration needs at least one parser")
        if len(set(names)) != len(names):
            raise ValidationError("duplicate parser names")
        for p in self.parsers:
            if p.policy not in POLICIES:
                raise ValidationError(f"parser {p.name!r}: unknown policy {p.policy!r}")
            if "{input}" not in p.command:
                raise ValidationError(f"parser {p.name!r}: command lacks an {{input}} placeholder")
        seen: set[str] = set()  # the keyword CSV's columns, which name features
        for column in (f"{p.name}:{kw}" for p in self.parsers for kw in p.keywords):
            if column in seen:
                raise ValidationError(f"duplicate keyword column {column!r}")
            seen.add(column)
        # the selector waits at most 2^31 - 1 ms; JSON's NaN and Infinity fail this too
        if not 0 < self.timeout_secs <= MAX_TIMEOUT_SECS:
            raise ValidationError(f"timeout_secs must be a number > 0 and <= {MAX_TIMEOUT_SECS}")
        if self.parallelism < 1:
            raise ValidationError("parallelism must be >= 1")
        if self.stderr_cap_bytes < 0:
            raise ValidationError("stderr_cap_bytes must be >= 0")


@dataclass(frozen=True)
class RunResult:
    parser: str
    input: str
    accept: bool
    exit_status: int | None
    timed_out: bool
    stderr: bytes
    truncated: bool
    wall_time: float
    error: str | None = None  # launch-level diagnostic, if any


def load_run_config(path) -> RunConfig:
    payload = load_json_object(path)
    parsers = []
    for i, entry in enumerate(json_field(path, payload, "parsers", (list,), "an array")):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: parsers[{i}] must be an object")
        where = f"parsers[{i}]: "
        keywords = json_field(path, entry, "keywords", (list,), "a list of strings", [], where)
        if not all(isinstance(kw, str) for kw in keywords):
            raise FormatError(
                f"{path}: {where}field 'keywords' must be a list of strings, got {keywords!r}"
            )
        parsers.append(
            ParserSpec(
                name=json_field(path, entry, "name", (str,), "a string", where=where),
                command=json_field(path, entry, "command", (str,), "a string", where=where),
                policy=json_field(path, entry, "policy", (str,), "a string", "stderr-empty", where),
                keywords=tuple(keywords),
            )
        )
    try:
        return RunConfig(
            parsers=tuple(parsers),
            corpus=json_field(path, payload, "corpus", (str,), "a string"),
            glob=json_field(path, payload, "glob", (str,), "a string", "*"),
            timeout_secs=json_field(path, payload, "timeout_secs", (int, float), "a number", 30.0),
            parallelism=json_field(path, payload, "parallelism", (int,), "an integer", 1),
            stderr_cap_bytes=json_field(
                path, payload, "stderr_cap_bytes", (int,), "an integer", DEFAULT_STDERR_CAP
            ),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _resolve_commands(cfg: RunConfig) -> list[list[str]]:
    """Each parser's argv template, its executable resolved on PATH.

    Fails before any execution if some parser's command cannot be used, or if
    this system cannot wait on a child through a pidfd.
    """
    templates = []
    for p in cfg.parsers:
        try:
            tokens = shlex.split(p.command)
        except ValueError as exc:
            raise ConfigurationError(f"parser {p.name!r}: unparsable command: {exc}") from None
        exe = shutil.which(tokens[0])
        if exe is None:
            raise ConfigurationError(f"parser {p.name!r}: executable {tokens[0]!r} not found")
        templates.append([exe, *tokens[1:]])
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError) as exc:  # no os.pidfd_open, or a kernel before 5.3
        raise ConfigurationError(f"waiting on parsers needs pidfds (Linux 5.3+): {exc}") from None
    return templates


def _decide(policy: str, returncode: int | None, stderr: bytes, timed_out: bool) -> bool:
    if timed_out or returncode is None or returncode < 0:
        return False
    if policy == "stderr-empty":
        return stderr == b""
    if policy == "exit-zero":
        return returncode == 0
    return stderr == b"" and returncode == 0


_READ_CHUNK = 64 * 1024


@dataclass(eq=False)
class _Child:
    """A job in flight: its process, the pidfd that reports its exit, and the
    first ``stderr_cap_bytes + 1`` bytes of its stderr."""

    index: int
    spec: ParserSpec
    input_id: str
    proc: subprocess.Popen
    workdir: str
    start: float
    deadline: float
    pidfd: int = -1  # watched until the child exits, then closed and -1
    stderr: bytearray = field(default_factory=bytearray)
    stderr_open: bool = True


def _reclaim(workdir: str, free: list[str]) -> None:
    """Put a job's working directory back in ``free`` if the tool left it as it
    was made, an empty directory with mode 0700; else remove it, and a later
    job gets a new directory instead."""
    try:
        if os.lstat(workdir).st_mode == stat.S_IFDIR | 0o700 and not os.listdir(workdir):
            free.append(workdir)
            return
    except OSError:  # the tool removed it, or took away its read permission
        pass
    shutil.rmtree(workdir, ignore_errors=True)


def _run_jobs(jobs: Iterable[tuple[ParserSpec, str, list[str]]], cfg: RunConfig) -> list[RunResult]:
    """Run ``(spec, input id, argv)`` jobs, at most ``cfg.parallelism`` at once,
    and return their results in job order.

    One thread waits on every child's stderr pipe and pidfd together, until
    the nearest deadline.  A job ends when its child has exited and its stderr
    reached EOF, or at its deadline; either way its whole process group is
    killed before the child is reaped, so no process it started outlives it.
    A launch that runs out of file descriptors (a tool already started is
    killed) waits for a job in flight to end and starts the tool again; with
    no job in flight it is a launch failure.
    """
    cap = cfg.stderr_cap_bytes
    results: dict[int, RunResult] = {}
    running: dict[int, _Child] = {}
    free: list[str] = []  # empty working directories of finished jobs
    selector = selectors.DefaultSelector()

    def record(index, spec, input_id, start, returncode=None, stderr=b"", timed_out=False,
               error=None):
        truncated = len(stderr) > cap
        stderr = bytes(stderr[:cap])
        results[index] = RunResult(
            parser=spec.name,
            input=input_id,
            accept=False if error else _decide(spec.policy, returncode, stderr, timed_out),
            exit_status=returncode,
            timed_out=timed_out,
            stderr=stderr,
            truncated=truncated,
            wall_time=time.monotonic() - start,
            error=error,
        )

    def close(child: _Child) -> None:
        """Stop watching a child, kill its process group and reap it."""
        del running[child.index]
        # not reaped yet, so the child's pid still names its group
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.proc.pid, signal.SIGKILL)
        if child.stderr_open:
            selector.unregister(child.proc.stderr)
            child.proc.stderr.close()
        if child.pidfd >= 0:
            selector.unregister(child.pidfd)
            os.close(child.pidfd)
        child.proc.wait()
        _reclaim(child.workdir, free)

    def wait() -> None:
        """Handle whatever is ready before the nearest deadline, then expire late jobs."""
        timeout = min(child.deadline for child in running.values()) - time.monotonic()
        for key, _ in selector.select(max(timeout, 0.0)):
            child = key.data
            if key.fd == child.pidfd:
                selector.unregister(child.pidfd)
                os.close(child.pidfd)
                child.pidfd = -1
            else:
                chunk = os.read(key.fd, _READ_CHUNK)
                if chunk:
                    # keep one byte past the cap, so truncation shows; drain the rest
                    if len(child.stderr) <= cap:
                        child.stderr += chunk[: cap + 1 - len(child.stderr)]
                    continue
                selector.unregister(key.fd)
                child.proc.stderr.close()
                child.stderr_open = False
            if not child.stderr_open and child.pidfd < 0:
                close(child)
                record(child.index, child.spec, child.input_id, child.start,
                       child.proc.returncode, child.stderr)
        now = time.monotonic()
        for child in [c for c in running.values() if c.deadline <= now]:
            # a stderr still open (say, held by a background grandchild) is a timeout too
            close(child)
            record(child.index, child.spec, child.input_id, child.start,
                   stderr=child.stderr, timed_out=True)

    root = tempfile.mkdtemp(prefix="tdt-run-")
    try:
        for index, (spec, input_id, argv) in enumerate(jobs):
            while len(running) >= cfg.parallelism:
                wait()
            while True:
                # an empty working directory per job in flight: concurrent tools
                # that write scratch files cannot collide, and none sees another's
                # leftovers; a directory its last tool left empty is reused
                start = time.monotonic()
                child = None
                try:
                    if free:
                        workdir = free.pop()
                    else:
                        workdir = os.path.join(root, str(index))
                        os.mkdir(workdir, 0o700)
                    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                            cwd=workdir, start_new_session=True)
                    child = running[index] = _Child(index, spec, input_id, proc, workdir, start,
                                                    start + cfg.timeout_secs)
                    selector.register(proc.stderr, selectors.EVENT_READ, child)
                    child.pidfd = os.pidfd_open(proc.pid)
                    selector.register(child.pidfd, selectors.EVENT_READ, child)
                    break
                except OSError as exc:
                    if child is None:
                        _reclaim(workdir, free)
                    else:  # the tool started: kill it, and start it anew below
                        close(child)
                    if exc.errno not in (errno.EMFILE, errno.ENFILE) or not running:
                        record(index, spec, input_id, start, error=str(exc))
                        break
                # out of descriptors: the jobs in flight free theirs as they end
                wait()
        while running:
            wait()
    finally:
        # on any exception, KeyboardInterrupt included, no child outlives the run
        for child in list(running.values()):
            close(child)
        selector.close()
        shutil.rmtree(root, ignore_errors=True)
    return [results[index] for index in range(len(results))]


def run_corpus(cfg: RunConfig) -> tuple[tuple[str, ...], list[RunResult]]:
    """Execute every (parser, input) pair: the input ids and the results.

    Inputs follow sorted filename order; results are grouped by parser, in the
    config's parser order, and within a parser follow the inputs.  Per-pair
    I/O failures are recorded as rejects with a diagnostic, not raised.  Each
    job runs in its own process group, which is killed at the job's timeout;
    at most ``cfg.parallelism`` jobs run at once.  :func:`accept_rows` reads
    the accept relation off the results.
    """
    corpus = Path(cfg.corpus)
    if not corpus.is_dir():
        raise ConfigurationError(f"corpus directory {cfg.corpus!r} does not exist")
    # absolute input paths: jobs run from their own scratch directories
    files = sorted((p.resolve() for p in corpus.glob(cfg.glob) if p.is_file()),
                   key=lambda p: p.name)
    if not files:
        raise ConfigurationError(f"no corpus files match {cfg.glob!r} under {cfg.corpus!r}")
    input_ids = tuple(p.name for p in files)
    # files are sorted by name, so colliding ids are adjacent
    for name, following in zip(input_ids, input_ids[1:]):
        if name == following:
            raise ConfigurationError(
                f"duplicate input identifier {name!r}: {cfg.glob!r} matches several "
                f"files of that name under {cfg.corpus!r}"
            )
    templates = _resolve_commands(cfg)
    paths = [str(p) for p in files]
    jobs = (
        (spec, input_ids[ki], [t.replace("{input}", path) for t in template])
        for spec, template in zip(cfg.parsers, templates)
        for ki, path in enumerate(paths)
    )
    return input_ids, _run_jobs(jobs, cfg)


def accept_rows(inputs: tuple[str, ...], results: list[RunResult]) -> dict[str, str]:
    """Each parser's accepts over the inputs as a '0'/'1' string, in parser
    order, from :func:`run_corpus`'s results."""
    n = len(inputs)
    return {
        results[i].parser: "".join("1" if r.accept else "0" for r in results[i:i + n])
        for i in range(0, len(results), n)
    }


def results_jsonl(results: list[RunResult]) -> str:
    """One JSON record per (parser, input), keyed by the RunResult fields; stderr
    bytes are latin-1 mapped for fidelity and wall_time rounded to microseconds."""
    return "\n".join(
        json.dumps(vars(r) | {"stderr": r.stderr.decode("latin-1"),
                              "wall_time": round(r.wall_time, 6)}, sort_keys=True)
        for r in results
    ) + "\n"


def keyword_table(inputs: tuple[str, ...], results: list[RunResult],
                  keywords_by_parser: dict[str, tuple[str, ...]]) -> str:
    """The keyword-match CSV: a row per input, a ``parser:keyword`` column per
    keyword, 1 where the keyword is a case-sensitive byte substring of that
    parser's captured stderr.  ``results`` are read as :func:`accept_rows` reads them."""
    n = len(inputs)
    block = {results[i].parser: results[i:i + n] for i in range(0, len(results), n)}
    columns = [(parser, kw) for parser, kws in keywords_by_parser.items() for kw in kws]
    cells = [["1" if kw.encode("utf-8") in r.stderr else "0" for r in block[parser]]
             for parser, kw in columns]
    return csv_text(["input", *(f"{parser}:{kw}" for parser, kw in columns)], zip(inputs, *cells))


def run_summary(inputs: tuple[str, ...], results: list[RunResult], rows: dict[str, str]) -> str:
    failures = sum(1 for r in results if r.error)
    timeouts = sum(1 for r in results if r.timed_out)
    lines = [
        f"ran {len(rows)} parsers over {len(inputs)} inputs "
        f"({len(results)} invocations, {timeouts} timeouts, {failures} launch failures)"
    ]
    for name, row in rows.items():
        lines.append(f"  {name}: accepted {row.count('1')}/{len(inputs)}")
    return "\n".join(lines)
