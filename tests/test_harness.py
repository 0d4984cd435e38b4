import contextlib
import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from tdt.errors import ConfigurationError, FormatError, ValidationError
from tdt.harness import (
    ParserSpec,
    RunConfig,
    RunResult,
    accept_rows,
    keyword_table,
    keyword_table_csv,
    load_results_jsonl,
    load_run_config,
    results_jsonl,
    run_corpus,
    run_relation,
    run_summary,
)

from conftest import TRIO_ROWS

DATA = Path(__file__).parent / "data"
STUB = DATA / "stubs" / "pattern_parser.py"


def pattern_config(parallelism=1, policy="stderr-empty", keywords=()):
    parsers = tuple(
        ParserSpec(
            name=name,
            command=f"{sys.executable} {STUB} {pattern} {{input}}",
            policy=policy,
            keywords=tuple(keywords),
        )
        for name, pattern in zip("ABC", TRIO_ROWS)
    )
    return RunConfig(
        parsers=parsers,
        corpus=str(DATA / "corpus14"),
        glob="f*",
        timeout_secs=20,
        parallelism=parallelism,
    )


@pytest.fixture(scope="module")
def pattern_run():
    inputs, results = run_corpus(pattern_config(parallelism=8))
    return run_relation(inputs, results), results


def test_run_corpus_reproduces_patterns(pattern_run):
    rel, results = pattern_run
    assert rel.programs == ("A", "B", "C")
    assert rel.inputs == tuple(f"f{k + 1:02d}" for k in range(14))
    got = ["".join("1" if v else "0" for v in row) for row in rel.accepts]
    assert got == list(TRIO_ROWS)
    assert len(results) == 42
    assert all(not r.timed_out and r.error is None for r in results)


def test_rows_and_summary_read_the_parser_major_results(pattern_run):
    rel, results = pattern_run
    inputs = rel.inputs
    assert [(r.parser, r.input) for r in results] == [(p, i) for p in "ABC" for i in inputs]
    rows = accept_rows(inputs, results)
    assert rows == dict(zip("ABC", TRIO_ROWS))
    assert run_summary(inputs, results) == (
        "ran 3 parsers over 14 inputs (42 invocations, 0 timeouts, 0 launch failures)\n"
        + "\n".join(f"  {p}: accepted {row.count('1')}/14" for p, row in rows.items())
    )


def test_run_corpus_parallelism_is_invisible(pattern_run):
    rel1 = run_relation(*run_corpus(pattern_config(parallelism=1)))
    rel8, _ = pattern_run
    assert rel1 == rel8


def test_run_corpus_policies_agree_for_stub():
    # the stub pairs stderr output with a nonzero exit, so all policies match
    for policy in ("exit-zero", "both"):
        rel = run_relation(*run_corpus(pattern_config(parallelism=8, policy=policy)))
        assert "".join("1" if v else "0" for v in rel.accepts[0]) == TRIO_ROWS[0]


def test_accept_all_stub(tmp_path):
    stub = tmp_path / "ok.py"
    stub.write_text("import sys\n")
    for k in range(5):
        (tmp_path / f"doc{k}.bin").write_bytes(b"x" * k)
    cfg = RunConfig(
        parsers=(ParserSpec(name="ok", command=f"{sys.executable} {stub} {{input}}"),),
        corpus=str(tmp_path),
        glob="doc*",
        timeout_secs=20,
    )
    rel = run_relation(*run_corpus(cfg))
    assert rel.accepts.all() and rel.n == 5


def test_odd_size_stub(tmp_path):
    stub = tmp_path / "sizecheck.py"
    stub.write_text(
        "import os, sys\n"
        "if os.path.getsize(sys.argv[1]) % 2:\n"
        "    sys.stderr.write('err\\n')\n"
    )
    sizes = [3, 4, 7, 10, 11]
    for k, size in enumerate(sizes):
        (tmp_path / f"doc{k}.bin").write_bytes(b"x" * size)
    cfg = RunConfig(
        parsers=(ParserSpec(name="size", command=f"{sys.executable} {stub} {{input}}"),),
        corpus=str(tmp_path),
        glob="doc*",
        timeout_secs=20,
    )
    inputs, results = run_corpus(cfg)
    rel = run_relation(inputs, results)
    assert rel.accepts[0].tolist() == [size % 2 == 0 for size in sizes]
    assert all(r.stderr == b"err\n" for r in results if not r.accept)


def test_timeout_is_reject(tmp_path):
    stub = tmp_path / "sleeper.py"
    stub.write_text("import time\ntime.sleep(5)\n")
    (tmp_path / "doc0").write_text("x")
    (tmp_path / "doc1").write_text("y")
    cfg = RunConfig(
        parsers=(ParserSpec(name="slow", command=f"{sys.executable} {stub} {{input}}"),),
        corpus=str(tmp_path),
        glob="doc*",
        timeout_secs=0.4,
        parallelism=2,
    )
    inputs, results = run_corpus(cfg)
    rel = run_relation(inputs, results)
    assert not rel.accepts.any()
    assert all(r.timed_out and not r.accept for r in results)


def test_unresolvable_command_fails_before_running(tmp_path):
    (tmp_path / "doc").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="ghost", command="no-such-tool-anywhere {input}"),),
        corpus=str(tmp_path),
        timeout_secs=5,
    )
    with pytest.raises(ConfigurationError, match="ghost"):
        run_corpus(cfg)


def test_duplicate_input_ids_fail_before_running(tmp_path, capsys):
    from tdt.cli import main

    corpus = tmp_path / "corpus"
    for sub in ("a", "b"):
        (corpus / sub).mkdir(parents=True)
        (corpus / sub / "f1").write_text("x")
    (corpus / "a" / "f2").write_text("y")
    marker = tmp_path / "ran"
    touch = f"import pathlib; pathlib.Path({str(marker)!r}).touch()"
    cfg = RunConfig(
        parsers=(ParserSpec(name="toucher", command=f'{sys.executable} -c "{touch}" {{input}}'),),
        corpus=str(corpus),
        glob="**/*",
        timeout_secs=5,
    )
    with pytest.raises(ConfigurationError, match="'f1'"):
        run_corpus(cfg)
    assert not marker.exists()
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "parsers": [{"name": "toucher", "command": cfg.parsers[0].command}],
        "corpus": str(corpus),
        "glob": "**/*",
        "timeout_secs": 5,
    }))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "rel.json")]) == 2
    assert "'f1'" in capsys.readouterr().err
    assert not marker.exists()


def test_missing_corpus_dir():
    cfg = RunConfig(
        parsers=(ParserSpec(name="ok", command=f"{sys.executable} -c pass {{input}}"),),
        corpus="/nonexistent/corpus/dir",
        timeout_secs=5,
    )
    with pytest.raises(ConfigurationError, match="corpus"):
        run_corpus(cfg)


def test_stderr_cap_truncates(tmp_path):
    stub = tmp_path / "chatty.py"
    stub.write_text("import sys\nsys.stderr.write('e' * 1000)\n")
    (tmp_path / "doc").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="chatty", command=f"{sys.executable} {stub} {{input}}"),),
        corpus=str(tmp_path),
        glob="doc",
        timeout_secs=20,
        stderr_cap_bytes=64,
    )
    _, results = run_corpus(cfg)
    assert results[0].truncated and len(results[0].stderr) == 64
    assert not results[0].accept


def test_config_validation():
    with pytest.raises(ValidationError, match="placeholder"):
        RunConfig(parsers=(ParserSpec(name="x", command="tool"),), corpus=".")
    with pytest.raises(ValidationError, match="policy"):
        RunConfig(
            parsers=(ParserSpec(name="x", command="tool {input}", policy="maybe"),),
            corpus=".",
        )
    with pytest.raises(ValidationError, match="duplicate"):
        RunConfig(
            parsers=(
                ParserSpec(name="x", command="tool {input}"),
                ParserSpec(name="x", command="tool {input}"),
            ),
            corpus=".",
        )


def test_load_run_config(tmp_path):
    payload = {
        "parsers": [
            {"name": "A", "command": "tool {input}", "policy": "both", "keywords": ["bad"]}
        ],
        "corpus": "corpus",
        "glob": "*.pdf",
        "timeout_secs": 3,
        "parallelism": 4,
        "stderr_cap_bytes": 100,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    cfg = load_run_config(path)
    assert cfg.parsers[0].keywords == ("bad",)
    assert cfg.parallelism == 4 and cfg.glob == "*.pdf"


def test_results_jsonl_round_trip(pattern_run):
    _, results = pattern_run
    text = results_jsonl(results)
    assert len(text.splitlines()) == 42


def test_results_jsonl_text():
    results = [
        RunResult(parser="A", input="f\u00e9", accept=False, exit_status=1, timed_out=False,
                  stderr=b"\xff\xfeerr\n\x00\x80", truncated=True, wall_time=0.12345678),
        RunResult(parser="B", input="x,y", accept=True, exit_status=None, timed_out=True,
                  stderr=b"", truncated=False, wall_time=2.0000004, error="boom"),
    ]
    assert results_jsonl(results) == (
        '{"accept": false, "error": null, "exit_status": 1, "input": "f\\u00e9", '
        '"parser": "A", "stderr": "\\u00ff\\u00feerr\\n\\u0000\\u0080", '
        '"timed_out": false, "truncated": true, "wall_time": 0.123457}\n'
        '{"accept": true, "error": "boom", "exit_status": null, "input": "x,y", '
        '"parser": "B", "stderr": "", "timed_out": true, "truncated": false, '
        '"wall_time": 2.0}\n'
    )


def test_results_jsonl_reload(tmp_path, pattern_run):
    _, results = pattern_run
    path = tmp_path / "results.jsonl"
    path.write_text(results_jsonl(results))
    reloaded = load_results_jsonl(path)
    assert [(r.parser, r.input, r.accept, r.stderr) for r in reloaded] == [
        (r.parser, r.input, r.accept, r.stderr) for r in results
    ]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rec: rec.pop("timed_out"), r"line 2: missing field 'timed_out'"),
        (lambda rec: rec.update(stderr=5), r"line 2: field 'stderr' must be a string, got 5"),
    ],
    ids=["missing-key", "numeric-stderr"],
)
def test_results_jsonl_rejects_malformed_record(tmp_path, edit, message):
    result = RunResult(parser="A", input="f1", accept=False, exit_status=1, timed_out=False,
                       stderr=b"parse error", truncated=False, wall_time=0.5)
    good, bad = results_jsonl([result, result]).splitlines()
    rec = json.loads(bad)
    edit(rec)
    path = tmp_path / "results.jsonl"
    path.write_text(good + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(FormatError, match=message):
        load_results_jsonl(path)


def test_keyword_table(pattern_run):
    _, results = pattern_run
    table = keyword_table(results, {"A": ("parse error",), "B": ("parse error", "f13")})
    assert table.columns == (("A", "parse error"), ("B", "parse error"), ("B", "f13"))
    row = dict(zip(table.inputs, table.cells))
    # f01 is rejected by A and B: both match "parse error"; only f13 matches "f13"
    assert row["f01"][0] and row["f01"][1] and not row["f01"][2]
    assert row["f13"][2]
    # f12 is accepted by everyone: empty stderr, no matches
    assert not any(row["f12"])
    coverage = table.coverage(results)
    reported = sum(1 for v in coverage.values() if v)
    print(f"keyword coverage: {reported}/{len(coverage)} rejected inputs matched")


def test_keyword_table_needs_keywords(pattern_run):
    _, results = pattern_run
    with pytest.raises(ValidationError):
        keyword_table(results, {"A": ()})


def test_keyword_table_csv(pattern_run):
    _, results = pattern_run
    table = keyword_table(results, {"A": ("parse error",)})
    lines = keyword_table_csv(table).splitlines()
    assert lines[0] == "input,A:parse error"
    assert len(lines) == 15


def test_launch_failure_is_recorded_not_fatal(tmp_path):
    # executable exists and passes the upfront which() check, but exec fails
    bad = tmp_path / "broken-tool"
    bad.write_text("#!/nonexistent-interpreter\n")
    bad.chmod(0o755)
    (tmp_path / "doc").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="broken", command=f"{bad} {{input}}"),),
        corpus=str(tmp_path),
        glob="doc",
        timeout_secs=5,
    )
    inputs, results = run_corpus(cfg)
    rel = run_relation(inputs, results)
    assert not rel.accepts.any()
    assert results[0].error is not None and not results[0].accept


def test_jobs_get_isolated_working_directories(tmp_path):
    # a tool that writes a fixed-name scratch file; concurrent jobs must not
    # see each other's leftovers
    stub = tmp_path / "scratchy.py"
    stub.write_text(
        "import os, sys\n"
        "if os.path.exists('scratch.tmp'):\n"
        "    sys.stderr.write('collision\\n')\n"
        "open('scratch.tmp', 'w').write('x')\n"
    )
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for k in range(6):
        (corpus / f"doc{k}").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="scratchy", command=f"{sys.executable} {stub} {{input}}"),),
        corpus=str(corpus),
        glob="doc*",
        timeout_secs=20,
        parallelism=6,
    )
    inputs, results = run_corpus(cfg)
    rel = run_relation(inputs, results)
    assert rel.accepts.all()
    assert all(r.stderr == b"" for r in results)


def _gone_or_zombie(pid: int, within: float) -> bool:
    """Whether ``pid`` no longer runs (exited, perhaps not yet reaped) within ``within`` s."""
    deadline = time.monotonic() + within
    while True:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def _grandchild_config(corpus: Path, pidfile: Path, timeout_secs: float,
                       script: str = "sleep 20 & echo $! > {pidfile}; sleep 20") -> RunConfig:
    # the shell starts one background grandchild and writes its pid to pidfile
    script = script.format(pidfile=shlex.quote(str(pidfile)))
    return RunConfig(
        parsers=(ParserSpec(name="forker", command=f"sh -c {shlex.quote(script)} {{input}}"),),
        corpus=str(corpus),
        glob="doc*",
        timeout_secs=timeout_secs,
    )


@pytest.mark.parametrize(
    "script, timed_out",
    [
        # the grandchild holds the job's stderr open, and the shell outlives the timeout
        ("sleep 20 & echo $! > {pidfile}; sleep 20", True),
        # the shell exits at once and leaves the grandchild behind
        ("sleep 20 > /dev/null 2>&1 & echo $! > {pidfile}", False),
    ],
    ids=["timeout", "exit"],
)
def test_job_process_group_is_killed(tmp_path, script, timed_out):
    (tmp_path / "doc").write_text("x")
    pidfile = tmp_path / "grandchild.pid"
    pid = None
    try:
        start = time.monotonic()
        _, results = run_corpus(_grandchild_config(tmp_path, pidfile, 0.5, script))
        assert time.monotonic() - start < 10
        pid = int(pidfile.read_text())
        assert results[0].timed_out == timed_out and results[0].accept == (not timed_out)
        assert results[0].exit_status == (None if timed_out else 0)
        assert _gone_or_zombie(pid, within=2.0)
    finally:
        if pid is None and pidfile.exists():
            pid = int(pidfile.read_text())
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_interrupted_run_kills_running_jobs(tmp_path, monkeypatch):
    """An exception while jobs run (here ^C at the second launch) kills the first
    job's process group and removes every job directory before propagating."""
    for k in range(2):
        (tmp_path / f"doc{k}").write_text("x")
    pidfile = tmp_path / "grandchild.pid"
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    launch = subprocess.Popen
    launched = []

    def interrupt_second(*args, **kwargs):
        if launched:
            while not pidfile.exists() or not pidfile.read_text().strip():
                time.sleep(0.01)
            raise KeyboardInterrupt
        launched.append(launch(*args, **kwargs))
        return launched[0]

    monkeypatch.setattr(subprocess, "Popen", interrupt_second)
    cfg = _grandchild_config(tmp_path, pidfile, 30)
    cfg = RunConfig(parsers=cfg.parsers, corpus=cfg.corpus, glob=cfg.glob, timeout_secs=30,
                    parallelism=2)
    pid = None
    try:
        with pytest.raises(KeyboardInterrupt):
            run_corpus(cfg)
        pid = int(pidfile.read_text())
        assert launched[0].returncode == -signal.SIGKILL
        assert _gone_or_zombie(pid, within=2.0)
        assert list((tmp_path / "tmp").iterdir()) == []
    finally:
        if pid is None and pidfile.exists():
            pid = int(pidfile.read_text())
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_stderr_flood_is_read_in_bounded_memory(tmp_path):
    stub = tmp_path / "flood.py"
    stub.write_text("import sys\nsys.stderr.buffer.write(b'e' * (8 << 20))\n")
    (tmp_path / "doc").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="flood", command=f"{sys.executable} {stub} {{input}}"),),
        corpus=str(tmp_path),
        glob="doc",
        timeout_secs=20,
        stderr_cap_bytes=64,
    )
    tracemalloc.start()
    try:
        _, results = run_corpus(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert results[0].stderr == b"e" * 64 and results[0].truncated
    assert not results[0].timed_out and results[0].exit_status == 0
    assert peak < 1 << 20


def test_job_directories_are_removed(tmp_path, monkeypatch):
    # jobs run under TMPDIR; a tool's leftover files do not outlive the run
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    stub = tmp_path / "litter.py"
    stub.write_text("open('left-behind', 'w').write('x')\n")
    for k in range(3):
        (tmp_path / f"doc{k}").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="litter", command=f"{sys.executable} {stub} {{input}}"),
                 ParserSpec(name="tidy", command=f"{sys.executable} -c pass {{input}}")),
        corpus=str(tmp_path),
        glob="doc*",
        timeout_secs=20,
        parallelism=2,
    )
    rel = run_relation(*run_corpus(cfg))
    assert rel.accepts.all()
    assert list((tmp_path / "tmp").iterdir()) == []


def test_job_directory_is_empty_for_the_next_job(tmp_path):
    # one job at a time; each reports its working directory and what it finds
    # there, and the jobs on doc0 and doc2 leave a file behind
    stub = tmp_path / "peek.py"
    stub.write_text(
        "import os, sys\n"
        "sys.stderr.write(os.getcwd() + '|' + ','.join(os.listdir('.')))\n"
        "if sys.argv[1].endswith(('doc0', 'doc2')):\n"
        "    open('left-behind', 'w').write('x')\n"
    )
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for k in range(5):
        (corpus / f"doc{k}").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="peek", command=f"{sys.executable} {stub} {{input}}",
                            policy="exit-zero"),),
        corpus=str(corpus),
        glob="doc*",
        timeout_secs=20,
    )
    _, results = run_corpus(cfg)
    seen = [r.stderr.decode().split("|") for r in results]
    assert [listing for _, listing in seen] == [""] * 5
    # the directory a tidy job left is the next job's
    cwds = [cwd for cwd, _ in seen]
    assert cwds[2] == cwds[1] and cwds[4] == cwds[3]


def test_job_directory_its_tool_changed_is_not_reused(tmp_path):
    # the job on doc1 leaves its directory empty but read-only; each job
    # reports its working directory and that directory's mode
    stub = tmp_path / "chmod.py"
    stub.write_text(
        "import os, sys\n"
        "sys.stderr.write(os.getcwd() + '|' + oct(os.stat('.').st_mode))\n"
        "if sys.argv[1].endswith('doc1'):\n"
        "    os.chmod('.', 0o555)\n"
    )
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for k in range(4):
        (corpus / f"doc{k}").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="chmod", command=f"{sys.executable} {stub} {{input}}",
                            policy="exit-zero"),),
        corpus=str(corpus),
        glob="doc*",
        timeout_secs=20,
    )
    _, results = run_corpus(cfg)
    cwds, modes = zip(*(r.stderr.decode().split("|") for r in results))
    assert len(set(modes)) == 1
    assert cwds[1] == cwds[0] and cwds[2] != cwds[1] and cwds[3] == cwds[2]


def test_missing_pidfd_fails_before_running(tmp_path, monkeypatch):
    marker = tmp_path / "ran"
    (tmp_path / "doc").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="toucher", command=f"touch {marker} {{input}}"),),
        corpus=str(tmp_path),
        glob="doc",
        timeout_secs=5,
    )
    monkeypatch.delattr(os, "pidfd_open")
    with pytest.raises(ConfigurationError, match="pidfd"):
        run_corpus(cfg)
    assert not marker.exists()


def test_descriptor_exhaustion_holds_launches_back(tmp_path):
    # Each job in flight holds two descriptors (its stderr pipe and its pidfd)
    # and each launch briefly a few more, so 30 jobs in flight need more than
    # the 48 the `tdt run` process allows itself here: a launch that meets
    # EMFILE waits for a job to end instead of recording a reject.
    import resource

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for k in range(20):
        (corpus / f"doc{k:02d}").write_text("x" * (k % 3))
    script = 'sleep 0.05; test -s "$0" || echo empty >&2'
    parsers = [{"name": name, "command": f"sh -c {shlex.quote(script)} {{input}}"}
               for name in ("A", "B")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                                      env.get("PYTHONPATH")]))

    def lower_limit():
        _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (48, hard))

    outputs = {}
    for parallelism, limit in ((1, None), (30, lower_limit)):
        cfg = tmp_path / f"run{parallelism}.json"
        cfg.write_text(json.dumps({"parsers": parsers, "corpus": str(corpus),
                                   "timeout_secs": 20, "parallelism": parallelism}))
        out = tmp_path / f"rel{parallelism}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "tdt.cli", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "(40 invocations, 0 timeouts, 0 launch failures)" in proc.stdout
        outputs[parallelism] = out.read_bytes()
    assert outputs[30] == outputs[1]
    row = "".join("1" if k % 3 else "0" for k in range(20))
    assert json.loads(outputs[1])["rows"] == [row, row]


@pytest.mark.parametrize("failing_call, errors", [(2, 1), (3, 0)],
                         ids=["first-job-alone", "second-job-behind-the-first"])
def test_pidfd_exhaustion_at_launch(tmp_path, monkeypatch, failing_call, errors):
    # os.pidfd_open runs once up front, then once per launch; the failing call
    # meets EMFILE.  Behind a job in flight the tool just started is killed,
    # and started again once that job ends; with none in flight it is a launch
    # failure.  The run goes on.  Each tool writes its pid, so a job's result
    # comes from its last start.
    import errno

    calls = []
    real = os.pidfd_open

    def pidfd_open(pid, *args):
        calls.append(pid)
        if len(calls) == failing_call:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return real(pid, *args)

    monkeypatch.setattr(os, "pidfd_open", pidfd_open)
    for k in range(3):
        (tmp_path / f"doc{k}").write_text("x")
    cfg = RunConfig(
        parsers=(ParserSpec(name="slow", command="sh -c 'echo $$ >&2; sleep 0.2' {input}",
                            policy="exit-zero"),),
        corpus=str(tmp_path),
        glob="doc*",
        timeout_secs=20,
        parallelism=2,
    )
    _, results = run_corpus(cfg)
    assert [r.error is not None for r in results].count(True) == errors
    assert [r.accept for r in results].count(True) == 3 - errors
    if errors:
        assert "Too many open files" in results[0].error
    launched = calls[1:failing_call - 1] + calls[failing_call:]
    assert [r.stderr for r in results if not r.error] == [b"%d\n" % pid for pid in launched]
