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

from tdt.errors import ConfigurationError, ValidationError
from tdt.harness import (
    ParserSpec,
    RunConfig,
    RunResult,
    accept_rows,
    keyword_table,
    load_run_config,
    results_jsonl,
    run_corpus,
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
    return run_corpus(pattern_config(parallelism=8))


def test_run_corpus_reproduces_patterns(pattern_run):
    inputs, results = pattern_run
    assert inputs == tuple(f"f{k + 1:02d}" for k in range(14))
    assert accept_rows(inputs, results) == dict(zip("ABC", TRIO_ROWS))
    assert len(results) == 42
    assert all(not r.timed_out and r.error is None for r in results)


def test_rows_and_summary_read_the_parser_major_results(pattern_run):
    inputs, results = pattern_run
    assert [(r.parser, r.input) for r in results] == [(p, i) for p in "ABC" for i in inputs]
    rows = accept_rows(inputs, results)
    assert rows == dict(zip("ABC", TRIO_ROWS))
    assert run_summary(inputs, results, rows) == (
        "ran 3 parsers over 14 inputs (42 invocations, 0 timeouts, 0 launch failures)\n"
        + "\n".join(f"  {p}: accepted {row.count('1')}/14" for p, row in rows.items())
    )


def test_run_corpus_parallelism_is_invisible(pattern_run):
    inputs, results = run_corpus(pattern_config(parallelism=1))
    assert inputs == pattern_run[0]
    assert accept_rows(inputs, results) == accept_rows(*pattern_run)


def test_run_corpus_policies_agree_for_stub():
    # the stub pairs stderr output with a nonzero exit, so all policies match
    for policy in ("exit-zero", "both"):
        rows = accept_rows(*run_corpus(pattern_config(parallelism=8, policy=policy)))
        assert rows["A"] == TRIO_ROWS[0]


def test_policy_both_needs_empty_stderr_and_exit_zero(tmp_path):
    # a tool that writes stderr but exits 0, or exits 1 with empty stderr, is
    # accepted by one policy each, and rejected under ``both``
    stub = tmp_path / "mixed.py"
    stub.write_text(
        "import sys\n"
        "kind = open(sys.argv[1]).read()\n"
        "if kind == 'warns':\n"
        "    sys.stderr.write('warning\\n')\n"
        "sys.exit(1 if kind == 'fails' else 0)\n"
    )
    for kind in ("clean", "fails", "warns"):
        (tmp_path / f"doc-{kind}").write_text(kind)
    command = f"{sys.executable} {stub} {{input}}"
    cfg = RunConfig(
        parsers=tuple(ParserSpec(name=policy, command=command, policy=policy)
                      for policy in ("stderr-empty", "exit-zero", "both")),
        corpus=str(tmp_path),
        glob="doc-*",
        timeout_secs=20,
        parallelism=2,
    )
    inputs, results = run_corpus(cfg)
    assert inputs == ("doc-clean", "doc-fails", "doc-warns")
    assert [(r.exit_status, r.stderr) for r in results[:3]] == [
        (0, b""), (1, b""), (0, b"warning\n")]
    assert accept_rows(inputs, results) == {"stderr-empty": "110", "exit-zero": "101",
                                            "both": "100"}


def test_death_by_signal_is_a_reject_under_every_policy(tmp_path):
    stub = tmp_path / "crash.py"
    stub.write_text("import os, signal\nos.kill(os.getpid(), signal.SIGKILL)\n")
    (tmp_path / "doc").write_text("x")
    command = f"{sys.executable} {stub} {{input}}"
    cfg = RunConfig(
        parsers=tuple(ParserSpec(name=policy, command=command, policy=policy)
                      for policy in ("stderr-empty", "exit-zero", "both")),
        corpus=str(tmp_path),
        glob="doc",
        timeout_secs=20,
        parallelism=3,
    )
    _, results = run_corpus(cfg)
    assert [(r.exit_status, r.stderr, r.timed_out, r.error, r.accept) for r in results] == [
        (-signal.SIGKILL, b"", False, None, False)] * 3


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
    assert accept_rows(*run_corpus(cfg)) == {"ok": "11111"}


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
    assert accept_rows(inputs, results) == {"size": "".join(str(1 - size % 2) for size in sizes)}
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
    assert accept_rows(inputs, results) == {"slow": "00"}
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


def test_results_jsonl_reload(pattern_run):
    _, results = pattern_run
    reloaded = [json.loads(line) for line in results_jsonl(results).splitlines()]
    assert [(r["parser"], r["input"], r["accept"], r["stderr"].encode("latin-1"))
            for r in reloaded] == [(r.parser, r.input, r.accept, r.stderr) for r in results]


def test_keyword_table(pattern_run):
    inputs, results = pattern_run
    keywords = {"A": ("parse error",), "B": ("parse error", "f13"), "C": ()}
    header, *lines = keyword_table(inputs, results, keywords).splitlines()
    assert header == "input,A:parse error,B:parse error,B:f13"
    row = dict(line.split(",", 1) for line in lines)
    assert list(row) == list(inputs)
    # f01 is rejected by A and B: both match "parse error"; only f13 matches "f13"
    assert row["f01"] == "1,1,0"
    assert row["f13"].endswith(",1")
    # f12 is accepted by everyone: empty stderr, no matches
    assert row["f12"] == "0,0,0"


def test_keyword_table_needs_keywords(tmp_path, capsys):
    """``run --keywords-out`` with no keyword configured fails before any parser
    runs, and writes no file."""
    from tdt.cli import main

    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "f1").write_text("x")
    marker = tmp_path / "ran"
    touch = f"import pathlib; pathlib.Path({str(marker)!r}).touch()"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "parsers": [{"name": "A", "command": f'{sys.executable} -c "{touch}" {{input}}'}],
        "corpus": str(tmp_path / "corpus"),
    }))
    out = tmp_path / "out"
    out.mkdir()
    argv = ["run", "--config", str(cfg_path), "--out", str(out / "rel.json"),
            "--results", str(out / "r.jsonl"), "--keywords-out", str(out / "kw.csv")]
    assert main(argv) == 2
    assert "at least one parser needs a nonempty keyword list" in capsys.readouterr().err
    assert not marker.exists()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("keywords, column", [
    ({"A": ["parse error", "parse error"]}, "A:parse error"),
    ({"A": ["b:c"], "A:b": ["c"]}, "A:b:c"),
], ids=["one-parser", "across-parsers"])
def test_repeated_keyword_columns_fail_before_any_parser_runs(tmp_path, capsys, keywords, column):
    """A keyword CSV naming a column twice would be a feature file that ``tdt
    features`` rejects, so ``run`` refuses the configuration before any parser
    runs, with or without ``--keywords-out``, and writes no file."""
    from tdt.cli import main

    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "f1").write_text("x")
    marker = tmp_path / "ran"
    touch = f"import pathlib; pathlib.Path({str(marker)!r}).touch()"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "parsers": [{"name": name, "command": f'{sys.executable} -c "{touch}" {{input}}',
                     "keywords": kws} for name, kws in keywords.items()],
        "corpus": str(tmp_path / "corpus"),
    }))
    out = tmp_path / "out"
    out.mkdir()
    for extra in ([], ["--keywords-out", str(out / "kw.csv")]):
        assert main(["run", "--config", str(cfg_path), "--out", str(out / "rel.json"), *extra]) == 2
        assert capsys.readouterr() == (
            "", f"error: {cfg_path}: duplicate keyword column {column!r}\n")
    assert not marker.exists()
    assert list(out.iterdir()) == []


def test_keyword_table_csv(pattern_run):
    inputs, results = pattern_run
    # the stub writes "parse error" on each input it rejects, and on no other
    accepted = accept_rows(inputs, results)["A"]
    assert keyword_table(inputs, results, {"A": ("parse error",)}) == (
        "input,A:parse error\n"
        + "".join(f"{name},{1 - int(a)}\n" for name, a in zip(inputs, accepted)))


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
    assert accept_rows(inputs, results) == {"broken": "0"}
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
    assert accept_rows(inputs, results) == {"scratchy": "111111"}
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
    assert accept_rows(*run_corpus(cfg)) == {"litter": "111", "tidy": "111"}
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
