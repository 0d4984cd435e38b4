import json
import re
import sys
from pathlib import Path

import pytest

from tdt.classify import load_ground_truth
from tdt.cli import main
from tdt.errors import FormatError
from tdt.harness import load_results_jsonl, load_run_config
from tdt.relation import load_feature_relation, load_relation, save_relation

from conftest import write_run_config

DATA = Path(__file__).parent / "data"


@pytest.fixture
def toy_json(tmp_path, toy_relation):
    path = tmp_path / "toy.json"
    save_relation(toy_relation, path)
    return path


@pytest.fixture
def trio_json(tmp_path, trio_relation):
    path = tmp_path / "trio.json"
    save_relation(trio_relation, path)
    return path


@pytest.fixture
def graded_json(tmp_path, graded_relation):
    path = tmp_path / "graded.json"
    save_relation(graded_relation, path)
    return path


def test_run_subcommand(tmp_path, capsys):
    cfg = write_run_config(tmp_path, parallelism=8)
    out = tmp_path / "rel.json"
    results = tmp_path / "results.jsonl"
    kw = tmp_path / "keywords.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--results", str(results), "--keywords-out", str(kw)])
    assert code == 0
    rel = load_relation(out)
    assert rel.m == 3 and rel.n == 14
    assert len(results.read_text().splitlines()) == 42
    assert kw.read_text().startswith("input,")
    assert "accepted 7/14" in capsys.readouterr().out


def test_run_writes_the_golden_relation(tmp_path):
    out = tmp_path / "rel.json"
    assert main(["run", "--config", str(write_run_config(tmp_path)), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "relation_3x14.golden.json").read_bytes()


def test_run_out_takes_its_format_from_the_name(tmp_path, capsys):
    from tdt.relation import relation_csv

    cfg = str(write_run_config(tmp_path))
    for name in ("rel.json", "rel.csv"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    golden = load_relation(DATA / "relation_3x14.golden.json")
    assert (tmp_path / "rel.csv").read_text() == relation_csv(golden)
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "rel.json")]) == 0
    expected = capsys.readouterr().out
    assert main(["analyze", str(tmp_path / "rel.csv")]) == 0
    assert capsys.readouterr().out == expected


def test_run_missing_corpus(tmp_path, capsys):
    cfg = {
        "parsers": [{"name": "A", "command": f"{sys.executable} -c pass {{input}}"}],
        "corpus": str(tmp_path / "nowhere"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rel.json"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "change, field",
    [
        ({"parsers": 5}, "'parsers'"),
        ({"timeout_secs": "30"}, "'timeout_secs'"),
        ({"parallelism": 2.5}, "'parallelism'"),
        ({"parallelism": True}, "'parallelism'"),
        ({"stderr_cap_bytes": "64"}, "'stderr_cap_bytes'"),
        ({"corpus": 7}, "'corpus'"),
        ({"glob": ["f*"]}, "'glob'"),
        ({"keywords": "parse error"}, "'keywords'"),
        ({"keywords": ["parse error", 3]}, "'keywords'"),
    ],
    ids=["parsers-int", "timeout-str", "parallelism-float", "parallelism-bool",
         "stderr-cap-str", "corpus-int", "glob-list", "keywords-str", "keywords-int-item"],
)
def test_run_rejects_mistyped_config_field(tmp_path, capsys, change, field):
    cfg = {
        "parsers": [{"name": "A", "command": f"{sys.executable} -c pass {{input}}"}],
        "corpus": str(DATA / "corpus14"),
    }
    if "keywords" in change:
        cfg["parsers"][0]["keywords"] = change["keywords"]
    else:
        cfg.update(change)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: .*{field}"):
        load_run_config(path)
    out = tmp_path / "rel.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and field in err
    assert not out.exists()


@pytest.mark.parametrize("timeout", [0, float("nan"), float("inf")], ids=["zero", "nan", "inf"])
def test_run_rejects_timeout_out_of_range(tmp_path, capsys, timeout):
    cfg = {
        "parsers": [{"name": "A", "command": f"{sys.executable} -c pass {{input}}"}],
        "corpus": str(DATA / "corpus14"),
        "timeout_secs": timeout,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rel.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: timeout_secs must be a finite number > 0\n"
    )
    assert not out.exists()


def test_analyze_toy(tmp_path, toy_json, capsys):
    dot = tmp_path / "graph.dot"
    inconsistent = tmp_path / "inc.json"
    weights = tmp_path / "weights.json"
    code = main(["analyze", str(toy_json), "--dot", str(dot),
                 "--inconsistent", str(inconsistent), "--weights", str(weights),
                 "--betti", "2"])
    assert code == 0
    assert dot.read_text().count("color=red") == 3
    assert json.loads(inconsistent.read_text()) == [
        "f10", "f13", "f17", "f18", "f19", "f20",
    ]
    report = json.loads(weights.read_text())
    assert report["consistent"] is False
    out = capsys.readouterr().out
    assert "betti: 1 1 0" in out


def test_analyze_all_ones(tmp_path, capsys):
    from conftest import relation_from_rows

    rel = relation_from_rows(("1111", "1111"))
    path = tmp_path / "ones.json"
    save_relation(rel, path)
    dot = tmp_path / "graph.dot"
    inconsistent = tmp_path / "inc.json"
    code = main(["analyze", str(path), "--dot", str(dot), "--inconsistent", str(inconsistent)])
    assert code == 0
    assert "color=red" not in dot.read_text()
    assert json.loads(inconsistent.read_text()) == []


def test_distill_subcommand(tmp_path, trio_json, capsys):
    trace = tmp_path / "trace.json"
    out = tmp_path / "distilled.json"
    code = main(["distill", str(trio_json), "--trace", str(trace), "--out", str(out)])
    assert code == 0
    payload = json.loads(trace.read_text())
    assert payload["screened"] == ["B"]
    final = load_relation(out)
    assert final.m == 1 and final.programs[0] in ("A", "C")
    assert "screened out: B" in capsys.readouterr().out


def test_score_subcommand(tmp_path, toy_json, capsys):
    hist = tmp_path / "hist.csv"
    scores = tmp_path / "scores.csv"
    code = main(["score", str(toy_json), "--min-size", "2",
                 "--scores", str(scores), "--hist", str(hist)])
    assert code == 0
    rows = [line.split(",") for line in hist.read_text().splitlines()[1:]]
    assert sum(int(count) for _, count in rows) == 20
    assert scores.read_text().splitlines()[0] == "input_id,score"


def test_score_restriction(tmp_path, toy_json):
    restricted = tmp_path / "restricted.json"
    code = main(["score", str(toy_json), "--restrict-below", "3",
                 "--restricted-out", str(restricted)])
    assert code == 0
    rel = load_relation(restricted)
    assert rel.n == 14  # drops the five score-3 files and the score-4 file


def test_select_subcommand(tmp_path, graded_json, capsys):
    report = tmp_path / "report.csv"
    out = tmp_path / "selected.json"
    code = main(["select", str(graded_json), "--threshold", "20",
                 "--out", str(out), "--report", str(report)])
    assert code == 0
    assert "kept 990 / 1000" in capsys.readouterr().out
    assert load_relation(out).n == 990
    assert "20,10,1" in report.read_text().splitlines()


def test_select_rejects_inconsistent(tmp_path, trio_json, capsys):
    code = main(["select", str(trio_json), "--threshold", "1"])
    assert code == 2
    assert "distill" in capsys.readouterr().err


def test_sheaf_subcommand(tmp_path, graded_json, capsys):
    code = main(["sheaf", str(graded_json), "--sigma", "A", "--display"])
    assert code == 0
    out = capsys.readouterr().out
    # stalk JSON printed first, then the display vector
    assert '"sigma"' in out
    assert "[2, 20, 30, 900]" in out


def test_sheaf_to_file(tmp_path, graded_json):
    out = tmp_path / "stalk.json"
    code = main(["sheaf", str(graded_json), "--sigma", "A,B", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["sigma"] == ["A", "B"]
    assert payload["consistent"] is True


def test_features_subcommand(tmp_path, toy_json, toy_features):
    from tdt.relation import feature_relation_csv

    feats_csv = tmp_path / "feats.csv"
    feats_csv.write_text(feature_relation_csv(toy_features))
    out = tmp_path / "attribution.json"
    code = main(["features", str(toy_json), "--features", str(feats_csv),
                 "--out", str(out), "--prune", "1"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["stratification"] == {"x": 0, "y": 3, "z": 3}
    assert payload["levels"]["0"] == ["x"]
    assert len(payload["pruning"]) == 1


def test_classify_vote(tmp_path, trio_relation, trio_json, capsys):
    truth_csv = tmp_path / "truth.csv"
    lines = ["input,compliant"]
    lines += [f"{name},1" for name in trio_relation.inputs]
    truth_csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    code = main(["classify", str(trio_json), "--vote", "3",
                 "--truth", str(truth_csv), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload["counts"]) == {"tp", "fp", "fn", "tn"}
    text = capsys.readouterr().out
    assert "precision" in text


def test_classify_rule_without_mode_is_usage_error(tmp_path, trio_json, capsys):
    code = main(["classify", str(trio_json)])
    assert code == 2


def test_export_pgm(tmp_path, trio_json):
    out = tmp_path / "rel.pgm"
    code = main(["export-pgm", str(trio_json), "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[:3] == ["P2", "14 3", "255"]


def test_missing_relation_file(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "absent.json")])
    assert code == 2


def test_outputs_are_idempotent(tmp_path, toy_json):
    first = tmp_path / "a.dot"
    second = tmp_path / "b.dot"
    assert main(["analyze", str(toy_json), "--dot", str(first)]) == 0
    assert main(["analyze", str(toy_json), "--dot", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_partial_failure_exits_one(tmp_path):
    bad = tmp_path / "broken-tool"
    bad.write_text("#!/nonexistent-interpreter\n")
    bad.chmod(0o755)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "doc").write_text("x")
    cfg = {
        "parsers": [{"name": "broken", "command": f"{bad} {{input}}"}],
        "corpus": str(corpus),
        "glob": "doc",
        "timeout_secs": 5,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rel.json"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    # the partial store is preserved: the relation was still written
    assert out.exists()


def test_demo_toy_script_runs():
    import os
    import subprocess

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "demo_toy.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (
        "inconsistent files: ['f10', 'f13', 'f17', 'f18', 'f19', 'f20']" in proc.stdout
    )


def test_demo_harness_script_runs(tmp_path):
    import os
    import subprocess

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # the demo keeps its scratch directory, so give it one that pytest removes
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "demo_harness.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ran 3 parsers over 14 inputs (42 invocations, 0 timeouts" in proc.stdout
    assert "surviving programs: C" in proc.stdout
    scratch = Path(proc.stdout.strip().splitlines()[-1].removeprefix("artifacts in "))
    assert scratch.parent == tmp_path
    assert load_relation(scratch / "relation.json").n == 14


# Each loader's file, long enough that the stream decodes it in several chunks,
# with "@" where a byte that is not UTF-8 goes.
_RESULT = ('{"accept": false, "error": null, "exit_status": 1, "input": "f1", "parser": "A", '
           '"stderr": "%s", "timed_out": false, "truncated": false, "wall_time": 0.5}\n')
NOT_UTF8 = {
    "relation-json": ("rel.json", load_relation,
                      '{"programs": ["A"], "inputs": ["' + "x" * 10000 + '@"], "rows": ["1"]}'),
    "relation-csv": ("rel.csv", load_relation, "input,A\n" + "x,1\n" * 3000 + "@,1\n"),
    "features-csv": ("feats.csv", load_feature_relation,
                     "input,f\n" + "x,1\n" * 3000 + "@,1\n"),
    "truth-csv": ("truth.csv", lambda path: load_ground_truth(path, None),
                  "input,compliant\n" + "".join(f"x{k},1\n" for k in range(2000)) + "@,1\n"),
    "run-config": ("run.json", load_run_config,
                   '{"parsers": [{"name": "A", "command": "tool {input}"}], "corpus": "'
                   + "c" * 10000 + '@"}'),
    "results-jsonl": ("results.jsonl", load_results_jsonl, _RESULT % "e" * 100 + _RESULT % "@"),
}


@pytest.mark.parametrize("name", sorted(NOT_UTF8))
def test_loaders_reject_bytes_that_are_not_utf8(tmp_path, name):
    filename, load, text = NOT_UTF8[name]
    path = tmp_path / filename
    path.write_bytes(text.encode().replace(b"@", b"\xff"))
    with pytest.raises(FormatError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}: byte {text.index('@')} is not valid UTF-8"


# Each CSV loader's file with an id longer than the csv module's field limit,
# on line 3.
_LONG_ID = "x" * 200_000
FIELD_TOO_LARGE = {
    "relation-csv": ("rel.csv", load_relation, f"input,A\ny,1\n{_LONG_ID},1\n"),
    "features-csv": ("feats.csv", load_feature_relation, f"input,f\ny,1\n{_LONG_ID},1\n"),
    "truth-csv": ("truth.csv", lambda path: load_ground_truth(path, None),
                  f"input,compliant\ny,1\n{_LONG_ID},1\n"),
}


@pytest.mark.parametrize("name", sorted(FIELD_TOO_LARGE))
def test_csv_loaders_reject_fields_over_the_csv_limit(tmp_path, name):
    import csv

    filename, load, text = FIELD_TOO_LARGE[name]
    path = tmp_path / filename
    path.write_text(text)
    with pytest.raises(FormatError) as excinfo:
        load(path)
    limit = csv.field_size_limit()
    assert str(excinfo.value) == f"{path}: line 3: field larger than field limit ({limit})"


# Each CSV loader's file whose id on line 2 is a quoted "a<newline>b", so
# the next record, with a bad cell, starts on physical line 4.
QUOTED_NEWLINE = {
    "relation-csv": ("rel.csv", load_relation, 'input,A\n"a\nb",1\nc,x\n',
                     "column 'A' is 'x', expected 0 or 1"),
    "features-csv": ("feats.csv", load_feature_relation, 'input,f\n"a\nb",1\nc,x\n',
                     "cell 'x', expected 0 or 1"),
    "truth-csv": ("truth.csv", lambda path: load_ground_truth(path, None),
                  'input,compliant\n"a\nb",1\nc,x\n', "cell 'x', expected 0 or 1"),
}


@pytest.mark.parametrize("name", sorted(QUOTED_NEWLINE))
def test_csv_loaders_name_the_physical_line(tmp_path, name):
    filename, load, text, message = QUOTED_NEWLINE[name]
    path = tmp_path / filename
    path.write_text(text)
    with pytest.raises(FormatError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}: line 4: {message}"
    # a row of the wrong width is named by its physical line too
    path.write_text(text.replace("c,x", "\nc,1,1"))
    with pytest.raises(FormatError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}: line 5: expected 2 cells, got 3"


def test_csv_field_over_the_limit_exits_two(tmp_path, capsys, trio_json):
    path = tmp_path / "big.csv"
    for argv, header in (
        (["features", str(trio_json), "--features", str(path)], "input,f"),
        (["classify", str(trio_json), "--vote", "1", "--truth", str(path)], "input,compliant"),
    ):
        path.write_text(f"{header}\n{_LONG_ID},1\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 2: field larger than field limit")
        assert "Traceback" not in err


def test_analyze_relation_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "rel.json"
    path.write_bytes(b'{"programs": ["A"], "inputs": ["\xff"], "rows": ["1"]}')
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "byte 32 is not valid UTF-8" in err and "Traceback" not in err


# Each JSON loader's file with a value the decoder gives up on: nesting deeper
# than the recursion limit, or an integer longer than Python converts.
_DEEP = "[" * 200_000
UNDECODABLE_JSON = {
    "relation-deep": ("rel.json", load_relation, _DEEP, "maximum recursion depth"),
    "relation-long-integer": ("rel.json", load_relation,
                              '{"programs": [' + "1" * 5000 + "]}", "Exceeds the limit"),
    "run-config-deep": ("run.json", load_run_config, _DEEP, "maximum recursion depth"),
    "results-jsonl-deep": ("results.jsonl", load_results_jsonl,
                           _RESULT % "e" + _DEEP + "\n", "maximum recursion depth"),
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE_JSON))
def test_json_loaders_reject_what_the_decoder_cannot_hold(tmp_path, name):
    filename, load, text, reason = UNDECODABLE_JSON[name]
    path = tmp_path / filename
    path.write_text(text)
    with pytest.raises(FormatError) as excinfo:
        load(path)
    where = f"{path}: line 2" if filename.endswith(".jsonl") else str(path)
    assert str(excinfo.value).startswith(f"{where}: invalid JSON: {reason}")


def test_undecodable_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    for argv in (["analyze", str(path)],
                 ["run", "--config", str(path), "--out", str(tmp_path / "rel.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: maximum recursion depth")
        assert "Traceback" not in err
    assert not (tmp_path / "rel.json").exists()


def test_json_object_messages(tmp_path):
    path = tmp_path / "rel.json"
    where = re.escape(str(path))
    path.write_text("[1]")
    with pytest.raises(FormatError, match=rf"^{where}: top-level value must be an object$"):
        load_relation(path)
    path.write_text('{"programs": ')
    with pytest.raises(FormatError,
                       match=rf"^{where}: invalid JSON: Expecting value: line 1 column 14"):
        load_relation(path)
    results = tmp_path / "results.jsonl"
    results.write_text(_RESULT % "e" + "\n" + "7\n")
    with pytest.raises(FormatError, match=r": line 3: top-level value must be an object$"):
        load_results_jsonl(results)


def test_relation_outputs_take_their_format_from_the_name(tmp_path, trio_json, graded_json,
                                                           trio_relation, capsys):
    from tdt.relation import relation_csv, relation_json

    def write(argv, name):
        """Run argv with the relation file name appended; that file's text."""
        assert main([*argv, str(tmp_path / name)]) == 0
        return (tmp_path / name).read_text()

    distill = ["distill", str(trio_json), "--out"]
    distilled = write(distill, "d.json")
    assert distilled == relation_json(load_relation(tmp_path / "d.json"))
    assert write(distill, "d") == distilled  # a name without .csv is JSON
    assert write(distill, "d.csv") == relation_csv(load_relation(tmp_path / "d.json"))
    score = ["score", str(trio_json), "--restrict-below", "1", "--restricted-out"]
    write(score, "r.json")
    assert write(score, "r.CSV") == relation_csv(load_relation(tmp_path / "r.json"))
    select = ["select", str(graded_json), "--threshold", "20", "--out"]
    write(select, "s.json")
    assert write(select, "s.csv") == relation_csv(load_relation(tmp_path / "s.json"))
    (tmp_path / "t.csv").write_text(relation_csv(trio_relation))
    capsys.readouterr()
    # analysis commands read each CSV back as the same relation as its JSON
    for stem, rel_json in (("d", tmp_path / "d.json"), ("s", tmp_path / "s.json"),
                           ("t", trio_json)):
        assert main(["analyze", str(rel_json)]) == 0
        expected = capsys.readouterr().out
        assert main(["analyze", str(tmp_path / f"{stem}.csv")]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["distill", "score", "select"])
def test_format_option_is_gone(trio_json, capsys, command):
    argv = [command, str(trio_json), "--format", "csv"]
    if command == "select":
        argv += ["--threshold", "1"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
