import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from tdt.classify import load_ground_truth
from tdt.cli import main
from tdt.errors import FormatError
from tdt.harness import load_run_config
from tdt.relation import Relation, load_feature_relation, load_relation, save_relation

from conftest import relation_from_masks, write_run_config

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


@pytest.mark.parametrize("timeout", [0, float("nan"), float("inf"), 10**7, 10**399],
                         ids=["zero", "nan", "inf", "1e7", "400-digits"])
def test_run_rejects_timeout_out_of_range(tmp_path, capsys, timeout):
    # a parser that starts leaves a file behind
    started = shlex.quote(str(tmp_path / "started"))
    cfg = {
        "parsers": [{"name": "A", "command": f"touch {started} {{input}}"}],
        "corpus": str(DATA / "corpus14"),
        "timeout_secs": timeout,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rel.json"
    argv = ["run", "--config", str(path), "--out", str(out), "--results", str(tmp_path / "r.jsonl")]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: timeout_secs must be a number > 0 and <= 2147483.647\n"
    )
    assert list(tmp_path.iterdir()) == [path]


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


def test_analyze_builds_one_weight_vector_and_one_core(tmp_path, toy_json, capsys, monkeypatch):
    import tdt.diagram

    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    weights = counting("region_weights", tdt.diagram.region_weights)
    monkeypatch.setattr(tdt.diagram, "region_weights", weights)
    # the core comes from the red-edge pass, not a second comparison of covering pairs
    monkeypatch.setattr(tdt.diagram, "heaviest_facet",
                        counting("heaviest_facet", tdt.diagram.heaviest_facet))
    inconsistent = tmp_path / "inc.json"
    assert main(["analyze", str(toy_json), "--inconsistent", str(inconsistent)]) == 0
    assert calls == ["region_weights"]
    assert capsys.readouterr().out == (
        "4 programs, 20 inputs: 10 faces, 3 inconsistent edges, "
        "7 faces in the consistent core, 6 inconsistent inputs\n"
        "diagram consistent: False\n"
    )
    assert inconsistent.read_text() == (
        '[\n  "f10",\n  "f13",\n  "f17",\n  "f18",\n  "f19",\n  "f20"\n]\n'
    )


def test_analyze_lists_faces_from_one_weight_vector_and_one_face_pass(tmp_path, toy_json,
                                                                       monkeypatch):
    import tdt.diagram
    import tdt.dowker

    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    weights = counting("region_weights", tdt.diagram.region_weights)
    monkeypatch.setattr(tdt.diagram, "region_weights", weights)
    monkeypatch.setattr(tdt.diagram, "superset_or",
                        counting("superset_or", tdt.diagram.superset_or))
    dot = tmp_path / "g.dot"
    assert main(["analyze", str(toy_json), "--dot", str(dot), "--betti", "2"]) == 0
    assert sorted(calls) == ["region_weights", "superset_or"]
    assert dot.read_text().count("color=red") == 3


def test_analyze_rejects_a_negative_betti_before_any_work(tmp_path, capsys):
    inconsistent = tmp_path / "i.json"
    code = main(["analyze", str(DATA / "relation_3x14.golden.json"), "--betti", "-1",
                 "--inconsistent", str(inconsistent)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: max_dim must be >= 0\n")
    assert not inconsistent.exists()


def test_analyze_rejects_a_betti_past_the_program_cap_before_any_work(tmp_path, capsys):
    inconsistent = tmp_path / "i.json"
    code = main(["analyze", str(DATA / "relation_3x14.golden.json"),
                 "--betti", "99999999999999999999999", "--inconsistent", str(inconsistent)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: max_dim must be <= 24\n")
    assert not inconsistent.exists()


def test_analyze_counts_faces_past_the_face_budget(tmp_path, capsys):
    # one input accepted by all 20 programs spans 2^20 - 1 faces; the summary
    # counts them, and only the outputs that list faces hit the budget
    path = tmp_path / "big.json"
    save_relation(relation_from_masks([(1 << 20) - 1], m=20), path)
    inconsistent = tmp_path / "inc.json"
    assert main(["analyze", str(path), "--inconsistent", str(inconsistent)]) == 0
    assert capsys.readouterr().out == (
        "20 programs, 1 inputs: 1048575 faces, 0 inconsistent edges, "
        "1048575 faces in the consistent core, 0 inconsistent inputs\n"
        "diagram consistent: True\n"
    )
    assert json.loads(inconsistent.read_text()) == []
    dot, unwritten = tmp_path / "g.dot", tmp_path / "unwritten.json"
    assert main(["analyze", str(path), "--dot", str(dot), "--inconsistent", str(unwritten)]) == 2
    assert capsys.readouterr() == ("", "error: complex exceeds the 1000000-face budget\n")
    assert not dot.exists() and not unwritten.exists()
    # Betti numbers need no list of faces
    assert main(["analyze", str(path), "--betti", "1"]) == 0
    assert capsys.readouterr().out.endswith("diagram consistent: True\nbetti: 1 0\n")


def test_analyze_betti_on_a_hollow_simplex_past_the_face_budget(tmp_path, capsys):
    # every input rejected by exactly one of 20 programs: the boundary of a
    # 19-simplex, 2^20 - 2 faces, whose Betti numbers need no list of faces
    path = tmp_path / "hollow.json"
    full = (1 << 20) - 1
    save_relation(relation_from_masks([full ^ 1 << j for j in range(20)], m=20), path)
    assert main(["analyze", str(path), "--betti", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("20 programs, 20 inputs: 1048574 faces, 0 inconsistent edges, ")
    assert out.endswith("\nbetti: 1 0 0\n")


def test_analyze_betti_past_the_face_budget_writes_every_output(tmp_path, capsys):
    # a uniform m = 22, n = 30 relation spans 1,877,419 faces: the Morse boundary
    # needs no face list, so --betti neither exits 2 nor leaves the outputs partial
    rows = np.random.default_rng(0).random((22, 30)) < 0.7
    path = tmp_path / "m22.json"
    save_relation(Relation(programs=tuple(f"P{j}" for j in range(22)),
                           inputs=tuple(f"i{k}" for k in range(30)), accepts=rows), path)
    inconsistent = tmp_path / "i.json"
    assert main(["analyze", str(path), "--inconsistent", str(inconsistent), "--betti", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("22 programs, 30 inputs: 1877419 faces, 41 inconsistent edges, ")
    assert out.endswith("\nbetti: 1 0 0 0 0 0 2 0 0\n")
    assert len(json.loads(inconsistent.read_text())) == 4


def test_analyze_escapes_dot_labels(tmp_path, capsys):
    path = tmp_path / "q.json"
    save_relation(relation_from_masks([1, 3], m=2, programs=('a"b', "c\\d")), path)
    dot = tmp_path / "q.dot"
    assert main(["analyze", str(path), "--dot", str(dot)]) == 0
    assert dot.read_text() == (
        "digraph dowker {\n"
        '    n1 [label="{a\\"b}; 1"];\n'
        '    n2 [label="{c\\\\d}; 0"];\n'
        '    n3 [label="{a\\"b,c\\\\d}; 1"];\n'
        "    n3 -> n1;\n"
        "    n3 -> n2;\n"
        "}\n"
    )


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


def test_score_restricted_out_needs_restrict_below(tmp_path, toy_json, capsys):
    restricted = tmp_path / "restricted.json"
    code = main(["score", str(toy_json), "--restricted-out", str(restricted)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--restrict-below" in captured.err
    assert not restricted.exists()


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


def test_features_subcommand(tmp_path, toy_json, toy_relation, toy_features):
    from conftest import feature_csv

    feats_csv = tmp_path / "feats.csv"
    feats_csv.write_text(feature_csv(toy_relation.inputs, *toy_features))
    out = tmp_path / "attribution.json"
    code = main(["features", str(toy_json), "--features", str(feats_csv),
                 "--out", str(out), "--prune", "1"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["stratification"] == {"x": 0, "y": 3, "z": 3}
    assert payload["levels"]["0"] == ["x"]
    assert len(payload["pruning"]) == 1


def test_features_without_feature_columns(tmp_path, toy_json, toy_relation, capsys):
    feats_csv = tmp_path / "none.csv"
    feats_csv.write_text("input\n" + "".join(f"{name}\n" for name in toy_relation.inputs))
    assert main(["features", str(toy_json), "--features", str(feats_csv), "--prune", "0"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "levels": {\n    "0": [],\n    "1": [],\n    "2": [],\n    "3": []\n  },\n'
        '  "pruning": [],\n  "stratification": {}\n}\n'
    )


def test_features_checks_prune_rounds_before_the_sweep(tmp_path, trio_json, trio_relation,
                                                    capsys, monkeypatch):
    import tdt.features

    def no_sweep(*args, **kwargs):
        raise AssertionError("the attribution sweep ran")

    monkeypatch.setattr(tdt.features, "attribute_features", no_sweep)
    feats_csv = tmp_path / "feats.csv"
    feats_csv.write_text("input,odd,low\n" + "".join(
        f"{name},{k % 2},{int(k < 7)}\n" for k, name in enumerate(trio_relation.inputs)))
    for rounds in ("5", "-1"):
        argv = ["features", str(trio_json), "--features", str(feats_csv), "--prune", rounds]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rounds must lie in 0..2\n"


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


def test_classify_vote_with_a_score_rule_is_usage_error(trio_json, capsys):
    for rule in (["--below", "1"], ["--equal", "0"]):
        assert main(["classify", str(trio_json), "--vote", "1", *rule]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--vote" in captured.err


def test_classify_vote_with_min_size_is_usage_error(trio_json, capsys):
    assert main(["classify", str(trio_json), "--vote", "1", "--min-size", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--min-size" in captured.err and "--vote" in captured.err
    # a score rule takes it
    assert main(["classify", str(trio_json), "--below", "1", "--min-size", "3"]) == 0


def test_classify_truth_without_out_prints_only_plain_lines(tmp_path, trio_relation, trio_json,
                                                            capsys):
    truth_csv = tmp_path / "truth.csv"
    truth_csv.write_text("input,compliant\n" + "".join(
        f"{name},{int(k % 3 != 0)}\n" for k, name in enumerate(trio_relation.inputs)))
    assert main(["classify", str(trio_json), "--vote", "1", "--truth", str(truth_csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines] == ["flagged", "precision:", "recall:", "f1:"]
    out = tmp_path / "report.json"
    assert main(["classify", str(trio_json), "--vote", "1", "--truth", str(truth_csv),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert set(json.loads(out.read_text())) == {"counts", "f1", "flagged", "precision", "recall"}


def test_classify_vote_out_without_truth_writes_the_flagged_ids(tmp_path, capsys):
    out = tmp_path / "flagged.json"
    assert main(["classify", str(DATA / "relation_3x14.golden.json"), "--vote", "2",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "flagged 8 / 14 inputs as non-compliant\n"
    assert out.read_text() == (
        '[\n  "f01",\n  "f02",\n  "f03",\n  "f06",\n  "f07",\n  "f08",\n  "f11",\n  "f14"\n]\n'
    )


def test_classify_bad_truth_fails_before_printing(tmp_path, trio_json, capsys):
    code = main(["classify", str(trio_json), "--vote", "1",
                 "--truth", str(tmp_path / "missing.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing.csv" in captured.err


def test_export_pgm(tmp_path, trio_json):
    out = tmp_path / "rel.pgm"
    code = main(["export-pgm", str(trio_json), "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[:3] == ["P2", "14 3", "255"]


def test_missing_relation_file(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "absent.json")])
    assert code == 2


# (id, arguments after the command with {tmp} for a directory holding the file
# "file", the path the error names, and its errno text)
UNUSABLE_PATHS = [
    ("output-directory", ["analyze", "{golden}", "--inconsistent", "{tmp}"], "{tmp}",
     "[Errno 21] Is a directory"),
    ("output-under-a-file", ["analyze", "{golden}", "--weights", "{tmp}/file/w.json"],
     "{tmp}/file/w.json", "[Errno 20] Not a directory"),
    ("relation-directory", ["distill", "{tmp}"], "{tmp}", "[Errno 21] Is a directory"),
]


@pytest.mark.parametrize("argv, named, reason", [case[1:] for case in UNUSABLE_PATHS],
                         ids=[case[0] for case in UNUSABLE_PATHS])
def test_unusable_paths_exit_two(tmp_path, capsys, argv, named, reason):
    # a path that cannot be a file exits 2, as a missing one does, in one line
    (tmp_path / "file").write_text("")
    fill = {"golden": DATA / "relation_3x14.golden.json", "tmp": tmp_path}
    code = main([arg.format(**fill) for arg in argv])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {reason}: {named.format(**fill)!r}\n")


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
NOT_UTF8 = {
    "relation-json": ("rel.json", load_relation,
                      '{"programs": ["A"], "inputs": ["' + "x" * 10000 + '@"], "rows": ["1"]}'),
    "relation-csv": ("rel.csv", load_relation, "input,A\n" + "x,1\n" * 3000 + "@,1\n"),
    "features-csv": ("feats.csv", lambda path: load_feature_relation(path, None),
                     "input,f\n" + "x,1\n" * 3000 + "@,1\n"),
    "truth-csv": ("truth.csv", lambda path: load_ground_truth(path, None),
                  "input,compliant\n" + "".join(f"x{k},1\n" for k in range(2000)) + "@,1\n"),
    "run-config": ("run.json", load_run_config,
                   '{"parsers": [{"name": "A", "command": "tool {input}"}], "corpus": "'
                   + "c" * 10000 + '@"}'),
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
    "features-csv": ("feats.csv", lambda path: load_feature_relation(path, None),
                     f"input,f\ny,1\n{_LONG_ID},1\n"),
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
    "features-csv": ("feats.csv", lambda path: load_feature_relation(path, None),
                     'input,f\n"a\nb",1\nc,x\n', "cell 'x', expected 0 or 1"),
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
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE_JSON))
def test_json_loaders_reject_what_the_decoder_cannot_hold(tmp_path, name):
    filename, load, text, reason = UNDECODABLE_JSON[name]
    path = tmp_path / filename
    path.write_text(text)
    with pytest.raises(FormatError) as excinfo:
        load(path)
    assert str(excinfo.value).startswith(f"{path}: invalid JSON: {reason}")


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
