"""Hypothesis fuzzing of the file boundary: the relation JSON loader and the
run configuration loader give their result or a ``TdtError`` for any JSON
value, and ``cli.main`` answers any relation file, feature file or truth file
with exit 0, or with exit 2 and one ``error:`` line, never a traceback.  It
answers any run configuration over a missing corpus with exit 2, before any
parser starts."""

import contextlib
import io
import json
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdt.cli import main
from tdt.errors import TdtError
from tdt.harness import DEFAULT_STDERR_CAP, load_run_config
from tdt.relation import load_relation

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=12,
)

# names with the characters a CSV writer must quote
NAMES = st.text(st.sampled_from('abé,"\n'), max_size=2)


@st.composite
def relation_payloads(draw):
    """Any JSON value, or mostly a relation file with up to two of its fields
    replaced by any JSON value, left out, or given a changed or an extra entry."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    payload = {
        "programs": draw(st.lists(NAMES, min_size=m, max_size=m, unique=True)),
        "inputs": draw(st.lists(NAMES, min_size=n, max_size=n, unique=True)),
        "rows": draw(st.lists(st.text(st.sampled_from("01"), min_size=n, max_size=n),
                              min_size=m, max_size=m)),
    }
    for key in draw(st.sets(st.sampled_from(sorted(payload)), max_size=2)):
        edit = draw(st.sampled_from(["replace", "remove", "entry", "extra"]))
        if edit == "replace":
            payload[key] = draw(JSON_VALUES)
        elif edit == "remove":
            del payload[key]
        elif edit == "entry" and payload[key]:
            payload[key][draw(st.integers(0, len(payload[key]) - 1))] = draw(JSON_VALUES)
        else:
            payload[key].append(draw(JSON_VALUES | NAMES | st.sampled_from(["01", "0x"])))
    return payload


@settings(max_examples=300, deadline=None, derandomize=True)
@given(relation_payloads())
def test_relation_json_loader_loads_or_raises_tdt_error(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("rel") / "rel.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        rel = load_relation(path)
    except TdtError:
        return
    assert (rel.programs, rel.inputs) == (tuple(payload["programs"]), tuple(payload["inputs"]))
    rows = ["".join("1" if cell else "0" for cell in row) for row in rel.accepts.tolist()]
    assert rows == payload["rows"]


# pieces of a relation CSV: its header, cells, the csv module's special characters
CSV_PIECES = ("input", "input,a", ",", "0", "1", "a", "\n", "\r\n", '"', "\r", "\0", "é")

RELATION_FILES = st.one_of(
    st.tuples(st.just("rel.json"), relation_payloads().map(json.dumps).map(str.encode)),
    st.tuples(st.just("rel.csv"),
              st.tuples(st.sampled_from(["", "input,a\n", "input,a,b\r\n"]),
                        st.lists(st.sampled_from(CSV_PIECES), max_size=24).map("".join))
              .map("".join).map(str.encode)),
    st.tuples(st.sampled_from(["rel.json", "rel.csv"]), st.binary(max_size=40)),
)

# seven subcommands that read only the relation, with the outputs they write
COMMANDS = (
    ("analyze", "--betti", "2", "--inconsistent", "{out}.json"),
    ("distill", "--out", "{out}.json", "--trace", "{out}.trace.json"),
    ("score", "--scores", "{out}.csv"),
    ("select", "--threshold", "1", "--out", "{out}.csv"),
    ("sheaf", "--sigma", "a", "--display"),
    ("classify", "--vote", "1"),
    ("export-pgm", "--out", "{out}.pgm"),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(RELATION_FILES, st.sampled_from(COMMANDS))
def test_cli_answers_any_relation_file_with_exit_0_or_one_error_line(
        tmp_path_factory, relation_file, command):
    name, data = relation_file
    tmp = tmp_path_factory.mktemp("cli")
    path = tmp / name
    path.write_bytes(data)
    _answer([command[0], str(path), *(arg.format(out=tmp / "out") for arg in command[1:])])


def _answer(argv):
    """main's exit code on argv, checked: exit 0 writes no stderr, exit 2 one
    ``error:`` line and no stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
    return code


# the relation the feature and truth files describe; "c,d" is written quoted
SIDE_RELATION = {"programs": ["A", "B"], "inputs": ["a", "b", "c,d"], "rows": ["110", "011"]}


@st.composite
def side_files(draw, header):
    """Raw bytes, or mostly a CSV under ``header`` with a line of 0/1 cells per
    input of SIDE_RELATION, with up to two lines replaced by pieces of CSV
    text, left out, or added."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=40))
    width = header.count(",")
    lines = [header, *(",".join([name, *draw(st.lists(st.sampled_from("01"), min_size=width,
                                                      max_size=width))])
                       for name in ["a", "b", '"c,d"'])]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "remove", "insert"]))
        piece = draw(st.lists(st.sampled_from(CSV_PIECES), max_size=4).map("".join))
        if edit == "replace":
            lines[k] = piece
        elif edit == "remove":
            del lines[k]
        else:
            lines.insert(k, piece)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines).encode()


# the two subcommands that read a second file, with its header
SIDE_COMMANDS = {
    "features": (["features", "{rel}", "--features", "{side}", "--prune", "1"], "input,q,r"),
    "classify": (["classify", "{rel}", "--vote", "1", "--truth", "{side}", "--out", "{out}"],
                 "input,compliant"),
}


@pytest.mark.parametrize("command", sorted(SIDE_COMMANDS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_answers_any_feature_or_truth_file_with_exit_0_or_one_error_line(
        tmp_path_factory, command, data):
    argv, header = SIDE_COMMANDS[command]
    tmp = tmp_path_factory.mktemp("side")
    rel, side = tmp / "rel.json", tmp / "side.csv"
    rel.write_text(json.dumps(SIDE_RELATION))
    side.write_bytes(data.draw(side_files(header)))
    _answer([arg.format(rel=rel, side=side, out=tmp / "out.json") for arg in argv])


@st.composite
def run_config_payloads(draw):
    """Any JSON value, or mostly a run configuration with up to two fields, of
    its own or of a parser's, replaced by any JSON value, left out, or added."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    parsers = [
        {"name": f"p{i}",
         "command": draw(st.sampled_from(["tool {input}", "tool", "{input} x"])),
         "policy": draw(st.sampled_from(["stderr-empty", "exit-zero", "both", "any"])),
         "keywords": draw(st.lists(st.text(max_size=3), max_size=2))}
        for i in range(draw(st.integers(0, 2)))
    ]
    payload = {
        "parsers": parsers,
        "corpus": "corpus",
        "glob": "*.txt",
        "timeout_secs": draw(st.sampled_from([0.5, 30, 0, -1])),
        "parallelism": draw(st.integers(-1, 3)),
        "stderr_cap_bytes": draw(st.integers(-1, 3)),
    }
    for record in draw(st.lists(st.sampled_from([payload, *parsers]), max_size=2)):
        key = draw(st.sampled_from([*sorted(record), "extra"]))
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            record[key] = draw(JSON_VALUES)
    return payload


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run_config_payloads())
def test_run_config_loader_loads_or_raises_tdt_error(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        cfg = load_run_config(path)
    except TdtError:
        return
    assert [(p.name, p.command, p.policy, p.keywords) for p in cfg.parsers] == [
        (e["name"], e["command"], e.get("policy", "stderr-empty"), tuple(e.get("keywords", [])))
        for e in payload["parsers"]
    ]
    assert (cfg.corpus, cfg.glob, cfg.timeout_secs, cfg.parallelism, cfg.stderr_cap_bytes) == (
        payload["corpus"], payload.get("glob", "*"), payload.get("timeout_secs", 30.0),
        payload.get("parallelism", 1), payload.get("stderr_cap_bytes", DEFAULT_STDERR_CAP))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run_config_payloads())
def test_cli_answers_any_run_config_over_a_missing_corpus_with_one_error_line(
        tmp_path_factory, payload):
    tmp = tmp_path_factory.mktemp("run")
    if isinstance(payload, dict) and isinstance(payload.get("corpus"), str):
        payload["corpus"] = str(tmp / "missing")
    path, out = tmp / "run.json", tmp / "rel.json"
    path.write_text(json.dumps(payload), encoding="utf-8")

    def no_process(*args, **kwargs):
        raise AssertionError("a parser process started")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subprocess, "Popen", no_process)
        assert _answer(["run", "--config", str(path), "--out", str(out)]) == 2
    assert sorted(tmp.iterdir()) == [path]
