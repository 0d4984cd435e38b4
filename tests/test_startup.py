"""Each tdt module, imported first, loads numpy's OpenBLAS with one thread
and leaves os.environ as it was; each process loads only what it runs.

Each check starts a fresh interpreter, because OpenBLAS reads
OPENBLAS_NUM_THREADS only once, when numpy first loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_run_config

SRC = Path(__file__).resolve().parents[1] / "src"
TASKS = Path("/proc/self/task")

PROBE = """
import importlib, json, os, sys
before = dict(os.environ)
importlib.import_module(sys.argv[1])
tasks = "/proc/self/task"
print(json.dumps({
    "unchanged": dict(os.environ) == before,
    "value": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "numpy": "numpy" in sys.modules,
}))
"""


def _run(argv, openblas_threads=None) -> subprocess.CompletedProcess:
    """``python *argv`` with src/ on the path and OPENBLAS_NUM_THREADS as given."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


def probe(openblas_threads=None, module="tdt.relation") -> dict:
    proc = _run(["-c", PROBE, module], openblas_threads)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_leaves_environment_unset():
    result = probe()
    assert result["value"] is None
    assert result["unchanged"]


@pytest.mark.skipif(not TASKS.is_dir(), reason="needs /proc/self/task to count threads")
def test_import_starts_no_more_threads_than_one_blas_thread():
    assert probe()["threads"] <= probe("1")["threads"]


def test_user_setting_is_kept():
    result = probe("2")
    assert result["value"] == "2"
    assert result["unchanged"]


MODULES = sorted(
    "tdt" if p.name == "__init__.py" else f"tdt.{p.stem}" for p in (SRC / "tdt").glob("*.py")
)
# the modules ``tdt run`` and argument parsing load, and the launcher
NUMPY_FREE = {"tdt", "tdt.__main__", "tdt.errors", "tdt.harness", "tdt.util"}


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imported_first_loads_numpy_behind_the_guard(module):
    unset, own, one = probe(module=module), probe("2", module), probe("1", module)
    assert unset["numpy"] is (module not in NUMPY_FREE)
    assert unset["unchanged"] and unset["value"] is None
    assert own["unchanged"] and own["value"] == "2"
    if unset["threads"] is not None:
        assert unset["threads"] <= one["threads"]


# ``python -m tdt.cli``, and what the installed ``tdt`` script runs
LAUNCHERS = {"module": ["-m", "tdt.cli"],
             "script": ["-c", "import sys; from tdt.__main__ import main; sys.exit(main())"]}


def _imported(argv, launcher="module") -> set[str]:
    """The modules a tdt process imports, from -X importtime."""
    proc = _run(["-X", "importtime", *LAUNCHERS[launcher], *argv])
    assert proc.returncode in (0, 2), proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


RELATION = Path(__file__).resolve().parent / "data" / "relation_3x14.golden.json"


@pytest.mark.parametrize("launcher", LAUNCHERS)
@pytest.mark.parametrize("argv", [["--help"], ["no-such-command"]], ids=["help", "usage-error"])
def test_cli_without_a_command_loads_no_numpy_and_no_harness(argv, launcher):
    imported = _imported(argv, launcher)
    assert "tdt.util" in imported
    assert not imported & {"numpy", "tdt.harness"}


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_run_loads_neither_numpy_nor_the_relation_module(launcher, tmp_path):
    out, results, keywords = tmp_path / "rel.json", tmp_path / "r.jsonl", tmp_path / "kw.csv"
    imported = _imported(["run", "--config", str(write_run_config(tmp_path)), "--out", str(out),
                          "--results", str(results), "--keywords-out", str(keywords)], launcher)
    assert out.read_bytes() == RELATION.read_bytes()
    assert len(results.read_text().splitlines()) == 42
    assert keywords.read_text().startswith("input,A:parse error,B:parse error,C:parse error\n")
    assert "tdt.harness" in imported
    assert not imported & {"numpy", "tdt.relation"}


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_classify_vote_loads_no_scoring_modules(launcher):
    imported = _imported(["classify", str(RELATION), "--vote", "2"], launcher)
    assert {"numpy", "tdt.classify"} <= imported
    assert not imported & {"tdt.distill", "tdt.dowker", "tdt.diagram"}


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_score_loads_neither_harness_nor_features_nor_classify(launcher):
    imported = _imported(["score", str(RELATION)], launcher)
    assert {"numpy", "tdt.distill"} <= imported
    assert not imported & {"tdt.harness", "subprocess", "tdt.features", "tdt.classify",
                           "tdt.dowker"}


CORE_READERS = {"distill": "tdt.distill", "select": "tdt.distill", "features": "tdt.features"}


@pytest.mark.parametrize("launcher", LAUNCHERS)
@pytest.mark.parametrize("command", CORE_READERS)
def test_core_readers_load_no_dowker_layer(command, launcher, tmp_path):
    # they read the consistent core off a weight vector; only analyze lists a complex
    out, distilled = tmp_path / "out", tmp_path / "distilled.json"
    features = tmp_path / "features.csv"
    features.write_text("input,q\n" + "".join(f"f{k:02d},{k % 2}\n" for k in range(1, 15)))
    if command == "select":  # select needs a consistent diagram
        proc = _run(["-m", "tdt.cli", "distill", str(RELATION), "--out", str(distilled)])
        assert proc.returncode == 0, proc.stderr
    argv = {"distill": ["distill", str(RELATION)],
            "select": ["select", str(distilled), "--threshold", "1"],
            "features": ["features", str(RELATION), "--features", str(features)]}[command]
    imported = _imported([*argv, "--out", str(out)], launcher)
    assert out.exists()
    assert {"numpy", "tdt.diagram", CORE_READERS[command]} <= imported
    assert "tdt.dowker" not in imported


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_analyze_loads_the_dowker_layer(launcher):
    assert {"numpy", "tdt.diagram", "tdt.dowker"} <= _imported(["analyze", str(RELATION)], launcher)


# What ``tdt`` exported when its __init__ imported every module eagerly, less the
# names deleted since, plus ``accept_rows``.
EXPORTS = {
    "classify": "ClassifierReport evaluate load_ground_truth score_rule_classifier vote_classifier",
    "diagram": "build_diagram deficient_regions is_consistent project_diagram",
    "distill": "DistillTrace distill inconsistency_scores select_inputs singleton_screen",
    "dowker": "DowkerComplex DowkerGraph betti_numbers build_complex build_graph "
              "consistent_core graph_dot inconsistent_inputs",
    "errors": "CapacityError ConfigurationError EmptyScreenError FormatError "
              "InconsistentDiagramError TdtError ValidationError",
    "features": "attribute_features greedy_feature_pruning variation_of_information",
    "harness": "RunConfig RunResult accept_rows keyword_table load_run_config run_corpus",
    "relation": "MAX_PROGRAMS Relation column_masks load_feature_relation "
                "load_relation mask_from_names names_from_mask restrict_inputs restrict_programs "
                "save_relation",
    "sheaf": "display_vector",
    "util": "",
}

NAMES_PROBE = """
import json, sys
import tdt
loaded = sorted(name for name in sys.modules if name == "numpy" or name.startswith("tdt."))
listed = dir(tdt)
exports = {module: names.split() for module, names in json.loads(sys.argv[1]).items()}
# tdt.distill is the function, as it always was
subs = {module: getattr(tdt, module) for module in exports if module != "distill"}
values = {name: getattr(tdt, name) for names in exports.values() for name in names}
resolved = [sub is sys.modules["tdt." + module] for module, sub in subs.items()]
resolved += [values[name] is getattr(sys.modules["tdt." + module], name)
             for module, names in exports.items() for name in names]
print(json.dumps({"loaded": loaded, "dir": listed, "resolved": resolved,
                  "version": tdt.__version__}))
"""


def test_public_names_resolve_lazily_and_are_listed():
    proc = _run(["-c", NAMES_PROBE, json.dumps(EXPORTS)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    assert all(result["resolved"]) and len(result["resolved"]) == 49 + 9
    names = {name for names in EXPORTS.values() for name in names.split()}
    assert names | set(EXPORTS) <= set(result["dir"])
    assert result["version"] == "0.1.0"


def test_distill_stays_the_function_when_its_module_loads_first():
    probe = "import sys, tdt.classify; print(tdt.distill is sys.modules['tdt.distill'].distill)"
    proc = _run(["-c", probe])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_import_of_cli_loads_every_subcommand_module():
    # in-process callers and perfbench's tracer find every module loaded
    probe = ("import json, sys, tdt.cli, tdt.relation; print(json.dumps(["
             "sorted(m for m in sys.modules if m.startswith('tdt.')),"
             "tdt.cli.load_relation is tdt.relation.load_relation]))")
    proc = _run(["-c", probe])
    assert proc.returncode == 0, proc.stderr
    loaded, bound = json.loads(proc.stdout)
    assert {"tdt." + m for m in EXPORTS} <= set(loaded) and bound
