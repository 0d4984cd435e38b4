"""Importing tdt loads numpy's OpenBLAS with one thread and leaves os.environ as it was.

Each check starts a fresh interpreter, because OpenBLAS reads
OPENBLAS_NUM_THREADS only once, when numpy first loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TASKS = Path("/proc/self/task")

PROBE = """
import json, os
before = dict(os.environ)
import tdt
tasks = "/proc/self/task"
print(json.dumps({
    "unchanged": dict(os.environ) == before,
    "value": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""


def probe(openblas_threads=None) -> dict:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
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
