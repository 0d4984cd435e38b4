#!/usr/bin/env python3
"""Rewrite pins.json: the sha256 of every canonical artifact at the pinned seeds.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are known to be right.  run.py fails
any operation whose artifacts differ from the pin for its seed, so a changed
pin is a changed output of the program and must be justified on its own.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

PINNED_SEEDS = {"full": range(0, 11), "smoke": range(0, 1)}


def main() -> int:
    run.import_tdt()
    run.become_subreaper()
    pins: dict = {}
    for size, seeds in PINNED_SEEDS.items():
        for workload in run.SIZES[size]:
            for seed in seeds:
                work = run.make_work(f"pin-{workload}-{seed}")
                try:
                    prep = run.prepare(workload, seed, size, work)
                    checker = run.Checker(prep, None)
                    tally = run.Tally()
                    s = run.session(prep, checker, seed, tally, work, inprocess=True)
                    digests = checker.digests(s.stdouts)
                finally:
                    run.reap_orphans()
                    shutil.rmtree(work, ignore_errors=True)
                if tally.failed:
                    print(f"{size} {workload} seed {seed}: {tally.problems}", file=sys.stderr)
                    return 1
                pins.setdefault(size, {}).setdefault(workload, {})[str(seed)] = digests
                print(f"pinned {size} {workload} seed {seed}", flush=True)
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
