"""Regenerate reference.json: the outputs of the default and held-out seeds.

Usage (from the repository root): python3 perfbench/make_reference.py

Each workload runs once per seed, exactly as the benchmark runs it
(run.Bench), with only the seed-independent checks.  Run it only on a
commit whose outputs are trusted; the benchmark then fails any run of
those seeds whose summary norms (relative tolerance workloads.NORM_RTOL)
or region counts differ from what is stored.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import Bench
from workloads import DEFAULT_SEED, HELD_OUT_SEED, REFERENCE_PATH, WORKLOADS


def main() -> int:
    reference = {}
    for name, wl in WORKLOADS.items():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            bench = Bench(os.getcwd(), wl, seed, 0, time.monotonic())
            bench.ref = None  # nothing stored to compare with yet
            sample = bench.invoke()
            if sample.problems:
                print(f"{name} seed {seed}: {sample.problems}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = sample.observed
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
