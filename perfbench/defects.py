#!/usr/bin/env python3
"""Reproduce the program defect that keeps the grid workloads to identity links.

    python3 perfbench/defects.py

Runs `crtgee simulate --threads 1` on grid_serial's grid with all 6 models,
the grid the benchmark was first specified with, at seed 1. There a
poisson-log fit with a zero-event control arm converges with an intercept
near -40 and a model-based SE near 4e7, the upper confidence limit on the
log scale passes 709, and `crtgee.inference.wald_inference` raises
OverflowError from `math.exp`. `run_replicate` does not catch it, so the
whole call aborts. Exits 1 while the defect stands and 0 once the call
succeeds.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
from workloads import WORK_DIR, GridSerial

SEED = 1


def main():
    run.import_package()
    work_dir = os.path.join(run.ROOT, WORK_DIR, f"defects-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workload = GridSerial(SEED, work_dir)
        del workload.grid["models"]
        workload.prepare()
        try:
            workload.simulate(1)
        except OverflowError as err:
            print(f"defect stands: crtgee simulate with all models at seed {SEED} raised "
                  f"OverflowError: {err}")
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"defect fixed: crtgee simulate with all models at seed {SEED} succeeded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
