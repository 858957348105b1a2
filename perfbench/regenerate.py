#!/usr/bin/env python3
"""Rewrite the golden files from the current code at the acceptance seed.

    python3 perfbench/regenerate.py

Writes perfbench/golden/: one output set per workload (the benchmark
compares against these at the default seed) and the criterion 4/6/9 cell
summaries and criterion 8 table that perfbench/verify.py checks. Run it
only when a change of seeded results is intended and explained; the
benchmark and the verify mode never write these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import verify
from workloads import DEFAULT_SEED, GOLDEN_DIR, WORK_DIR, WORKLOADS


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, run.ROOT)}")


def main():
    run.import_package()
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    work_dir = os.path.join(run.ROOT, WORK_DIR, "regenerate")
    os.makedirs(work_dir, exist_ok=True)
    try:
        for name in ("cell_unbalanced", "grid_serial", "analyze_large"):
            workload = WORKLOADS[name](DEFAULT_SEED, work_dir)
            workload.prepare()
            outputs = {label: fn() for i in range(workload.cycle)
                       for label, fn in workload.round_calls(i)}
            if name == "grid_serial":
                with open(workload.golden_path(), "w") as fh:
                    fh.write(outputs["grid"])
                print(f"wrote {os.path.relpath(workload.golden_path(), run.ROOT)}")
            else:
                write_json(workload.golden_path(),
                           {k: workload.golden_form(v) for k, v in outputs.items()})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    write_json(verify.ACCEPTANCE_GOLDEN,
               {str(c): verify.scenario_cell(c) for c in (4, 6, 9)})
    serial, _ = verify.criterion8_tables()
    with open(verify.CRITERION8_GOLDEN, "w") as fh:
        fh.write(serial)
    print(f"wrote {os.path.relpath(verify.CRITERION8_GOLDEN, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
