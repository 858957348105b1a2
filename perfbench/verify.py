#!/usr/bin/env python3
"""Untimed check of the criterion 4/6/8/9 acceptance cells against golden files.

    python3 perfbench/verify.py                # about 1.5 minutes

Recomputes the full 1000-replicate cells of tests/test_acceptance.py at the
acceptance seed and compares each model's n_rep, n_conv and esd and each
estimator's n_eval and rejection count with perfbench/golden/acceptance.json
(integers exactly, floats at relative 1e-9). Criterion 8's grid is run at
--threads 1 and at the machine's core count; the two tables must be equal
byte for byte and match perfbench/golden/criterion8.csv. Exits 1 on any
mismatch. The golden files change only through perfbench/regenerate.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

import run
from workloads import DEFAULT_SEED, GOLDEN_DIR, WORK_DIR, diff, parse_results_csv, summarize_cell

ACCEPTANCE_GOLDEN = os.path.join(GOLDEN_DIR, "acceptance.json")
CRITERION8_GOLDEN = os.path.join(GOLDEN_DIR, "criterion8.csv")

CRITERION8_GRID = {
    "seed": DEFAULT_SEED,
    "replicates": 25,
    "n_clusters": [6, 10],
    "cluster_sizes": [8, {"type": "gamma", "mean": 10, "cv": 0.5}],
    "pi0": [0.3],
    "icc": [0.05],
    "models": ["binomial-logit", "gaussian-identity"],
    "estimators": ["robust", "kc", "md"],
}


def scenario_cell(criterion):
    """Summary of a run_scenario acceptance cell (criteria 4, 6 and 9)."""
    from crtgee import (ALL_MODELS, EstimatorKind, Family, FixedSize, GammaSize, Link,
                        ModelSpec, Scenario, run_scenario)

    poisson_log = (ModelSpec(Family.POISSON, Link.LOG),)
    kc_robust_md = (EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD)
    cells = {
        4: (10, FixedSize(50), 0.01, poisson_log, kc_robust_md),
        6: (20, FixedSize(30), 0.05, ALL_MODELS, (EstimatorKind.ROBUST,)),
        9: (20, GammaSize(30, 1.0), 0.05, poisson_log, (EstimatorKind.KC,)),
    }
    n, sizes, icc, models, kinds = cells[criterion]
    sc = Scenario(n_clusters=n, sizes=sizes, pi0=0.3, pi1=0.3, icc=icc, replicates=1000,
                  seed=DEFAULT_SEED)
    return summarize_cell(run_scenario(sc, models=models, kinds=kinds))


def criterion8_tables():
    """Criterion 8's results table at --threads 1 and at the core count."""
    from crtgee.cli import main

    tables = []
    work = os.path.join(run.ROOT, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        config = os.path.join(tmp, "grid.json")
        output = os.path.join(tmp, "results.csv")
        with open(config, "w") as fh:
            json.dump({**CRITERION8_GRID, "output": output}, fh)
        for threads in (1, os.cpu_count() or 1):
            with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                rc = main(["simulate", "--config", config, "--threads", str(threads)])
            if rc != 0:
                raise RuntimeError(f"crtgee simulate exited {rc}")
            with open(output) as fh:
                tables.append(fh.read())
    return tables


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    run.import_package()

    with open(ACCEPTANCE_GOLDEN) as fh:
        golden = json.load(fh)
    problems = []
    for criterion in (4, 6, 8, 9):
        if criterion == 8:
            serial, parallel = criterion8_tables()
            if serial != parallel:
                problems.append("criterion 8: threads 1 and threads N tables differ")
            with open(CRITERION8_GOLDEN) as fh:
                found = diff(parse_results_csv(serial), parse_results_csv(fh.read()))
            summary = f"{serial.count(chr(10))} lines, threads 1 == threads N: {serial == parallel}"
        else:
            cell = scenario_cell(criterion)
            found = diff(cell, golden[str(criterion)])
            summary = ", ".join(
                f"{label} n_conv {c['n_conv']} "
                + " ".join(f"{k} {e['rejections']}/{c['n_conv']}"
                           for k, e in c["estimators"].items())
                for label, c in cell.items())
        problems += [f"criterion {criterion}: {m}" for m in found]
        print(f"criterion {criterion}: {'ok' if not found else 'MISMATCH'} ({summary})",
              flush=True)
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
