"""
The command line end to end: analyze, simulate, report
======================================================

Everything the library does is reachable from the `crtgee` entry point.
This demo drives all three subcommands in-process on files written to a
temporary directory: a trial CSV through `analyze`, a JSON grid config
through `simulate`, and the resulting CSV through `report`.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from crtgee.cli import main

workdir = Path(tempfile.mkdtemp(prefix="crtgee_demo_"))

# --- analyze: one trial CSV ---------------------------------------------------
# Long format, one participant per row: cluster_id, arm, outcome.
rng = np.random.default_rng(11)
rows = ["cluster_id,arm,outcome"]
for i in range(12):
    arm = 0 if i < 6 else 1
    p = 0.40 if arm == 0 else 0.22
    for y in (rng.random(int(rng.integers(10, 30))) < p).astype(int):
        rows.append(f"site{i:02d},{arm},{y}")
trial_csv = workdir / "trial.csv"
trial_csv.write_text("\n".join(rows) + "\n")

report_path = workdir / "analysis.json"
code = main([
    "analyze",
    "--data", str(trial_csv),
    "--family", "binomial",
    "--link", "log",
    "--corrections", "robust,kc,md",
    "--out", str(report_path),
])
print(f"analyze exit code: {code}")

report = json.loads(report_path.read_text())
print(f"clusters: {report['data']['n_clusters']}, participants: {report['data']['n_obs']}")
print(f"fitted ICC: {report['fit']['icc']:.4f}")
for name, est in report["estimates"].items():
    lo, hi = est["ci_effect"]
    print(
        f"  {name:<8} {est['effect_measure'].upper()} = {est['estimate_effect']:.3f} "
        f"[{lo:.3f}, {hi:.3f}], p = {est['p']:.4f}"
    )

# --- simulate: a 2 x 2 null grid ----------------------------------------------
# The config crosses cluster counts with ICCs; grids are null-only (pi1 = pi0).
results_path = workdir / "results.csv"
config = {
    "seed": 20260821,
    "replicates": 100,
    "n_clusters": [6, 10],
    "cluster_sizes": [20],
    "pi0": [0.3],
    "icc": [0.0, 0.05],
    "models": ["binomial-log"],
    "estimators": ["robust", "kc"],
    "output": str(results_path),
}
config_path = workdir / "grid.json"
config_path.write_text(json.dumps(config))

code = main([
    "simulate",
    "--config", str(config_path),
    "--threads", "2",
])
print(f"\nsimulate exit code: {code}")
lines = results_path.read_text().splitlines()
print(f"results file: {len(lines) - 1} rows (+ header)")
print(lines[0])
print(lines[1])

# --- report: pivot the results ------------------------------------------------
# Group rows by estimator and average the operating characteristics.
code = main([
    "report",
    "--results", str(results_path),
    "--by", "estimator",
    "--out", str(workdir / "summary.csv"),
])
print(f"\nreport exit code: {code}")
print((workdir / "summary.csv").read_text().rstrip())
