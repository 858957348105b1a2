"""Command-line interface: analyze trial CSVs, run simulation grids, pivot results.

Three subcommands:

* ``analyze``  fits one working model to a trial CSV and writes a JSON report
  with per-arm summaries, the estimated ICC, and SE/CI/p for each requested
  variance estimator on both the link and effect scales.
* ``simulate`` expands a JSON grid config into scenarios and writes the
  long-format results table, one row per (scenario, model, estimator).
  Deterministic for a fixed seed at any thread count; interrupted runs can
  be resumed with ``--resume``.
* ``report``   groups an existing results table into plot-ready summaries.
  It never re-runs simulations.

Exit codes: 0 success; 1 invalid data, config, or usage, or too little
memory for the run; 2 the model did not converge (the analyze report is
still written, with diagnostics).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from .errors import CrtGeeError, DataError, NonConvergenceError, UsageError
from .families import ModelSpec, parse_family, parse_link
from .gee import fit_gee
from .inference import default_measure, wald_inference
from .sandwich import (
    ALL_KINDS,
    DEFAULT_FG_BOUND,
    EstimatorKind,
    VarianceEstimate,
    estimate_block,
)
from .simulate import (
    ALL_MODELS,
    ALPHA_LEVEL,
    RESULT_COLUMNS,
    EstimatorSummary,
    FactorialGrid,
    ScenarioResult,
    _cell,
    result_lines,
    run_grid,
)
from .datagen import FixedSize, GammaSize
from .trialcsv import read_trial_csv

#: default thread count when neither --threads nor the config sets one
THREADS_ENV_VAR = "CRTGEE_THREADS"

#: results columns holding numbers (parsed for grouping and averaging)
_NUMERIC_COLUMNS = {
    "scenario_id", "n_clusters", "cluster_size", "cv", "pi0", "icc",
    "n_rep", "n_conv", "conv_rate", "esd", "mean_se", "pct_bias", "type1",
}
#: the acceptable column's cells: empty where there is no type I error rate
_FLAGS = {"": None, "0": 0, "1": 1}
_GROUPABLE_COLUMNS = (
    "scenario_id", "n_clusters", "cluster_size", "cv", "pi0", "icc",
    "family", "link", "estimator",
)


def _parse_kinds(text):
    kinds = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            kind = EstimatorKind(token)
        except ValueError:
            valid = ", ".join(k.value for k in EstimatorKind)
            raise UsageError(f"unknown estimator '{token}' (choose from: {valid})") from None
        if kind not in kinds:
            kinds.append(kind)
    if not kinds:
        raise UsageError("at least one estimator must be requested")
    return tuple(kinds)


def _normal_two_sided_p(z):
    return math.erfc(abs(z) / math.sqrt(2.0))


def cmd_analyze(args):
    spec = ModelSpec(parse_family(args.family), parse_link(args.link))
    kinds = _parse_kinds(args.corrections)
    if not 0.0 < args.level < 1.0:
        raise UsageError(f"--level must lie in (0, 1), got {args.level}")
    alpha_level = 1.0 - args.level
    if not 0.0 < alpha_level < 1.0:
        raise UsageError(f"--level {args.level} is too close to 0 or 1: 1 - level "
                         f"rounds to {alpha_level}")
    data = read_trial_csv(args.data)

    report = {
        "command": "analyze",
        "data": {
            "path": args.data,
            "n_clusters": data.n_clusters,
            "n_obs": data.n_obs,
            "arms": {str(arm): summary for arm, summary in data.arm_summary().items()},
        },
        "model": {
            "family": spec.family.value,
            "link": spec.link.value,
            "effect_measure": default_measure(spec.link).value,
        },
        "level": args.level,
    }

    try:
        fit = fit_gee(data, spec)
    except NonConvergenceError as err:
        report["fit"] = {
            "converged": False,
            "reason": err.reason,
            "iterations": err.iterations,
            "last_beta": err.last_beta,
        }
        report["estimates"] = {}
        _write_json(report, args.out)
        return 2

    report["fit"] = {
        "converged": True,
        "iterations": fit.iterations,
        "beta": [float(b) for b in fit.beta],
        "icc": fit.alpha_hat,
        "dispersion": fit.phi_hat,
        "icc_clamped": fit.alpha_clamped,
    }
    estimates = {}
    failures = {}
    covs, _, errors = estimate_block(fit.block, kinds, DEFAULT_FG_BOUND, fit.cluster_ids)
    for kind in kinds:
        err = errors[kind].get(0)
        if err is None:
            try:
                inf = wald_inference(fit, VarianceEstimate(kind, covs[kind][0]),
                                     alpha_level=alpha_level)
            except CrtGeeError as raised:
                err = raised
        if err is not None:
            failures[kind.value] = f"{type(err).__name__}: {err}"
            continue
        entry = {
            "se": inf.se,
            "df": inf.df,
            "t": inf.t_stat,
            "p": inf.p_value,
            "estimate_link": inf.estimate_link,
            "ci_link": list(inf.ci_link),
            "effect_measure": inf.effect_measure.value,
            "estimate_effect": inf.estimate_effect,
            "ci_effect": list(inf.ci_effect),
        }
        if args.z_test:
            entry["z_p"] = _normal_two_sided_p(inf.t_stat)
        estimates[kind.value] = entry
    report["estimates"] = estimates
    if failures:
        report["estimator_errors"] = failures
    _write_json(report, args.out)
    return 0


def _json_safe(value):
    """JSON has no inf or nan: a non-finite float (a saturated CI limit) is null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _cannot_write(path, err):
    return UsageError(f"cannot write {path}: {err.strerror}")


def _open_out(path, mode, **kwargs):
    """`path` opened for writing; an OSError is an `error: cannot write` line."""
    try:
        return open(path, mode, **kwargs)
    except OSError as err:
        raise _cannot_write(path, err) from err


def _write_lines(fh, path, lines):
    """Write each of `lines` and a newline to `fh`, then flush it.

    An OSError is an `error: cannot write <path>` line. `fh` first drops
    what it could not write, so that neither closing it nor the
    interpreter's flush of stdout at exit raises again: a file is closed,
    stdout is pointed at the null device.
    """
    try:
        fh.writelines(line + "\n" for line in lines)
        fh.flush()
    except OSError as err:
        try:
            if fh is sys.stdout:
                fd = fh.fileno()
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
            else:
                fh.close()
        except OSError:
            pass
        raise _cannot_write(path, err) from err


def _close(fh, path):
    try:
        fh.close()
    except OSError as err:
        raise _cannot_write(path, err) from err


def _write_out(lines, path, newline=None):
    """Write `lines` to the file `path`, or to stdout (named <stdout>) when there is none."""
    if not path:
        _write_lines(sys.stdout, "<stdout>", lines)
        return
    fh = _open_out(path, "w", newline=newline)
    try:
        _write_lines(fh, path, lines)
    finally:
        _close(fh, path)


def _write_json(doc, out_path):
    _write_out([json.dumps(_json_safe(doc), indent=2, allow_nan=False)], out_path)


def _config_list(doc, key, kind, convert):
    if key not in doc:
        raise UsageError(f"config key '{key}' is required")
    value = doc[key]
    if not isinstance(value, list) or not value:
        raise UsageError(f"config key '{key}' must be a nonempty list of {kind}")
    try:
        return tuple(convert(v) for v in value)
    except (TypeError, ValueError) as err:
        raise UsageError(f"invalid config: config key '{key}': {err}") from None


def _as_number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _as_int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _parse_size_entry(entry):
    if isinstance(entry, bool):
        raise ValueError(f"invalid entry {entry!r}")
    if isinstance(entry, (int, float)):
        # 8.7 must not run as 8; inf and nan are not integers either
        if isinstance(entry, float) and not entry.is_integer():
            raise ValueError(f"a fixed size must be a finite integer, got {entry!r}")
        return FixedSize(int(entry))
    if isinstance(entry, dict):
        kind = entry.get("type")
        if kind == "fixed":
            extra = set(entry) - {"type", "m"}
            if extra:
                raise ValueError(f"unknown key '{sorted(extra)[0]}'")
            if "m" not in entry:
                raise ValueError("fixed entry needs 'm'")
            return FixedSize(_as_int(entry["m"]))
        if kind == "gamma":
            extra = set(entry) - {"type", "mean", "cv"}
            if extra:
                raise ValueError(f"unknown key '{sorted(extra)[0]}'")
            if "mean" not in entry or "cv" not in entry:
                raise ValueError("gamma entry needs 'mean' and 'cv'")
            return GammaSize(_as_number(entry["mean"]), _as_number(entry["cv"]))
        raise ValueError(f"entry type must be 'fixed' or 'gamma', got {kind!r}")
    raise ValueError(f"invalid entry {entry!r}")


def _parse_model_label(label):
    if not isinstance(label, str) or "-" not in label:
        raise UsageError(f"config key 'models': expected 'family-link' labels, got {label!r}")
    fam, _, link = label.partition("-")
    return ModelSpec(parse_family(fam), parse_link(link))


_ALLOWED_CONFIG_KEYS = {
    "seed", "replicates", "n_clusters", "cluster_sizes", "pi0", "icc",
    "models", "estimators", "fg_bound", "alpha_level", "output", "threads",
}


def parse_grid_config(doc):
    """Validate a config document and build the grid; rejects unknown keys."""
    if not isinstance(doc, dict):
        raise UsageError("config root must be an object")
    unknown = set(doc) - _ALLOWED_CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config key '{sorted(unknown)[0]}'")
    if "output" not in doc or not isinstance(doc["output"], str) or not doc["output"]:
        raise UsageError("config key 'output' is required and must be a path string")

    n_clusters = _config_list(doc, "n_clusters", "integers", _as_int)
    sizes = _config_list(doc, "cluster_sizes", "size entries", _parse_size_entry)
    pi0 = _config_list(doc, "pi0", "numbers", _as_number)
    icc = _config_list(doc, "icc", "numbers", _as_number)

    models = ALL_MODELS
    if "models" in doc:
        models = _config_list(doc, "models", "model labels", _parse_model_label)
    estimators = ALL_KINDS
    if "estimators" in doc:
        labels = doc["estimators"]
        if not isinstance(labels, list) or not labels:
            raise UsageError("config key 'estimators' must be a nonempty list")
        estimators = _parse_kinds(",".join(str(v) for v in labels))

    replicates = doc.get("replicates", 1000)
    if isinstance(replicates, bool) or not isinstance(replicates, int) or replicates < 1:
        raise UsageError(f"config key 'replicates' must be a positive integer, got {replicates!r}")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise UsageError(f"config key 'seed' must be a nonnegative integer, got {seed!r}")
    fg_bound = doc.get("fg_bound", DEFAULT_FG_BOUND)
    if isinstance(fg_bound, bool) or not isinstance(fg_bound, (int, float)) \
            or not 0.0 < fg_bound <= 1.0:
        raise UsageError(f"config key 'fg_bound' must lie in (0, 1], got {fg_bound!r}")
    alpha_level = doc.get("alpha_level", ALPHA_LEVEL)
    if isinstance(alpha_level, bool) or not isinstance(alpha_level, (int, float)) \
            or not 0.0 < alpha_level < 1.0:
        raise UsageError(f"config key 'alpha_level' must lie in (0, 1), got {alpha_level!r}")
    threads = doc.get("threads")
    if threads is not None and (isinstance(threads, bool) or not isinstance(threads, int)
                                or threads < 1):
        raise UsageError(f"config key 'threads' must be a positive integer, got {threads!r}")

    try:
        grid = FactorialGrid(
            n_clusters=n_clusters,
            sizes=sizes,
            pi0=pi0,
            icc=icc,
            models=tuple(models),
            estimators=tuple(estimators),
            replicates=replicates,
            seed=seed,
            fg_bound=float(fg_bound),
            alpha_level=float(alpha_level),
        )  # builds and checks every Scenario before any work starts
    except CrtGeeError as err:
        raise UsageError(f"invalid config: {err}") from None
    return grid, doc["output"], threads


def _resolve_threads(flag_value, config_value):
    if flag_value is not None:
        if flag_value < 1:
            raise UsageError(f"--threads must be a positive integer, got {flag_value}")
        return flag_value
    if config_value is not None:
        return config_value
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise UsageError(f"{THREADS_ENV_VAR} must be an integer, got '{env}'") from None
        if n < 1:
            raise UsageError(f"{THREADS_ENV_VAR} must be positive, got {n}")
        return n
    return 1


def _load_resume_lines(path, expected):
    """Map scenario_id -> verbatim result lines for scenarios already complete.

    `expected` maps each scenario_id of this grid to the design columns
    (scenario_id through n_rep) of the rows it writes, in order. Rows on
    disk must repeat them, in order, or the file belongs to another grid
    and DataError names the first scenario that differs.
    """
    if not os.path.exists(path):
        return {}
    by_scenario = {}
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.rstrip("\n") != ",".join(RESULT_COLUMNS):
            raise DataError(f"{path}: existing file does not match the results schema")
        for line in fh:
            if not line.endswith("\n"):
                continue  # torn final write from an interrupted run
            line = line.rstrip("\n")
            if not line:
                continue
            fields = next(csv.reader([line]))
            if len(fields) != len(RESULT_COLUMNS):
                continue  # torn final write from an interrupted run
            try:
                sid = int(fields[0])
            except ValueError:
                raise DataError(f"{path}: bad scenario_id '{fields[0]}'") from None
            rows = by_scenario.setdefault(sid, [])
            want, n = expected.get(sid, ()), len(rows)
            if n >= len(want) or tuple(fields[: len(want[n])]) != want[n]:
                raise DataError(
                    f"{path}: scenario {sid} was written by a different grid "
                    f"(its row {n + 1} does not match this config); "
                    "use another output path or remove the file"
                )
            rows.append(line)
    return {sid: lines for sid, lines in by_scenario.items()
            if len(lines) == len(expected[sid])}


def _design_columns(grid):
    """Map scenario_id -> the design columns (scenario_id through n_rep) of the rows it writes.

    They are cut from `result_lines` of each (cell, model) with no
    summaries, so they are the columns a run writes, formatted the same way.
    """
    width = RESULT_COLUMNS.index("n_rep") + 1
    unfit = {kind: EstimatorSummary(kind, 0, None, None, 0, None, None)
             for kind in grid.estimators}
    return {
        sc.index: [tuple(line.split(",")[:width]) for model in grid.models
                   for line in result_lines(ScenarioResult(sc, model, sc.replicates, 0, 0.0,
                                                           None, unfit, {}))]
        for sc in grid.scenarios()
    }


def _replace_lines(path, lines):
    """Atomically make `path` hold `lines`: a temp file beside it, then os.replace."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = _open_out(tmp, "w", newline="")
    try:
        with fh:
            _write_lines(fh, tmp, lines)
            os.fsync(fh.fileno())
    except OSError as err:
        raise _cannot_write(tmp, err) from err
    try:
        os.replace(tmp, path)
    except OSError as err:
        raise _cannot_write(path, err) from err


def cmd_simulate(args):
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read config {args.config}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"config {args.config} is not valid JSON: {err}") from None
    grid, out_path, config_threads = parse_grid_config(doc)
    threads = _resolve_threads(args.threads, config_threads)

    scenarios = grid.scenarios()
    cached = {}
    if args.resume:
        cached = _load_resume_lines(out_path, _design_columns(grid))

    def progress(done, total, idx):
        sys.stderr.write(f"scenario {idx} done ({done}/{total} computed)\n")

    # finished rows are never truncated: the cached scenarios are rewritten
    # atomically, new ones are appended as they finish, and a last atomic
    # rewrite puts the file in grid order. With nothing cached there is
    # nothing to lose, so a fresh run just truncates the file (no fsync on
    # the common path).
    header = ",".join(RESULT_COLUMNS)
    lines = {sc.index: cached[sc.index] for sc in scenarios if sc.index in cached}
    if cached:
        _replace_lines(out_path, [header, *(line for rows in lines.values() for line in rows)])
    results = run_grid(grid, threads=threads, progress=progress, skip=tuple(cached))
    fh = _open_out(out_path, "a" if cached else "w", newline="")
    try:
        if not cached:
            _write_lines(fh, out_path, [header])
        for sc in scenarios:
            if sc.index in cached:
                continue
            # the grid runs outside _write_lines: its errors are not write errors
            lines[sc.index] = [line for res in next(results) for line in result_lines(res)]
            _write_lines(fh, out_path, lines[sc.index])
    finally:
        _close(fh, out_path)
    if cached:
        _replace_lines(out_path, [header, *(line for sc in scenarios for line in lines[sc.index])])
    return 0


def _read_results(path):
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror}") from err
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != RESULT_COLUMNS:
            raise DataError(f"{path}: results schema mismatch (expected columns "
                            f"{','.join(RESULT_COLUMNS)})")
        rows = []
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != len(RESULT_COLUMNS):
                raise DataError(f"{path}: line {lineno}: expected "
                                f"{len(RESULT_COLUMNS)} fields, got {len(fields)}")
            row = {}
            for name, text in zip(RESULT_COLUMNS, fields):
                if name == "acceptable":
                    if text not in _FLAGS:
                        raise DataError(f"{path}: line {lineno}: column 'acceptable' is not "
                                        "0, 1 or empty")
                    row[name] = _FLAGS[text]
                elif name in _NUMERIC_COLUMNS:
                    if text == "":
                        row[name] = None
                    else:
                        try:
                            row[name] = float(text)
                        except ValueError:
                            raise DataError(
                                f"{path}: line {lineno}: column '{name}' is not numeric"
                            ) from None
                else:
                    row[name] = text
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no result rows")
    return rows


def cmd_report(args):
    rows = _read_results(args.results)
    by = tuple(t.strip() for t in args.by.split(",") if t.strip())
    if not by:
        raise UsageError("--by must name at least one grouping column")
    for col in by:
        if col not in _GROUPABLE_COLUMNS:
            raise UsageError(f"cannot group by '{col}' (choose from: "
                             f"{', '.join(_GROUPABLE_COLUMNS)})")

    groups = {}
    for row in rows:
        key = tuple(row[c] for c in by)
        groups.setdefault(key, []).append(row)

    def mean_of(items, col):
        vals = [r[col] for r in items if r[col] is not None]
        return sum(vals) / len(vals) if vals else None

    out_columns = list(by) + [
        "n_rows", "mean_conv_rate", "mean_esd", "mean_se",
        "mean_pct_bias", "mean_type1", "frac_acceptable",
    ]
    lines = [",".join(out_columns)]
    for key in sorted(groups, key=lambda k: tuple((v is None, v) for v in k)):
        items = groups[key]
        cells = [_cell(int(v) if isinstance(v, float) and v.is_integer() and c in
                       ("scenario_id", "n_clusters", "n_rep", "n_conv") else v)
                 for c, v in zip(by, key)]
        cells += [
            _cell(len(items)),
            _cell(mean_of(items, "conv_rate")),
            _cell(mean_of(items, "esd")),
            _cell(mean_of(items, "mean_se")),
            _cell(mean_of(items, "pct_bias")),
            _cell(mean_of(items, "type1")),
            _cell(mean_of(items, "acceptable")),    # the share of stored flags that are 1
        ]
        lines.append(",".join(cells))
    _write_out(lines, args.out, newline="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crtgee",
        description="GEE analysis of two-arm cluster randomized trials with "
                    "small-sample variance corrections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="fit one model to a trial CSV")
    p_an.add_argument("--data", required=True, help="CSV with header cluster_id,arm,outcome")
    p_an.add_argument("--family", required=True,
                      help="working family: binomial, poisson, or gaussian")
    p_an.add_argument("--link", required=True, help="link: log, identity, or logit")
    p_an.add_argument("--corrections", default=",".join(k.value for k in ALL_KINDS),
                      help="comma-separated estimators (default: all)")
    p_an.add_argument("--level", type=float, default=0.95,
                      help="confidence level (default 0.95)")
    p_an.add_argument("--out", default=None, help="report path (default: stdout)")
    p_an.add_argument("--z-test", action="store_true", dest="z_test",
                      help="diagnostic only: also report normal-approximation p-values")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run a simulation grid from a JSON config")
    p_sim.add_argument("--config", required=True, help="JSON grid configuration")
    p_sim.add_argument("--threads", type=int, default=None,
                       help=f"worker processes (default: config, then ${THREADS_ENV_VAR}, then 1)")
    p_sim.add_argument("--resume", action="store_true",
                       help="reuse completed scenarios already in the output file")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="pivot a results file into grouped summaries")
    p_rep.add_argument("--results", required=True, help="results CSV from simulate")
    p_rep.add_argument("--by", default="estimator",
                       help="comma-separated grouping columns (default: estimator)")
    p_rep.add_argument("--out", default=None, help="summary path (default: stdout)")
    p_rep.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser():
    """The argument parser, built on the first `main` call and reused after it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except CrtGeeError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
