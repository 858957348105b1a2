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
import io
import itertools
import json
import math
import os
import sys
from operator import itemgetter

import numpy as np

from .data import ClusterSums
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
    TYPE1_BAND,
    FactorialGrid,
    design_row,
    result_rows,
    run_grid,
)
from .datagen import FixedSize, GammaSize

#: default thread count when neither --threads nor the config sets one
THREADS_ENV_VAR = "CRTGEE_THREADS"

TRIAL_CSV_HEADER = ("cluster_id", "arm", "outcome")

#: trial CSV records tokenised and checked together once the csv path reads
#: the file; bounds its working memory, and does not change what it returns
CSV_CHUNK_ROWS = 1024

#: characters of trial CSV text read and scanned together (64 KiB of ASCII);
#: bounds the scan's working memory, and does not change what it returns
SCAN_BLOCK_CHARS = 1 << 16

_NEWLINE, _CR = b"\n\r"
#: _WORD_MASKS[k] keeps the low k bytes of a 64-bit word
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

#: results columns holding numbers (parsed for grouping and averaging)
_NUMERIC_COLUMNS = {
    "scenario_id", "n_clusters", "cluster_size", "cv", "pi0", "icc",
    "n_rep", "n_conv", "conv_rate", "esd", "mean_se", "pct_bias", "type1",
}
_GROUPABLE_COLUMNS = (
    "scenario_id", "n_clusters", "cluster_size", "cv", "pi0", "icc",
    "family", "link", "estimator",
)


def read_trial_csv(path):
    """Parse an individual-level trial CSV into its per-cluster sums, a ClusterSums.

    The record holds the cluster ids in order of first appearance, each
    cluster's arm, its size m_i (rows) and its event count s_i (rows with
    outcome 1), and raises TrialDataset's DataErrors for fewer than two
    clusters or a missing arm. Rows are reduced to these counts block by
    block, so the reader's working memory is one block and the clusters'
    counts, at any file length.

    The file is read as text, SCAN_BLOCK_CHARS characters at a time, and
    further while the text read holds no line end and may still start one
    plain line (at most the csv field size limit plus 6 bytes). The whole
    lines of a block, when plain (`_scan_plain`: unquoted, every
    line `id,arm,outcome` with bare 0/1 codes and a nonempty id, ending in
    \n or \r\n), are read in one numpy pass over their UTF-8 bytes. From
    the first block that is not plain to the end of the file, records are
    tokenised by `csv.reader` and checked CSV_CHUNK_ROWS at a time, column
    by column; only that path reports errors, so every file gives the same
    counts or the same error either way. Errors carry the 1-based line on
    which the earliest offending row starts (the header is line 1; blank
    rows count but are skipped, and a quoted cell may span lines). A byte
    the text encoding cannot decode and a cell past
    `csv.field_size_limit()` are DataErrors too, naming the physical line
    that holds them (for a byte in a pipe, no line).
    """
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror}") from err
    ids = {}                                # cluster id -> index, in first-appearance order
    arm_of = np.zeros(0, dtype=np.uint8)    # each cluster's arm, by index
    tally = np.zeros(0, dtype=np.intp)      # at 2 i + y: cluster i's rows with outcome y
    with handle:
        first_line = 1                      # the physical line of reader's first line
        try:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            if tuple(cell.strip() for cell in header) != TRIAL_CSV_HEADER:
                raise DataError(
                    f"{path}: line 1: header must be exactly "
                    f"'{','.join(TRIAL_CSV_HEADER)}', got '{','.join(header)}'"
                )
            next_record = 2
            pending = b""                   # text read but not yet scanned, as UTF-8
            longest = csv.field_size_limit() + 6    # a plain line: id, then ",a,o\r\n"
            while True:
                # one block more; a block that is not plain (a lone \r, say, in a
                # file whose lines hold no \n) hands the rest to the csv path
                text = handle.read(SCAN_BLOCK_CHARS)
                pending += text.encode()
                block = pending
                if text and b"\n" not in pending:
                    # the start of one long line, which may be plain: read on until
                    # it ends, or the file does, or it cannot be plain, and scan it
                    # alone, as its id's width sets the scan's memory per line
                    while (text and b"\n" not in pending and len(pending) <= longest
                           and b"\r" not in pending[:-1]):
                        text = handle.read(SCAN_BLOCK_CHARS)
                        pending += text.encode()
                    block = pending[:pending.find(b"\n") + 1]
                scanned = _scan_plain(block, ids, arm_of)
                if scanned is None:
                    break
                size, arm_of, index, outcomes = scanned
                pending = pending[size:]
                tally = _tally(tally, index, outcomes, len(ids))
                next_record += index.size
            reader = ()
            if pending:
                # the unscanned text, completed to a line end, then the rest of the
                # stream; every scanned record is one line, so it starts on line
                # next_record
                first_line = next_record
                rest = io.StringIO(pending.decode() + handle.readline(), newline="")
                reader = csv.reader(itertools.chain(rest, handle))
            while rows := list(itertools.islice(reader, CSV_CHUNK_ROWS)):
                records = range(next_record, next_record + len(rows))
                next_record += len(rows)
                # candidate errors as (position, check order, message); the
                # earliest row wins, and within a row the first check that fails
                errors = []
                if list(map(len, rows)).count(3) != len(rows):
                    keep = [k for k, row in enumerate(rows) if not _is_blank(row)]
                    rows, records = [rows[k] for k in keep], [records[k] for k in keep]
                    bad = next((k for k, row in enumerate(rows) if len(row) != 3), None)
                    if bad is not None:
                        errors.append((bad, 0, f"expected 3 fields, got {len(rows[bad])}"))
                        rows = rows[:bad]
                cids = list(map(str.strip, map(itemgetter(0), rows)))
                arm_cells = list(map(str.strip, map(itemgetter(1), rows)))
                outcome_cells = list(map(str.strip, map(itemgetter(2), rows)))
                arms, bad_arm = _binary_codes(arm_cells)
                outcomes, bad_outcome = _binary_codes(outcome_cells)
                if "" in cids:
                    errors.append((cids.index(""), 1, "empty cluster_id"))
                if bad_arm is not None:
                    errors.append((bad_arm, 2, f"arm must be 0 or 1, got '{arm_cells[bad_arm]}'"))
                if bad_outcome is not None:
                    errors.append((bad_outcome, 3,
                                   f"outcome must be 0 or 1, got '{outcome_cells[bad_outcome]}'"))
                stop = min(errors)[0] if errors else len(rows)
                cids, arms = cids[:stop], arms[:stop]

                # a cluster new to this chunk takes the arm of its first row
                known = len(ids)
                for cid in dict.fromkeys(cids):
                    ids.setdefault(cid, len(ids))
                index = np.fromiter(map(ids.__getitem__, cids), dtype=np.intp, count=len(cids))
                if len(ids) > known:
                    found, first = np.unique(index, return_index=True)
                    arm_of = np.concatenate([arm_of, arms[first[found >= known]]])
                conflict = np.flatnonzero(arms != arm_of[index])
                if conflict.size:
                    k = int(conflict[0])
                    errors.append((k, 4, f"cluster '{cids[k]}' appears in both arms"))
                if errors:
                    k, _, message = min(errors)
                    raise DataError(f"{path}: line {_start_line(path, records[k])}: {message}")
                tally = _tally(tally, index, outcomes, len(ids))
        except UnicodeDecodeError as err:
            line = _undecodable_line(path, handle.encoding)
            where = "" if line is None else f"line {line}: "
            raise DataError(f"{path}: {where}cannot decode byte 0x{err.object[err.start]:02x} "
                            f"as {handle.encoding}") from None
        except csv.Error as err:
            raise DataError(f"{path}: line {first_line + reader.line_num - 1}: {err}") from None
    if not ids:
        raise DataError(f"{path}: no data rows")
    counts = tally.reshape(-1, 2)
    return ClusterSums(ids=tuple(ids), arm=arm_of, m=counts.sum(axis=1), s=counts[:, 1])


def _tally(tally, index, outcomes, n_clusters):
    """The row counts `tally` (at 2 i + y, cluster i's rows with outcome y, for the
    clusters known before a block) plus the block's rows, each a cluster index and a
    0/1 outcome, for all `n_clusters` clusters known now."""
    added = np.bincount(2 * index + outcomes, minlength=2 * n_clusters)
    added[:tally.size] += tally
    return added


def _scan_plain(pending, ids, arm_of):
    """Read the whole lines of `pending` (UTF-8 bytes) if they are plain.

    Plain lines hold no quote, NUL or lone \r, and each is `id,arm,outcome`
    ending in \n or \r\n, with `arm` and `outcome` a bare 0 or 1 and an id
    that is nonempty after `str.strip` and within the csv field size limit;
    every cluster's rows also keep one arm. For such lines `csv.reader`
    yields one record per line with the cells as they stand, so these are
    rows the csv path would accept as they are. The ids, zero-padded to a
    common multiple of 8 bytes, must also take at most twice the lines'
    bytes, which keeps the scan's memory that of the block.

    Returns (bytes read, `arm_of` extended by the clusters new to the
    block, each row's cluster index, its outcome codes), with the new
    clusters added to `ids`; or None, with nothing changed, when there is
    no whole line or a line is not plain.
    """
    ends = np.flatnonzero(np.frombuffer(pending, dtype=np.uint8) == _NEWLINE)
    n = ends.size
    if n == 0:
        return None
    size = int(ends[-1]) + 1
    block = pending[:size]
    if b'"' in block or b"\0" in block or block.count(b",") != 2 * n:
        return None
    raw = np.frombuffer(block, dtype=np.uint8)
    crlf = raw[ends - 1] == _CR
    tail = ends - crlf                  # each line's ",arm,outcome" ends here
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = tail - 4 - starts
    if (block.count(b"\r") != np.count_nonzero(crlf) or widths.min() < 1
            or widths.max() > csv.field_size_limit()):
        return None
    words = -(-int(widths.max()) // 8)
    if 8 * words * n > 2 * size:
        return None
    # at[p]: the 8 bytes from p on, as one little-endian word
    at = np.ndarray(size + 8 * words - 7, dtype="<u8", buffer=block + bytes(8 * words),
                    strides=(1,))
    # the four bytes ",a,o" before each line end: commas, and 0 or 1 digits;
    # with 2n commas in the block, none is left for an id
    codes = at[tail - 4]
    if ((codes & 0xFEFFFEFF) != 0x302C302C).any():
        return None
    arms = (codes >> 8 & 1).astype(np.uint8)
    outcomes = (codes >> 24 & 1).astype(np.uint8)

    # each id as a row of words, zero past its end; runs of lines that spell
    # one id, then the distinct spellings among the runs
    offsets = 8 * np.arange(words)
    keys = at[starts[:, None] + offsets] & _WORD_MASKS[
        np.minimum(np.maximum(widths[:, None] - offsets, 0), 8)]
    run = np.ones(n, dtype=bool)
    run[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    run_lines = np.flatnonzero(run)
    spellings, first, inverse = np.unique(
        keys[run_lines].astype("<u8", copy=False).view(f"S{8 * words}")[:, 0],
        return_index=True, return_inverse=True)
    first_lines = run_lines[first]

    # the spellings in order of first appearance, each to its cluster
    cluster = np.empty(len(spellings), dtype=np.intp)
    new, new_lines = {}, []
    order = np.argsort(first_lines)
    for k, line, spelling in zip(order.tolist(), first_lines[order].tolist(),
                                 spellings[order].tolist()):
        cid = spelling.decode().strip()
        if not cid:
            return None
        code = ids.get(cid, new.get(cid))
        if code is None:
            code = new[cid] = len(ids) + len(new)
            new_lines.append(line)
        cluster[k] = code
    run_lengths = np.empty_like(run_lines)
    run_lengths[:-1] = run_lines[1:] - run_lines[:-1]
    run_lengths[-1] = n - run_lines[-1]
    index = np.repeat(cluster[inverse], run_lengths)
    if new:
        arm_of = np.concatenate([arm_of, arms[new_lines]])
    if (arms != arm_of[index]).any():
        return None
    ids.update(new)
    return size, arm_of, index, outcomes


def _undecodable_line(path, encoding):
    """The 1-based physical line of the file's first byte that `encoding` cannot
    decode; None for a pipe, which cannot be read twice."""
    if not os.path.isfile(path):
        return None
    with open(path, newline="", encoding=encoding, errors="surrogateescape") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line.encode(encoding)
            except UnicodeEncodeError:
                return number
    return None


def _start_line(path, record):
    """The physical line on which the file's 1-based CSV record `record` starts;
    a pipe cannot be read twice, so there it is the record number."""
    if not os.path.isfile(path):
        return record
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for _ in itertools.islice(reader, record - 1):
            pass
        return reader.line_num + 1


def _is_blank(row):
    return not row or (len(row) == 1 and not row[0].strip())


def _binary_codes(cells):
    """The cells as a uint8 array of 0/1 codes, up to the first cell that is
    not "0" or "1": (codes, that cell's position, or None when all are)."""
    # Each cell followed by a newline: n cells are all "0" or "1" exactly when
    # the 2n bytes hold a 0 or 1 at every even position. The n newlines then
    # fill the n odd positions, so no cell is longer or shorter than one byte.
    raw = np.frombuffer("\n".join([*cells, ""]).encode(), dtype=np.uint8)
    codes = raw[::2] - np.uint8(ord("0"))
    if raw.size == 2 * len(cells) and not (codes > 1).any():
        return codes, None
    bad = next(k for k, cell in enumerate(cells) if cell not in ("0", "1"))
    return _binary_codes(cells[:bad])[0], bad


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


def _write_json(doc, out_path):
    text = json.dumps(_json_safe(doc), indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


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
        )
        grid.scenarios()  # force Scenario validation before any work starts
    except CrtGeeError as err:
        raise UsageError(f"invalid config: {err}") from None
    return grid, doc["output"], threads


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


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


def _replace_lines(path, lines):
    """Atomically make `path` hold `lines`: a temp file beside it, then os.replace."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


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
        expected = {
            sc.index: [tuple(_cell(v) for v in design_row(sc, model, kind).values())
                       for model in grid.models for kind in grid.estimators]
            for sc in scenarios
        }
        cached = _load_resume_lines(out_path, expected)

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
    with open(out_path, "a" if cached else "w", newline="") as fh:
        if not cached:
            fh.write(header + "\n")
        for sc in scenarios:
            if sc.index in cached:
                continue
            lines[sc.index] = [
                ",".join(_cell(row[c]) for c in RESULT_COLUMNS)
                for res in next(results)
                for row in result_rows(res)
            ]
            fh.writelines(line + "\n" for line in lines[sc.index])
            fh.flush()
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
                if name in _NUMERIC_COLUMNS:
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
        type1s = [r["type1"] for r in items if r["type1"] is not None]
        frac_ok = None
        if type1s:
            frac_ok = sum(
                1 for t in type1s if TYPE1_BAND[0] <= t <= TYPE1_BAND[1]
            ) / len(type1s)
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
            _cell(frac_ok),
        ]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
