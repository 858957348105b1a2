"""Spans around crtgee's module boundaries, patched in from outside the package.

The tracer replaces public names in crtgee's modules with wrappers that
record a span (name, start, end, parent) and a few exact counters, and puts
the originals back on exit. Spans stay in memory until the run ends. A
layer's self time is its spans' durations minus the time their child spans
cover. Names that a later refactor removes are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter

#: (module, attribute, span name); the same function is patched in every
#: module that calls it, under one span name
TARGETS = (
    ("crtgee.simulate", "generate_trial", "datagen.generate_trial"),
    ("crtgee.simulate", "fit_gee", "gee.fit_gee"),
    ("crtgee.simulate", "compute_estimates", "sandwich.compute_estimates"),
    ("crtgee.simulate", "wald_inference", "inference.wald_inference"),
    ("crtgee.simulate", "run_replicate", "simulate.run_replicate"),
    ("crtgee.simulate", "aggregate", "simulate.aggregate"),
    ("crtgee.inference", "student_t_quantile", "tdist.student_t_quantile"),
    ("crtgee.inference", "student_t_two_sided_p", "tdist.student_t_two_sided_p"),
    ("crtgee.cli", "read_trial_csv", "cli.read_trial_csv"),
    ("crtgee.cli", "fit_gee", "gee.fit_gee"),
    ("crtgee.cli", "compute_estimates", "sandwich.compute_estimates"),
    ("crtgee.cli", "wald_inference", "inference.wald_inference"),
    ("crtgee.cli", "result_rows", "simulate.result_rows"),
    ("crtgee.cli", "cmd_analyze", "cli.cmd_analyze"),
    ("crtgee.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("crtgee.cli", "run_grid", "simulate.run_grid"),
    ("crtgee.datagen", "Cluster", "data.Cluster"),
    ("crtgee.cli", "Cluster", "data.Cluster"),
)

#: span names whose calls and self time are reported
LAYERS = (
    "datagen.generate_trial",
    "data.Cluster",
    "gee.fit_gee",
    "sandwich.compute_estimates",
    "inference.wald_inference",
    "tdist.student_t_quantile",
    "tdist.student_t_two_sided_p",
    "simulate.run_replicate",
    "simulate.aggregate",
    "simulate.result_rows",
    "cli.read_trial_csv",
    "cli.cmd_analyze",
    "cli.cmd_simulate",
)

#: the non-convergence reasons fit_gee raises; others are counted as "other"
REASONS = (
    "max_iterations",
    "score_condition_failed",
    "singular_information",
    "step_halving_exhausted",
    "numerical_breakdown",
)

ROOT = "bench.call"
WAIT = "simulate.run_grid.wait"


class Tracer:
    """Collects spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.quantile_args = set()
        self.first_result_s = []
        self.absent = []
        self._saved = []

    # -------------------------------------------------------------- spans

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def call(self, fn):
        """Run one top-level benchmark call under a root span."""
        span = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, fn, name, on_result=None, on_error=None):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._close(span)
                if on_error is not None:
                    on_error(args, err)
                raise
            self._close(span)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _wrap_run_grid(self, fn):
        tracer = self

        class Results:
            """Times each next() of run_grid's generator: the consumer's wait."""

            def __init__(self, gen):
                self.gen = gen
                self.start = time.perf_counter()
                self.first = True

            def __iter__(self):
                return self

            def __next__(self):
                span = tracer._open(WAIT)
                try:
                    item = next(self.gen)
                finally:
                    tracer._close(span)
                if self.first:
                    self.first = False
                    tracer.first_result_s.append(span[2] - self.start)
                return item

        @functools.wraps(fn, updated=())
        def run_grid(*args, **kwargs):
            return Results(fn(*args, **kwargs))
        return run_grid

    # ------------------------------------------------------------ counters

    def _fit_done(self, args, fit):
        self.counts["gee.iterations"] += fit.iterations
        self.counts["gee.alpha_clamped"] += bool(fit.alpha_clamped)

    def _fit_failed(self, args, err):
        self.counts["gee.iterations"] += getattr(err, "iterations", 0) or 0
        reason = getattr(err, "reason", None)
        key = reason if reason in REASONS else "other"
        self.counts[f"gee.nonconverged.{key}"] += 1

    def _estimates_done(self, args, estimates):
        self.counts["sandwich.estimates_returned"] += len(estimates)

    def _estimates_failed(self, args, err):
        self.counts["sandwich.estimator_failures"] += 1

    def _quantile_called(self, args, result):
        self.quantile_args.add(tuple(args))

    def _trial_done(self, args, data):
        self.counts["datagen.obs_generated"] += data.n_obs

    def _csv_done(self, args, data):
        self.counts["cli.rows_parsed"] += data.n_obs

    # ------------------------------------------------------------ install

    def __enter__(self):
        self.absent = []
        hooks = {
            "gee.fit_gee": (self._fit_done, self._fit_failed),
            "sandwich.compute_estimates": (self._estimates_done, self._estimates_failed),
            "tdist.student_t_quantile": (self._quantile_called, None),
            "datagen.generate_trial": (self._trial_done, None),
            "cli.read_trial_csv": (self._csv_done, None),
        }
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if name == "simulate.run_grid":
                wrapped = self._wrap_run_grid(original)
            else:
                wrapped = self._wrap(original, name, *hooks.get(name, (None, None)))
            setattr(module, attr, wrapped)
            self._saved.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    # ------------------------------------------------------------ results

    def self_times(self):
        """Per span name: (calls, total self seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, busy = Counter(), Counter()
        for (name, start, end, parent), child in zip(self.spans, covered):
            calls[name] += 1
            busy[name] += (end - start) - child
        return calls, busy

    def metrics(self):
        """The per-layer metrics, by name (without the overhead, which the run adds)."""
        calls, busy = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (float(busy[layer]), "s")
        obs = self.counts["datagen.obs_generated"]
        out["datagen.obs_generated"] = (obs, "count")
        out["datagen.ns_per_obs"] = (
            busy["datagen.generate_trial"] / obs * 1e9 if obs else 0.0, "ns")
        out["gee.iterations"] = (self.counts["gee.iterations"], "count")
        for reason in REASONS + ("other",):
            key = f"gee.nonconverged.{reason}"
            out[key] = (self.counts[key], "count")
        out["gee.alpha_clamped"] = (self.counts["gee.alpha_clamped"], "count")
        for key in ("sandwich.estimates_returned", "sandwich.estimator_failures",
                    "cli.rows_parsed"):
            out[key] = (self.counts[key], "count")
        n_quantile = calls["tdist.student_t_quantile"]
        out["tdist.quantile_distinct_ratio"] = (
            len(self.quantile_args) / n_quantile if n_quantile else 0.0, "ratio")
        out["simulate.run_grid.wait_s"] = (float(busy[WAIT]), "s")
        out["simulate.run_grid.first_result_s"] = (
            statistics.median(self.first_result_s) if self.first_result_s else 0.0, "s")
        out["trace.absent_targets"] = (len(self.absent), "count")
        return out

    def largest_layer(self):
        """The layer with the most self time (the run_grid wait counts as a layer)."""
        _, busy = self.self_times()
        layers = {k: v for k, v in busy.items() if k != ROOT}
        layers["simulate.run_grid.wait_s"] = layers.pop(WAIT, 0.0)
        return max(layers, key=layers.get)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
