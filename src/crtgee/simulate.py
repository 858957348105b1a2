"""Monte Carlo harness for operating characteristics of the variance estimators.

A factorial grid crosses design factors (number of clusters, cluster-size
distribution, marginal prevalence, within-cluster correlation); every cell is
replicated under the null of no intervention effect. Each replicate is fit
with every requested working model and each fitted model is summarized by
every requested variance estimator. Scenario cells are independent, so the
grid can run on several processes; results are always emitted in grid order
and every replicate's RNG substream is keyed by (seed, scenario, replicate),
which makes output files byte-identical at any parallelism.

Summaries are computed over converged replicates only: the empirical SD of
the effect estimate (ddof=1), each estimator's mean SE and its percent bias
against that SD, and the type I error rate at the 5% level with the
[0.036, 0.064] acceptance band.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .datagen import Scenario, generate_trial
from .errors import (
    CorrectionSingularityError,
    DegenerateVarianceError,
    NonConvergenceError,
    SingularityError,
    UnsupportedDesignError,
)
from .families import Family, Link, ModelSpec
from .gee import fit_gee
from .inference import wald_inference
from .sandwich import ALL_KINDS, DEFAULT_FG_BOUND, EstimatorKind, compute_estimates

#: nominal test level and the acceptance band around it
ALPHA_LEVEL = 0.05
TYPE1_BAND = (0.036, 0.064)

#: the six working models, in reporting order
ALL_MODELS = (
    ModelSpec(Family.BINOMIAL, Link.LOG),
    ModelSpec(Family.BINOMIAL, Link.IDENTITY),
    ModelSpec(Family.BINOMIAL, Link.LOGIT),
    ModelSpec(Family.POISSON, Link.LOG),
    ModelSpec(Family.POISSON, Link.IDENTITY),
    ModelSpec(Family.GAUSSIAN, Link.IDENTITY),
)

RESULT_COLUMNS = (
    "scenario_id",
    "n_clusters",
    "cluster_size",
    "cv",
    "pi0",
    "icc",
    "family",
    "link",
    "estimator",
    "n_rep",
    "n_conv",
    "conv_rate",
    "esd",
    "mean_se",
    "pct_bias",
    "type1",
    "acceptable",
)


@dataclass(frozen=True)
class FactorialGrid:
    """Null-hypothesis simulation study over the cross of the factor lists."""

    n_clusters: tuple
    sizes: tuple
    pi0: tuple
    icc: tuple
    models: tuple = ALL_MODELS
    estimators: tuple = ALL_KINDS
    replicates: int = 1000
    seed: int = 0
    fg_bound: float = DEFAULT_FG_BOUND
    alpha_level: float = ALPHA_LEVEL

    def scenarios(self):
        """Grid cells in deterministic order; the index keys each cell's RNG."""
        cells = itertools.product(self.n_clusters, self.sizes, self.pi0, self.icc)
        return tuple(
            Scenario(
                n_clusters=n,
                sizes=sizes,
                pi0=pi0,
                pi1=pi0,
                icc=icc,
                replicates=self.replicates,
                seed=self.seed,
                index=i,
            )
            for i, (n, sizes, pi0, icc) in enumerate(cells)
        )

    @property
    def n_scenarios(self):
        return len(self.n_clusters) * len(self.sizes) * len(self.pi0) * len(self.icc)


@dataclass
class ModelReplicate:
    """Outcome of one replicate under one working model."""

    converged: bool
    reason: str = None
    beta1: float = None
    alpha_clamped: bool = False
    q_max: float = None
    se: dict = field(default_factory=dict)
    p: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EstimatorSummary:
    """Operating characteristics of one variance estimator in one cell."""

    kind: EstimatorKind
    n_eval: int
    mean_se: float
    percent_bias: float
    rejections: int
    type1_error: float
    acceptable: bool


@dataclass(frozen=True)
class ScenarioResult:
    """One grid cell summarized for one working model."""

    scenario: Scenario
    model: ModelSpec
    n_replicates: int
    n_converged: int
    convergence_rate: float
    esd: float
    estimators: dict
    diagnostics: dict


def run_replicate(scenario, replicate_index, models=ALL_MODELS, kinds=ALL_KINDS,
                  fg_bound=DEFAULT_FG_BOUND, alpha_level=ALPHA_LEVEL):
    """Generate one dataset and fit every working model to it."""
    data = generate_trial(scenario, replicate_index)
    out = {}
    for model in models:
        try:
            fit = fit_gee(data, model)
        except NonConvergenceError as err:
            out[model.label()] = ModelReplicate(converged=False, reason=err.reason)
            continue
        except SingularityError:
            out[model.label()] = ModelReplicate(converged=False, reason="singular_information")
            continue
        rec = ModelReplicate(
            converged=True,
            beta1=float(fit.beta[-1]),
            alpha_clamped=fit.alpha_clamped,
        )
        for kind in kinds:
            try:
                est = compute_estimates(fit, (kind,), fg_bound=fg_bound)[kind]
                inf = wald_inference(fit, est, alpha_level=alpha_level)
            except (CorrectionSingularityError, DegenerateVarianceError,
                    UnsupportedDesignError, SingularityError) as err:
                rec.failures[kind] = type(err).__name__
                continue
            rec.se[kind] = inf.se
            rec.p[kind] = inf.p_value
            q = est.diagnostics.get("q_max")
            if q is not None:
                rec.q_max = q if rec.q_max is None else max(rec.q_max, q)
        out[model.label()] = rec
    return out


def aggregate(scenario, model, records, kinds=ALL_KINDS, alpha_level=ALPHA_LEVEL):
    """Summarize one model's replicates in one cell; converged-only denominators."""
    n_rep = len(records)
    conv = [r for r in records if r.converged]
    n_conv = len(conv)
    esd = None
    if n_conv >= 2:
        esd = float(np.std([r.beta1 for r in conv], ddof=1))

    summaries = {}
    for kind in kinds:
        ses = [r.se[kind] for r in conv if kind in r.se]
        pvals = [r.p[kind] for r in conv if kind in r.p]
        mean_se = float(np.mean(ses)) if ses else None
        pct_bias = None
        if ses and esd is not None and esd > 0.0:
            pct_bias = float(np.mean([(s - esd) / esd * 100.0 for s in ses]))
        rejections = sum(1 for p in pvals if p < alpha_level)
        type1 = rejections / n_conv if n_conv > 0 and pvals else None
        acceptable = None
        if type1 is not None:
            acceptable = TYPE1_BAND[0] <= type1 <= TYPE1_BAND[1]
        summaries[kind] = EstimatorSummary(
            kind=kind,
            n_eval=len(ses),
            mean_se=mean_se,
            percent_bias=pct_bias,
            rejections=rejections,
            type1_error=type1,
            acceptable=acceptable,
        )

    diagnostics = {
        "nonconvergence": dict(Counter(r.reason for r in records if not r.converged)),
        "alpha_clamped": sum(1 for r in conv if r.alpha_clamped),
        "estimator_failures": dict(
            Counter(
                (k.value, name) for r in conv for k, name in r.failures.items()
            )
        ),
    }
    q_values = [r.q_max for r in conv if r.q_max is not None]
    if q_values:
        diagnostics["q_max"] = max(q_values)
    ordered = [
        summaries.get(k)
        for k in (EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD)
    ]
    if all(s is not None and s.type1_error is not None for s in ordered):
        t_r, t_kc, t_md = (s.type1_error for s in ordered)
        diagnostics["ordering_consistent"] = t_r >= t_kc >= t_md
    return ScenarioResult(
        scenario=scenario,
        model=model,
        n_replicates=n_rep,
        n_converged=n_conv,
        convergence_rate=n_conv / n_rep if n_rep else 0.0,
        esd=esd,
        estimators=summaries,
        diagnostics=diagnostics,
    )


def run_scenario(scenario, models=ALL_MODELS, kinds=ALL_KINDS,
                 fg_bound=DEFAULT_FG_BOUND, alpha_level=ALPHA_LEVEL):
    """All replicates of one grid cell; one ScenarioResult per working model."""
    per_model = {m.label(): [] for m in models}
    for rep in range(scenario.replicates):
        outcome = run_replicate(scenario, rep, models, kinds, fg_bound, alpha_level)
        for label, rec in outcome.items():
            per_model[label].append(rec)
    return [
        aggregate(scenario, m, per_model[m.label()], kinds, alpha_level)
        for m in models
    ]


def run_grid(grid, threads=1, progress=None, skip=()):
    """Yield ScenarioResult lists per cell, in grid order at any parallelism.

    `skip` holds scenario indices already on disk (resumed runs); their cells
    are neither recomputed nor re-emitted.
    """
    skip = set(skip)
    scenarios = [s for s in grid.scenarios() if s.index not in skip]
    args = (grid.models, grid.estimators, grid.fg_bound, grid.alpha_level)
    done = 0
    total = len(scenarios)
    if threads <= 1:
        for sc in scenarios:
            results = run_scenario(sc, *args)
            done += 1
            if progress is not None:
                progress(done, total, sc.index)
            yield results
        return

    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(run_scenario, sc, *args): sc.index for sc in scenarios}
        finished = {}
        order = [sc.index for sc in scenarios]
        next_pos = 0
        pending = set(futures)
        while pending or next_pos < len(order):
            if pending:
                ready, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in ready:
                    finished[futures[fut]] = fut.result()
            while next_pos < len(order) and order[next_pos] in finished:
                idx = order[next_pos]
                done += 1
                if progress is not None:
                    progress(done, total, idx)
                yield finished.pop(idx)
                next_pos += 1


def result_rows(result):
    """Flatten one ScenarioResult into per-estimator rows for the results table."""
    sc = result.scenario
    rows = []
    for kind, summ in result.estimators.items():
        rows.append(
            {
                "scenario_id": sc.index,
                "n_clusters": sc.n_clusters,
                "cluster_size": sc.sizes.mean,
                "cv": sc.sizes.cv,
                "pi0": sc.pi0,
                "icc": sc.icc,
                "family": result.model.family.value,
                "link": result.model.link.value,
                "estimator": kind.value,
                "n_rep": result.n_replicates,
                "n_conv": result.n_converged,
                "conv_rate": result.convergence_rate,
                "esd": result.esd,
                "mean_se": summ.mean_se,
                "pct_bias": summ.percent_bias,
                "type1": summ.type1_error,
                "acceptable": summ.acceptable,
            }
        )
    return rows
