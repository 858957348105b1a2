"""Monte Carlo harness for operating characteristics of the variance estimators.

A factorial grid crosses design factors (number of clusters, cluster-size
distribution, marginal prevalence, within-cluster correlation); every cell is
replicated under the null of no intervention effect. Each replicate is fit
with every requested working model and each fitted model is summarized by
every requested variance estimator. Results are always emitted in grid order
and every replicate's RNG substream is keyed by (seed, scenario, replicate),
which makes output files byte-identical at any parallelism.

The unit of work is a block: consecutive cells of the grid, in grid order,
that share the number of clusters N, cut into pieces (a cell and a range of
its replicates) of at most BLOCK_REPLICATES replicates in all. A cell with
more replicates is split across blocks, and its last piece may share a block
with the next cell. Cells sharing N share their arms and the t reference's
N - 2 degrees of freedom, so a block generates each piece's cluster sizes and
event counts as (R, N) arrays, stacks them, and fits every working model to
all of them at once: one vectorized Fisher-scoring loop whose step is one
scalar U_a / W_a per arm, and every variance estimate formed from per-arm
sums as an (R, 2, 2) array. A fit rejects the null when |t| = |beta1 / SE|
exceeds the upper alpha_level/2 quantile of t, computed once per N; no
p-values are computed. Each replicate's outcome is bit for bit the one it
has alone, so results depend on neither the packing nor the number of
processes. Blocks are independent, so the grid can run them on T processes,
the caller included: block i runs on process i mod T, the caller running
its own blocks inline and each of the T - 1 worker processes sending its
results back over a pipe, and the caller takes them in grid order. A
worker starts its next block only once the caller has taken its previous
result, so at most T blocks are running or finished and not yet taken.
run_grid, run_scenario (a grid of one cell) and run_block (a block of one
piece) all go through this one block loop.

Summaries are computed over converged replicates only: the empirical SD of
the effect estimate (ddof=1), each estimator's mean SE and its percent bias
against that SD, and the type I error rate at the 5% level with the
[0.036, 0.064] acceptance band. A replicate whose arm has no events (or,
under the binomial family, only events) fails as empty_arm before any
scoring pass, so rare-outcome cells keep only part of their replicates.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .datagen import Scenario, generate_block, trial_arms
from .errors import DomainError
from .families import Family, Link, ModelSpec
from .gee import fit_block
from .inference import wald_reject
from .sandwich import (
    ALL_KINDS,
    DEFAULT_FG_BOUND,
    MULTIPLICATIVE_KINDS,
    EstimatorKind,
    estimate_block,
)

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

#: most replicates generated and fit together in one block; each replicate's
#: outcome is the same in any block, so results do not depend on it. Each
#: piece of a block holds all its replicates' uniforms at once (8 bytes per
#: observation), so the constant also bounds generation memory.
BLOCK_REPLICATES = 100

#: estimates whose diagnostics carry the largest leverage q_max
_LEVERAGE_KINDS = frozenset((*MULTIPLICATIVE_KINDS, EstimatorKind.AVG))

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

    def __post_init__(self):
        # the t reference has N - 2 degrees of freedom; reject here, before
        # any cell is generated and fit, rather than at its first quantile
        for n in self.n_clusters:
            if n < 4:
                raise DomainError(
                    f"n_clusters must be >= 4 (t with N - 2 degrees of freedom), got {n}"
                )

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
class ModelBlock:
    """One working model's outcomes on a block of replicates, one entry per replicate.

    A replicate whose fit failed has its reason, failing iteration and last
    coefficients, NaN alpha and phi, and no estimates.
    """

    reason: tuple            # non-convergence reason; None for a converged fit
    iterations: np.ndarray   # scoring iterations
    beta: np.ndarray         # (R, 2) coefficients (a failed fit's last iterate, or NaN)
    alpha: np.ndarray        # working correlation
    phi: np.ndarray          # dispersion
    alpha_clamped: np.ndarray
    q_max: np.ndarray        # largest leverage; NaN unless a leverage-based SE was evaluated
    se: dict                 # kind -> (R,) arm-effect SE; NaN where not evaluated
    reject: dict             # kind -> (R,) |t| > t_crit
    failures: dict           # kind -> tuple of the estimate's error name, None if it has none

    @property
    def converged(self):
        return np.array([r is None for r in self.reason], dtype=bool)

    @classmethod
    def concat(cls, blocks):
        """The blocks' replicates in order, as one block."""
        first = blocks[0]
        if len(blocks) == 1:
            return first
        return cls(
            reason=tuple(r for b in blocks for r in b.reason),
            iterations=np.concatenate([b.iterations for b in blocks]),
            beta=np.concatenate([b.beta for b in blocks]),
            alpha=np.concatenate([b.alpha for b in blocks]),
            phi=np.concatenate([b.phi for b in blocks]),
            alpha_clamped=np.concatenate([b.alpha_clamped for b in blocks]),
            q_max=np.concatenate([b.q_max for b in blocks]),
            se={k: np.concatenate([b.se[k] for b in blocks]) for k in first.se},
            reject={k: np.concatenate([b.reject[k] for b in blocks]) for k in first.reject},
            failures={k: tuple(n for b in blocks for n in b.failures[k]) for k in first.failures},
        )

    def take(self, rows):
        """The replicates in the slice `rows`, as one block."""
        return ModelBlock(
            reason=self.reason[rows],
            iterations=self.iterations[rows],
            beta=self.beta[rows],
            alpha=self.alpha[rows],
            phi=self.phi[rows],
            alpha_clamped=self.alpha_clamped[rows],
            q_max=self.q_max[rows],
            se={k: v[rows] for k, v in self.se.items()},
            reject={k: v[rows] for k, v in self.reject.items()},
            failures={k: v[rows] for k, v in self.failures.items()},
        )


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


def _model_block(arm, m, s, model, kinds, fg_bound, alpha_level):
    """Fit one working model to a block's (m, s), estimate and test: a ModelBlock."""
    n_rep = len(m)
    fits = fit_block(arm, m, s, model)
    rows = fits.rows
    reason = [None] * n_rep
    iterations = np.zeros(n_rep, dtype=int)
    beta = np.full((n_rep, 2), np.nan)
    for r, err in fits.errors.items():
        reason[r], iterations[r] = err.reason, err.iterations
        if err.last_beta is not None:
            beta[r] = err.last_beta
    iterations[rows], beta[rows] = fits.iterations, fits.beta
    alpha, phi, q_max = (np.full(n_rep, np.nan) for _ in range(3))
    alpha[rows], phi[rows] = fits.alpha, fits.phi
    clamped = np.zeros(n_rep, dtype=bool)
    clamped[rows] = fits.clamped

    covs, _, errors = estimate_block(fits, kinds, fg_bound)
    df = len(arm) - 2
    leverage_evaluated = np.zeros(len(rows), dtype=bool)
    se, reject, failures = {}, {}, {}
    for kind in kinds:
        kind_se, kind_reject, degenerate = wald_reject(
            fits.beta[:, 1], covs[kind][:, 1, 1], df, alpha_level)
        names = [None] * n_rep
        for k in np.flatnonzero(degenerate):
            err = errors[kind].get(k)
            names[rows[k]] = "DegenerateVarianceError" if err is None else type(err).__name__
        if kind in _LEVERAGE_KINDS:
            leverage_evaluated |= ~degenerate
        se[kind] = np.full(n_rep, np.nan)
        se[kind][rows] = kind_se
        reject[kind] = np.zeros(n_rep, dtype=bool)
        reject[kind][rows] = kind_reject
        failures[kind] = tuple(names)
    q_max[rows[leverage_evaluated]] = fits.h[leverage_evaluated].max(axis=1)
    return ModelBlock(reason=tuple(reason), iterations=iterations, beta=beta, alpha=alpha,
                      phi=phi, alpha_clamped=clamped, q_max=q_max, se=se, reject=reject,
                      failures=failures)


def run_block(scenario, replicate_indices, models=ALL_MODELS, kinds=ALL_KINDS,
              fg_bound=DEFAULT_FG_BOUND, alpha_level=ALPHA_LEVEL):
    """Generate a block of replicates and fit every working model to all of them.

    Returns {model label: ModelBlock}, entries in the order of
    `replicate_indices`. Every replicate's outcome equals that of a block
    holding it alone.
    """
    fitted, error = _fit_pieces([(scenario, replicate_indices)], models, kinds, fg_bound,
                                alpha_level)
    if error is not None:
        raise error
    return fitted[0]


def _fit_pieces(pieces, models, kinds, fg_bound, alpha_level):
    """Generate a block's (scenario, replicate_indices) pieces, which share N, and fit them.

    Returns ([{model label: ModelBlock} per piece], error). If generating a
    piece raises, the pieces before it are still fit and returned, with that
    exception as `error` (None otherwise), so every cell they finish can be
    reported before the run ends.
    """
    ms, ss, error = [], [], None
    for scenario, reps in pieces:
        try:
            m, s = generate_block(scenario, reps)
        except Exception as err:
            error = err
            break
        ms.append(m)
        ss.append(s)
    if not ms:
        return [], error
    arm = trial_arms(pieces[0][0].n_clusters)
    m, s = np.concatenate(ms), np.concatenate(ss)
    fitted = {model.label(): _model_block(arm, m, s, model, kinds, fg_bound, alpha_level)
              for model in models}
    ends = itertools.accumulate(len(piece) for piece in ms)
    return [{label: block.take(slice(end - len(piece), end)) for label, block in fitted.items()}
            for piece, end in zip(ms, ends)], error


def pack_blocks(scenarios, block_replicates):
    """Cut the cells' replicates into blocks, in order: lists of (scenario, range) pieces.

    A block holds consecutive cells that share n_clusters and at most
    `block_replicates` replicates; a cell is split where a block fills, so
    its pieces cover its replicates once, in order.
    """
    blocks, room = [], 0
    for sc in scenarios:
        if blocks and sc.n_clusters != blocks[-1][0][0].n_clusters:
            room = 0
        start = 0
        while start < sc.replicates:
            if room == 0:
                blocks.append([])
                room = block_replicates
            stop = min(sc.replicates, start + room)
            blocks[-1].append((sc, range(start, stop)))
            room -= stop - start
            start = stop
    return blocks


def _tally(names, rows):
    """{name: count} over the rows of a boolean mask, from one name or None per replicate."""
    if names.count(None) == len(names):
        return {}
    names = np.fromiter(names, dtype=object, count=len(names))[rows]
    found, counts = np.unique(names[np.not_equal(names, None)].astype(str), return_counts=True)
    return dict(zip(found.tolist(), counts.tolist()))


def aggregate(scenario, model, block, kinds=ALL_KINDS):
    """Summarize one model's replicates (a ModelBlock) in one cell; converged-only denominators."""
    n_rep = len(block.reason)
    conv = block.converged
    n_conv = int(conv.sum())
    esd = None
    if n_conv >= 2:
        esd = float(np.std(block.beta[conv, -1], ddof=1))

    summaries = {}
    for kind in kinds:
        ses = block.se[kind][conv]
        ses = ses[~np.isnan(ses)]
        mean_se = float(np.mean(ses)) if ses.size else None
        pct_bias = None
        if ses.size and esd is not None and esd > 0.0:
            pct_bias = float(np.mean((ses - esd) / esd * 100.0))
        rejections = int(block.reject[kind][conv].sum())
        type1 = rejections / n_conv if n_conv > 0 and ses.size else None
        acceptable = None
        if type1 is not None:
            acceptable = TYPE1_BAND[0] <= type1 <= TYPE1_BAND[1]
        summaries[kind] = EstimatorSummary(
            kind=kind,
            n_eval=int(ses.size),
            mean_se=mean_se,
            percent_bias=pct_bias,
            rejections=rejections,
            type1_error=type1,
            acceptable=acceptable,
        )

    diagnostics = {
        "nonconvergence": _tally(block.reason, ~conv),
        "alpha_clamped": int(block.alpha_clamped[conv].sum()),
        "estimator_failures": {
            (kind.value, name): count
            for kind in kinds for name, count in _tally(block.failures[kind], conv).items()
        },
    }
    q_values = block.q_max[conv]
    q_values = q_values[~np.isnan(q_values)]
    if q_values.size:
        diagnostics["q_max"] = float(q_values.max())
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
    """All replicates of one grid cell, in blocks; one ScenarioResult per working model."""
    (results,) = _run_cells([scenario], models, kinds, fg_bound, alpha_level)
    return results


def run_grid(grid, threads=1, progress=None, skip=()):
    """Yield ScenarioResult lists per cell, in grid order at any parallelism.

    `skip` holds scenario indices already on disk (resumed runs); their cells
    are neither recomputed nor re-emitted. A cell that raises ends the run
    after every earlier cell has been yielded.
    """
    skip = set(skip)
    scenarios = [s for s in grid.scenarios() if s.index not in skip]
    yield from _run_cells(scenarios, grid.models, grid.estimators, grid.fg_bound,
                          grid.alpha_level, threads, progress)


def _run_cells(scenarios, models, kinds, fg_bound, alpha_level, threads=1, progress=None):
    """The block loop: yield each cell's ScenarioResult list, in order, once its last piece is fit.

    The cells are packed into blocks (`pack_blocks`) and run on
    min(threads, number of blocks) processes, the caller included: block i
    runs on process i mod that number, process 0 being the caller, which
    fits its blocks here, inline; the others are `_workers`. Blocks are
    taken in grid order, so cells are yielded in grid order. Cells sharing
    a block finish together; a block's error is raised after every cell it
    finished.
    """
    blocks = pack_blocks(scenarios, BLOCK_REPLICATES)
    task = functools.partial(_fit_pieces, models=models, kinds=kinds, fg_bound=fg_bound,
                             alpha_level=alpha_level)
    processes = min(threads, len(blocks))
    with _workers(task, blocks, processes) as take:
        done, pieces = 0, []
        for i, block in enumerate(blocks):
            fitted, error = take(i) if i % processes else task(block)
            for (sc, reps), piece in zip(block, fitted):
                pieces.append(piece)
                if reps.stop < sc.replicates:
                    continue
                results = [aggregate(sc, m, ModelBlock.concat([p[m.label()] for p in pieces]),
                                     kinds) for m in models]
                done, pieces = done + 1, []
                if progress is not None:
                    progress(done, len(scenarios), sc.index)
                yield results
            if error is not None:
                raise error


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the error it sent."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


@contextlib.contextmanager
def _workers(task, blocks, processes):
    """Start processes - 1 worker processes; worker w fits blocks w, w + processes, ...

    Yields take(i), which returns block i's (fitted, error) from its worker
    and lets that worker start its next block. A worker's error comes back
    with its traceback as `__cause__`; a worker that exits without sending
    block i's result makes take(i) raise RuntimeError naming its exit code.
    On leaving, workers still running are terminated, and all are joined.
    """
    context = multiprocessing.get_context()
    started = []
    try:
        for w in range(1, processes):
            conn, child = context.Pipe()
            proc = context.Process(target=_work, args=(child, task, blocks[w::processes]))
            proc.start()
            child.close()
            started.append((proc, conn))

        def take(i):
            proc, conn = started[i % processes - 1]
            try:
                fitted, error = conn.recv()
            except (EOFError, OSError):
                proc.join()
                raise RuntimeError(f"worker process {i % processes} exited with code "
                                   f"{proc.exitcode} before returning block {i}") from None
            if error is not None:
                error, text = error
                error.__cause__ = _RemoteTraceback(text)
            elif i + processes < len(blocks):
                # a worker gone since it sent this result shows at its next take
                with contextlib.suppress(OSError):
                    conn.send(None)
            return fitted, error

        yield take
    finally:
        for proc, _ in started:
            if proc.exitcode is None:
                proc.terminate()
        for proc, conn in started:
            proc.join()
            proc.close()
            conn.close()


def _work(conn, task, blocks):
    """A worker: fit its blocks in order, sending each (fitted, error) and waiting for
    the caller to take it before starting the next. An error, raised or returned,
    is sent with its formatted traceback and ends the worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the caller answers Ctrl-C, and stops it
    for k, block in enumerate(blocks):
        if k:
            conn.recv()
        try:
            fitted, error = task(block)
        except Exception as err:
            fitted, error = [], err
        if error is not None:
            error = (error, "".join(traceback.format_exception(type(error), error,
                                                               error.__traceback__)))
        conn.send((fitted, error))
        if error is not None:
            break
    conn.close()


def design_row(scenario, model, kind):
    """The columns of a result row fixed by the grid alone (scenario_id through n_rep)."""
    return {
        "scenario_id": scenario.index,
        "n_clusters": scenario.n_clusters,
        "cluster_size": scenario.sizes.mean,
        "cv": scenario.sizes.cv,
        "pi0": scenario.pi0,
        "icc": scenario.icc,
        "family": model.family.value,
        "link": model.link.value,
        "estimator": kind.value,
        "n_rep": scenario.replicates,
    }


def result_rows(result):
    """Flatten one ScenarioResult into per-estimator rows for the results table."""
    return [
        {
            **design_row(result.scenario, result.model, kind),
            "n_conv": result.n_converged,
            "conv_rate": result.convergence_rate,
            "esd": result.esd,
            "mean_se": summ.mean_se,
            "pct_bias": summ.percent_bias,
            "type1": summ.type1_error,
            "acceptable": summ.acceptable,
        }
        for kind, summ in result.estimators.items()
    ]
