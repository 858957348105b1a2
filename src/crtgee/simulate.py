"""Monte Carlo harness for operating characteristics of the variance estimators.

A factorial grid crosses design factors (number of clusters, cluster-size
distribution, marginal prevalence, within-cluster correlation); every cell is
replicated under the null of no intervention effect. Each replicate is fit
with every requested working model and each fitted model is summarized by
every requested variance estimator. Results are always emitted in grid order
and every replicate's RNG substream is keyed by (seed, scenario, replicate),
which makes output files byte-identical at any parallelism.

The unit of work is a block: consecutive cells of the grid, in grid order,
whatever their number of clusters N, cut into pieces (a cell and a range of
its replicates) of at most BLOCK_REPLICATES replicates in all. A cell with
more replicates is split across blocks, and its last piece may share a block
with the next cell, so a grid of at most BLOCK_REPLICATES replicates is one
block. A block is one pass from draws to summaries. Its pieces draw their
replicates' sizes and uniforms in turn, and one conditional-linear
recurrence turns them all into (R, W) cluster sizes and event counts, W the
block's largest N: a trial of N clusters fills each arm's first N/2 columns
and has m = s = 0 in the others. A cluster has m >= 1, so m = 0 marks
padding, which adds only trailing zeros to each arm's sums, and every sum
over a trial's clusters is an arm sum; its N (MBN's N / (N - 1) and
delta_N, the t reference's N - 2 degrees of freedom) is its count of
m > 0. The K models' K R fits are the rows of one vectorized
Fisher-scoring loop, model-major, whose step is one scalar U_a / W_a per
arm, with the per-arm functions (link, variance, range, empty-arm rule)
dispatched per model on contiguous row slices; every variance estimate is
formed from per-arm sums as one (K R, 2, 2) array per kind, and each kind's
tests are one call. The outcomes stay stacked: a piece is a slice of its
block's replicates, and one aggregate call summarizes every model of all
the cells that lie whole in the block from (kinds, K, R) views; a cell
split across blocks has its pieces joined once and is a call of its own,
so a block takes at most two; every cell's sums keep the bits of the cell
summarized alone. A fit rejects the null when |t| = |beta1 / SE| exceeds
the upper alpha_level/2 quantile of t, computed once per N in a block; no
p-values are computed. Each replicate's outcome is bit for bit the one it
has alone, so results depend on neither the packing nor the number of
processes. Blocks are independent, so the grid can run them on T
processes, the caller included, and on no more than there are blocks: a
grid of one block runs in the caller alone. Block i runs on process i mod T, the caller running
its own blocks inline and each of the T - 1 worker processes sending its
results back over a pipe, and the caller takes them in grid order. A worker starts
its next block only once the caller has taken its previous result, so at
most T blocks are running or finished and not yet taken. run_grid,
run_scenario (a grid of one cell) and run_block (a block of one piece) all
go through this one block loop.

Summaries are computed over converged replicates only, in aggregate alone:
the empirical SD of the effect estimate (ddof=1); each estimator's mean SE
and its percent bias against that SD, over the fits whose SE it evaluated
(a sum over a count, in which an SE not evaluated is neither added nor
counted); and its type I error rate at the 5% level, whose acceptable flag
is decided here, once, against the [0.036, 0.064] band. result_lines
writes every row of the results table, in RESULT_COLUMNS order, and
`crtgee report` reads the flags it wrote. A replicate whose arm has no
events (or, under the binomial family, only events) fails as empty_arm
before any scoring pass, so rare-outcome cells keep only part of their
replicates.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datagen import Scenario, generate_pieces, trial_arms
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

#: the columns of the results table, whose every row result_lines writes
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


#: the scalar types written as a flag and as an integer, numpy's included
_FLAGS = (bool, np.bool_)
_INTEGERS = (int, np.integer)


def _cell(value):
    """One cell of the results table: None is empty, a bool 1 or 0, an integer its
    digits, a string itself and any other real number the repr of its float, numpy's
    scalars included (numpy 2's repr of np.float64(0.5) is "np.float64(0.5)")."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, _FLAGS):
        return "1" if value else "0"
    if isinstance(value, _INTEGERS):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def result_lines(result):
    """The results-table lines of one ScenarioResult, one per estimator, in RESULT_COLUMNS order.

    The columns fixed per (cell, model), scenario_id through link and
    n_rep through esd, are formatted once; each estimator's line adds its
    name and its four summaries.
    """
    sc, model = result.scenario, result.model
    design = ",".join(map(_cell, (sc.index, sc.n_clusters, sc.sizes.mean, sc.sizes.cv, sc.pi0,
                                  sc.icc, model.family.value, model.link.value)))
    fit = ",".join(map(_cell, (sc.replicates, result.n_converged, result.convergence_rate,
                               result.esd)))
    return [f"{design},{kind.value},{fit},{_cell(s.mean_se)},{_cell(s.percent_bias)},"
            f"{_cell(s.type1_error)},{_cell(s.acceptable)}"
            for kind, s in result.estimators.items()]


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
        # the cells are built, and so checked, once, with the grid
        cells = itertools.product(self.n_clusters, self.sizes, self.pi0, self.icc)
        object.__setattr__(self, "_cells", tuple(
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
        ))

    def scenarios(self):
        """Grid cells in deterministic order; the index keys each cell's RNG."""
        return self._cells

    @property
    def n_scenarios(self):
        return len(self.n_clusters) * len(self.sizes) * len(self.pi0) * len(self.icc)


@dataclass
class ModelBlock:
    """Working-model outcomes on a block of replicates, one entry per fit.

    A block of one model has one entry per replicate; `_fit_models` stacks
    several models' entries model-major. A fit that failed has its reason,
    failing iteration and last coefficients, NaN alpha and phi, and no
    estimates.
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
    def join(cls, parts, n_models):
        """The replicates of (ModelBlock, rows) parts, end to end, as one block.

        Each block holds `n_models` models' entries stacked model-major, as
        `_fit_models` gives them, and `rows` is a slice of its replicates;
        the block returned is stacked the same way.
        """
        def arrays(values):
            cut = [v.reshape(n_models, -1, *v.shape[1:])[:, rows]
                   for v, (_, rows) in zip(values, parts)]
            return np.concatenate(cut, axis=1).reshape(-1, *values[0].shape[1:])

        def names(values):
            return tuple(arrays([np.fromiter(v, dtype=object, count=len(v))
                                 for v in values]).tolist())

        blocks = [block for block, _ in parts]
        first = blocks[0]
        return cls(
            reason=names([b.reason for b in blocks]),
            iterations=arrays([b.iterations for b in blocks]),
            beta=arrays([b.beta for b in blocks]),
            alpha=arrays([b.alpha for b in blocks]),
            phi=arrays([b.phi for b in blocks]),
            alpha_clamped=arrays([b.alpha_clamped for b in blocks]),
            q_max=arrays([b.q_max for b in blocks]),
            se={k: arrays([b.se[k] for b in blocks]) for k in first.se},
            reject={k: arrays([b.reject[k] for b in blocks]) for k in first.reject},
            failures={k: names([b.failures[k] for b in blocks]) for k in first.failures},
        )

    def take(self, rows):
        """The entries in the slice `rows`, as one block: this block when it is all of them."""
        if rows == slice(0, len(self.reason)):
            return self
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


def _fit_models(arm, m, s, models, kinds, fg_bound, alpha_level):
    """Fit every working model to a block's (m, s), estimate and test, in one pass.

    Returns one ModelBlock of the K R fits, model-major as in fit_block:
    model k's outcome on replicate r is entry k R + r.
    """
    n_fits = len(models) * len(m)
    fits = fit_block(arm, m, s, models)
    rows = fits.rows
    reason = [None] * n_fits
    iterations = np.zeros(n_fits, dtype=int)
    beta = np.full((n_fits, 2), np.nan)
    for r, err in fits.errors.items():
        reason[r], iterations[r] = err.reason, err.iterations
        if err.last_beta is not None:
            beta[r] = err.last_beta
    iterations[rows], beta[rows] = fits.iterations, fits.beta
    alpha, phi, q_max = (np.full(n_fits, np.nan) for _ in range(3))
    alpha[rows], phi[rows] = fits.alpha, fits.phi
    clamped = np.zeros(n_fits, dtype=bool)
    clamped[rows] = fits.clamped

    covs, _, errors = estimate_block(fits, kinds, fg_bound)
    # each fit's t reference has N - 2 degrees of freedom, N its trial's
    # clusters (m > 0). Every kind is tested in one call, which finds each
    # distinct N's quantile once
    df = np.count_nonzero(fits.m, axis=1) - 2
    var11 = np.array([covs[kind][:, 1, 1] for kind in kinds]).reshape(len(kinds), len(rows))
    tests = zip(kinds, *wald_reject(fits.beta[:, 1], var11, df, alpha_level))
    leverage_evaluated = np.zeros(len(rows), dtype=bool)
    se, reject, failures = {}, {}, {}
    for kind, kind_se, kind_reject, degenerate in tests:
        names = [None] * n_fits
        for k in np.flatnonzero(degenerate):
            err = errors[kind].get(k)
            names[rows[k]] = "DegenerateVarianceError" if err is None else type(err).__name__
        if kind in _LEVERAGE_KINDS:
            leverage_evaluated |= ~degenerate
        se[kind] = np.full(n_fits, np.nan)
        se[kind][rows] = kind_se
        reject[kind] = np.zeros(n_fits, dtype=bool)
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
    ((fits, _),) = fitted
    n_rep = len(replicate_indices)
    return {model.label(): fits.take(slice(k * n_rep, (k + 1) * n_rep))
            for k, model in enumerate(models)}


def _fit_pieces(pieces, models, kinds, fg_bound, alpha_level):
    """Generate a block's (scenario, replicate_indices) pieces, of any N, and fit them.

    Returns ([(fits, rows) per piece], error): `fits` is the ModelBlock of
    every model's fits to the block, stacked model-major, and `rows` the
    slice of the block's replicates that is the piece. If generating a
    piece raises, the pieces before it are still fit and returned, with
    that exception as `error` (None otherwise), so every cell they finish
    can be reported before the run ends.
    """
    m, s, error = generate_pieces(pieces)
    arm = trial_arms(m.shape[1])
    fits = _fit_models(arm, m, s, models, kinds, fg_bound, alpha_level)
    fitted, stop = [], 0
    for _, reps in pieces:
        start, stop = stop, stop + len(reps)
        if stop > len(m):
            break
        fitted.append((fits, slice(start, stop)))
    return fitted, error


def pack_blocks(scenarios, block_replicates):
    """Cut the cells' replicates into blocks, in order: lists of (scenario, range) pieces.

    A block holds at most `block_replicates` replicates of consecutive
    cells, whatever their N; a cell is split where a block fills, so its
    pieces cover its replicates once, in order.
    """
    blocks, room = [], 0
    for sc in scenarios:
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


def _tallies(names, hits, windows):
    """{name: count} of `names` at the sorted positions `hits` in each [start, stop) window."""
    if not len(hits):
        return [{} for _ in windows]
    cuts = hits.searchsorted(windows).tolist()
    hits = hits.tolist()
    return [dict(sorted(collections.Counter(names[i] for i in hits[a:b]).items()))
            if b > a else {} for a, b in cuts]


def aggregate(cells, models, block, kinds=ALL_KINDS):
    """Summarize the cells of one block for each working model; converged-only denominators.

    `block` holds the K = len(models) models' outcomes on R replicates,
    stacked model-major as `_fit_models` gives them (model k's entry for
    replicate r is k R + r). `cells` are (scenario, rows) pairs, rows a
    slice of consecutive replicates of the block. Returns, per cell, one
    ScenarioResult per model.

    The fields are viewed as (K, R) arrays, and the SEs and rejections as
    (kinds, K, R); a (cell, model) pair is a window of the K R entries.
    Every count of every pair - converged fits, evaluated SEs, rejections,
    clamped alphas - is the difference of one running count across its
    window, and the largest leverages are one fmax.reduceat over the
    windows. The float sums keep the bits of a sum over one pair alone:
    the converged fits are compressed once, model-major, so that a pair's
    converged fits are one run of them, and its sums are `np.sum` over its
    run (np.add.reduceat over the runs would add in another order). The
    empirical SD of beta1 is np.std's arithmetic (ddof=1) on each
    run: the run's sum over its count is the mean, and the squared
    deviations from it are summed over the run. An SE that was not
    evaluated (NaN) enters its run's SE and percent-bias sums as 0 and is
    not counted; a kind's mean SE and percent bias are those sums over its
    count of evaluated SEs.
    """
    kinds = tuple(kinds)
    n_models, n_kinds = len(models), len(kinds)
    n_block = len(block.reason) // n_models
    shape = (n_models, n_block)
    spans = [range(n_block)[rows] for _, rows in cells]
    # the (cell, model) pairs, cell-major, as windows [start, stop) of the K R entries
    windows = np.array([(k * n_block + r.start, k * n_block + r.start + len(r))
                        for r in spans for k in range(n_models)], dtype=np.intp)
    flat_conv = block.converged
    conv = flat_conv.reshape(shape)
    ses = np.array([block.se[kind] for kind in kinds]).reshape(n_kinds, *shape)
    rejects = np.array([block.reject[kind] for kind in kinds]).reshape(n_kinds, *shape)
    flags = np.concatenate([conv[None], ~np.isnan(ses), rejects,
                            block.alpha_clamped.reshape(1, *shape)]) & conv
    # every count of every pair, from one running count of each flag over
    # the K R entries: the difference across the pair's window
    running = np.zeros((len(flags), flat_conv.size + 1), dtype=np.intp)
    np.cumsum(flags.reshape(len(flags), -1), axis=1, out=running[:, 1:])
    counts = running[:, windows[:, 1]] - running[:, windows[:, 0]]
    # the largest leverage of each pair's converged fits: one fmax.reduceat
    # over the windows' bounds (every other segment), past a NaN at the end
    leverage = np.concatenate([np.where(flat_conv, block.q_max, np.nan), [np.nan]])
    q_max = np.fmax.reduceat(leverage, windows.ravel())[::2]
    q_max[windows[:, 0] == windows[:, 1]] = np.nan

    # a pair's converged entries are a run of the compressed ones, from the
    # count of converged entries before its window
    size = counts[0]
    ends = size.cumsum()
    starts = ends - size
    runs = list(zip(starts.tolist(), ends.tolist()))
    positions = flat_conv.nonzero()[0]
    taken = positions[np.arange(ends[-1]) + (running[0, windows[:, 0]] - starts).repeat(size)]
    # `take` returns C order, so each kind's run is contiguous: np.sum adds a
    # strided run in another order, which moves the last bits
    beta1 = block.beta[taken, -1]
    run_ses = ses.reshape(n_kinds, -1).take(taken, axis=1)
    # np.std(ddof=1) per run: the mean is the run's sum over its count
    has_esd = size >= 2
    beta_sums = np.array([beta1[a:b].sum() for a, b in runs])
    mean = np.divide(beta_sums, size, out=np.zeros(len(runs)), where=has_esd)
    terms = np.concatenate([np.square(beta1 - mean.repeat(size))[None],
                            np.where(np.isnan(run_ses), 0.0, run_ses)])
    sums = np.array([terms[:, a:b].sum(axis=1) for a, b in runs])
    esd = np.sqrt(np.divide(sums[:, 0], size - 1, out=np.zeros(len(runs)), where=has_esd))
    # each SE's percent bias against its pair's esd (NaN without a positive
    # esd); an SE that was not evaluated (NaN) enters the sum as 0
    has_bias = has_esd & (esd > 0.0)
    scale = np.where(has_bias, esd, np.nan).repeat(size)
    bias = np.where(np.isnan(run_ses), 0.0, (run_ses - scale) / scale * 100.0)
    bias_sums = np.array([bias[:, a:b].sum(axis=1) for a, b in runs])

    nonconvergence = _tallies(block.reason, (~flat_conv).nonzero()[0], windows)
    failures = {}
    for kind in kinds:
        names = block.failures[kind]
        if names.count(None) < len(names):
            named = np.not_equal(np.fromiter(names, dtype=object, count=len(names)), None)
            failures[kind.value] = _tallies(names, (named & flat_conv).nonzero()[0], windows)
    ordered = [kinds.index(kind) for kind in (EstimatorKind.ROBUST, EstimatorKind.KC,
                                              EstimatorKind.MD) if kind in kinds]
    n_conv, n_eval = size.tolist(), counts[1:1 + n_kinds].T.tolist()
    rejections = counts[1 + n_kinds:1 + 2 * n_kinds].T.tolist()
    clamped, q_max = counts[-1].tolist(), q_max.tolist()
    esd, has_bias = esd.tolist(), has_bias.tolist()
    se_sums, bias_sums = sums[:, 1:].tolist(), bias_sums.tolist()

    results, p = [], 0
    for (scenario, _), span in zip(cells, spans):
        n_rep, cell = len(span), []
        for model in models:
            nc = n_conv[p]
            summaries = []
            for i, kind in enumerate(kinds):
                n = n_eval[p][i]
                type1 = rejections[p][i] / nc if n else None
                summaries.append(EstimatorSummary(
                    kind=kind,
                    n_eval=n,
                    mean_se=se_sums[p][i] / n if n else None,
                    percent_bias=bias_sums[p][i] / n if n and has_bias[p] else None,
                    rejections=rejections[p][i],
                    type1_error=type1,
                    acceptable=None if type1 is None else TYPE1_BAND[0] <= type1 <= TYPE1_BAND[1],
                ))
            diagnostics = {
                "nonconvergence": nonconvergence[p],
                "alpha_clamped": clamped[p],
                "estimator_failures": {(kind, name): count
                                       for kind, tallies in failures.items()
                                       for name, count in tallies[p].items()},
            }
            if not math.isnan(q_max[p]):
                diagnostics["q_max"] = q_max[p]
            type1 = [summaries[i].type1_error for i in ordered]
            if len(type1) == 3 and None not in type1:
                diagnostics["ordering_consistent"] = type1[0] >= type1[1] >= type1[2]
            cell.append(ScenarioResult(
                scenario=scenario,
                model=model,
                n_replicates=n_rep,
                n_converged=nc,
                convergence_rate=nc / n_rep if n_rep else 0.0,
                esd=esd[p] if nc >= 2 else None,
                estimators=dict(zip(kinds, summaries)),
                diagnostics=diagnostics,
            ))
            p += 1
        results.append(cell)
    return results


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
    a block finish together: one aggregate call summarizes the cells that
    lie whole in it, and one more a cell whose last piece it holds, its
    pieces joined. A block's error is raised after every cell it finished.
    """
    blocks = pack_blocks(scenarios, BLOCK_REPLICATES)
    task = functools.partial(_fit_pieces, models=models, kinds=kinds, fg_bound=fg_bound,
                             alpha_level=alpha_level)
    processes = min(threads, len(blocks))
    with _workers(task, blocks, processes) as take:
        done, parts = 0, []
        for i, block in enumerate(blocks):
            fitted, error = take(i) if i % processes else task(block)
            finished, whole = [], []
            for (sc, reps), (fits, rows) in zip(block, fitted):
                if len(reps) == sc.replicates:
                    whole.append((sc, rows))
                    continue
                parts.append((fits, rows))
                if reps.stop == sc.replicates:
                    # a split cell's last piece opens its block, so it finishes first
                    joined = ModelBlock.join(parts, len(models))
                    (results,) = aggregate([(sc, slice(None))], models, joined, kinds)
                    finished.append((sc, results))
                    parts = []
            if whole:
                finished += zip([sc for sc, _ in whole],
                                aggregate(whole, models, fitted[0][0], kinds))
            for sc, results in finished:
                done += 1
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
    and lets that worker start its next block (None when there are no
    workers). A worker's error comes back with its traceback as
    `__cause__`; a worker that exits without sending block i's result makes
    take(i) raise RuntimeError naming its exit code. On leaving, workers
    still running are terminated, and all are joined.
    """
    if processes <= 1:
        yield None              # the caller fits every block
        return
    import multiprocessing      # only a run on several processes loads it

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
    import signal
    import traceback

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
