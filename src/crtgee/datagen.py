"""Correlated binary outcome generation for two-arm cluster trials.

Outcomes within a cluster are sampled sequentially through the exchangeable
conditional-linear family: the conditional mean of each draw is linear in
the centered history,

    lam_j = mu + b_j * sum_{i<j} (y_i - mu),    b_j = rho / (1 + (j-2) rho),

which reproduces marginal mean mu and pairwise correlation rho for every
0 <= rho < 1. The conditional means stay inside (0, 1) for any history
(worst case (j-1) b_j < 1), so the runtime guard below should never fire.
Cluster sizes are fixed or gamma-drawn; substreams keyed by
(seed, scenario, replicate) make every dataset reproducible bit-for-bit
regardless of execution order.

A block of replicates is generated in one recurrence. Each
replicate draws its cluster sizes and then one flat run of sum(m_i)
uniforms from its own substream; the generator's stream is a sequence of
doubles that any split into calls consumes in order, so the flat run holds
exactly what one draw of m_i per cluster, in cluster order, would give.
The runs of all replicates are laid end to end, one row per cluster, and
the rows are visited longest first, so the rows still drawing at column j
are a prefix. Each column updates only that prefix, each row with its own
mean and correlation, until at most TAIL_ROWS rows are left; those then
finish one at a time in a scalar loop. Both phases do the same
floating-point operations as a cluster-by-cluster loop, so the outcomes
are bit-identical to it and do not depend on which replicates share the
block. A block may hold pieces of several scenarios, of any N
(generate_pieces): each piece draws its sizes and uniforms in turn, one
recurrence then runs over the rows of them all, and each replicate is laid
into the block's widest trial, each arm's clusters first, with m = s = 0
in the columns it leaves. A single trial is a block of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import Cluster, TrialDataset
from .errors import DomainError, GeneratorInvalidError

#: the most uniforms one replicate may draw: numpy's largest float64 array
_MAX_UNIFORMS = np.iinfo(np.intp).max // np.dtype(float).itemsize
#: 2**63 as a float: every float below it rounds to an int64
_INT64_BOUND = float(2**63)


@dataclass(frozen=True)
class FixedSize:
    """Every cluster has exactly `m` members."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"cluster size must be >= 1, got {self.m}")
        if self.m > np.iinfo(np.int64).max:
            raise DomainError(f"cluster size must fit in a 64-bit integer, got {self.m}")

    def draw(self, n, rng):
        return np.full(n, self.m, dtype=int)

    @property
    def mean(self):
        return float(self.m)

    @property
    def cv(self):
        return 0.0


@dataclass(frozen=True)
class GammaSize:
    """Cluster sizes gamma-drawn with the given mean and coefficient of variation."""

    mean_size: float
    cv: float

    def __post_init__(self):
        _check_gamma(self.mean_size, self.cv)

    def draw(self, n, rng):
        return gamma_cluster_sizes(self.mean_size, self.cv, n, rng)

    @property
    def mean(self):
        return float(self.mean_size)


@dataclass(frozen=True)
class Scenario:
    """One cell of the simulation grid."""

    n_clusters: int
    sizes: object               # FixedSize or GammaSize
    pi0: float
    pi1: float
    icc: float
    replicates: int = 1000
    seed: int = 0
    index: int = 0              # position in the grid; keys the RNG substream

    def __post_init__(self):
        if self.n_clusters < 2 or self.n_clusters % 2 != 0:
            raise DomainError(
                f"n_clusters must be even and >= 2 for 1:1 allocation, got {self.n_clusters}"
            )
        for name, pi in (("pi0", self.pi0), ("pi1", self.pi1)):
            if not 0.0 < pi < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {pi}")
        if not 0.0 <= self.icc < 1.0:
            raise DomainError(f"icc must lie in [0, 1), got {self.icc}")
        if self.replicates < 1:
            raise DomainError(f"replicates must be >= 1, got {self.replicates}")
        if isinstance(self.sizes, FixedSize):
            _check_uniforms(self.n_clusters * self.sizes.m)


def substream(seed, scenario_index, replicate_index):
    """Independent deterministic generator for one (scenario, replicate)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(scenario_index, replicate_index))
    return np.random.Generator(np.random.Philox(ss))


def qaqish_coeff(rho, j):
    """Conditional-regression coefficient b_j for the j-th draw, j >= 2 (an int or an
    integer array)."""
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    least = j.min() if isinstance(j, np.ndarray) else j
    if least < 2:
        raise DomainError(f"coefficient defined for j >= 2, got {least}")
    return rho / (1.0 + (j - 2) * rho)


def _check_means(means, rho, size):
    """Raise GeneratorInvalidError if a conditional mean of draw j = 2..size can leave [0, 1].

    lam = mu + b_j * (sum of the j - 1 centered draws) is at its extremes
    when every earlier draw is a 0 or every one a 1; both are checked for
    each mean in `means` and every draw at once, on (means, draws) arrays,
    the first failure (by draw, then by mean) raising.
    """
    if size < 2:
        return
    means = sorted(means)
    j = np.arange(2, size + 1)
    step = (j - 1) * qaqish_coeff(rho, j)
    m = np.array(means, dtype=float)[:, None]
    # (lows, highs) by (mean, draw), in the scalar loop's operations
    lam = np.concatenate([m - step * m, m + step * (1.0 - m)])
    inside = (0.0 <= lam) & (lam <= 1.0)
    if not inside.all():
        failed = ~(inside[:len(means)] & inside[len(means):])
        draw = int(failed.any(axis=0).argmax())
        raise GeneratorInvalidError(
            f"conditional mean left [0, 1] at draw {draw + 2} "
            f"(mu={means[int(failed[:, draw].argmax())]}, rho={rho})"
        )


#: the most rows still drawing at which the recurrence finishes each row
#: alone. A numpy pass over one column costs about as much as 45-60 draws
#: of the scalar loop (measured on CPython 3.11: 6-7 us a column against
#: 0.11-0.14 us a draw), so with fewer rows left the column pass costs
#: more per draw; block timings are flat for a bound of 32 to 64
TAIL_ROWS = 64


def _finish_row(uniforms, coeffs, mu, centered):
    """The rest of one row's recurrence: a draw per uniform, with b_j from `coeffs`.

    `centered` is the sum of the row's centered draws so far. Each draw
    does what a column pass does to its row, in the same order: lam = mu +
    b_j centered, y = u < lam, centered += y - mu. Returns the draws, a
    list of bools.
    """
    up, draws = 1.0 - mu, []
    for u, b in zip(uniforms, coeffs):
        draw = u < mu + b * centered
        centered = centered + up if draw else centered - mu
        draws.append(draw)
    return draws


def _draw_rows(flat, sizes, mu, rho, outcomes=None):
    """Run the conditional-linear recurrence over rows laid end to end in `flat`.

    Row i owns the next `sizes[i]` uniforms of `flat` and draws with marginal
    mean `mu[i]` and correlation `rho`, one number for every row or an
    array of one per row. The caller has checked that no conditional mean
    can leave [0, 1] (`_check_means`). Returns every row's event count;
    when `outcomes` (an array shaped like `flat`) is given, each draw is
    also written at its uniform's position.

    The recurrence runs in two phases. While more than TAIL_ROWS rows are
    still drawing, column j is drawn in one numpy pass for the rows with at
    least j members, longest first (a stable order), so they are a prefix.
    The few long rows left then finish one at a time, each in a scalar loop
    over its own uniforms (`_finish_row`). Both phases do the same IEEE
    operations per draw in the same order, so every draw is the one a
    cluster-by-cluster loop gives, wherever the phases split.
    """
    starts = np.zeros(sizes.size, dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    order = np.argsort(-sizes, kind="stable")
    base = starts[order]
    mu = mu[order]
    rhos = None
    if isinstance(rho, np.ndarray):
        # b_j per row, gathered from one b_j per distinct rho
        rhos, which = np.unique(rho, return_inverse=True)
        rhos, which = rhos.tolist(), which[order]
    # active[j-1]: the rows with sizes >= j, a prefix of `order`
    active = np.cumsum(np.bincount(sizes)[::-1])[::-1][1:]
    draw = flat[base] < mu
    centered = draw - mu
    events = draw.astype(np.intp)
    if outcomes is not None:
        outcomes[base] = draw
    j = 2
    while j <= active.size and active[j - 1] > TAIL_ROWS:
        k = active[j - 1]
        if rhos is None:
            b = qaqish_coeff(rho, j)
        else:
            b = np.array([qaqish_coeff(r, j) for r in rhos])[which[:k]]
        lam = mu[:k] + b * centered[:k]
        idx = base[:k] + (j - 1)
        draw = flat[idx] < lam
        centered[:k] += draw - mu[:k]
        events[:k] += draw
        if outcomes is not None:
            outcomes[idx] = draw
        j += 1
    if j <= active.size:
        # the k rows with columns j.. left, and b_j of those columns once per rho
        k = int(active[j - 1])
        coeffs = [[qaqish_coeff(r, i) for i in range(j, active.size + 1)]
                  for r in rhos or (rho,)]
        rows = zip(range(k), (base[:k] + (j - 1)).tolist(),
                   (base[:k] + sizes[order[:k]]).tolist(), mu[:k].tolist(),
                   centered[:k].tolist(), which[:k].tolist() if rhos else [0] * k)
        for p, start, stop, row_mu, row_centered, w in rows:
            draws = _finish_row(flat[start:stop].tolist(), coeffs[w], row_mu, row_centered)
            events[p] += sum(draws)
            if outcomes is not None:
                outcomes[start:stop] = draws
    counts = np.empty_like(events)
    counts[order] = events
    return counts


def generate_clusters(mu, rho, m, count, rng):
    """Sample `count` independent clusters of size m as a (count, m) 0/1 array.

    All uniforms are drawn up front, cluster after cluster, and the
    recurrence then runs over them as over a block's (`_draw_rows`). Raises
    DomainError unless m >= 1 and count >= 0 are integers.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"marginal mean must lie in (0, 1), got {mu}")
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    for name, value, least in (("cluster size", m, 1), ("cluster count", count, 0)):
        if not isinstance(value, numbers.Integral) or value < least:
            raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    flat = rng.random(count * m)
    _check_means((mu,), rho, m)
    y = np.zeros(flat.size, dtype=np.int8)
    _draw_rows(flat, np.full(count, m), np.full(count, mu, dtype=float), rho, y)
    return y.reshape(count, m)


def _check_gamma(mean_size, cv):
    if not (math.isfinite(mean_size) and mean_size >= 2):
        raise DomainError(f"mean cluster size must be finite and >= 2, got {mean_size}")
    if mean_size >= _INT64_BOUND:
        raise DomainError(f"mean cluster size must fit in a 64-bit integer, got {mean_size}")
    if not (math.isfinite(cv) and cv > 0):
        raise DomainError(f"cluster-size CV must be finite and positive, got {cv}")


def _check_uniforms(total):
    """One replicate's uniforms, `total` in all (a Python int), must fit in one array."""
    if total > _MAX_UNIFORMS:
        raise DomainError(f"a replicate's {total} observations cannot be drawn as one "
                          f"array (at most {_MAX_UNIFORMS})")


def gamma_cluster_sizes(mean_size, cv, n, rng):
    """Integer cluster sizes from Gamma(1/cv^2, mean*cv^2), floored at 2."""
    _check_gamma(mean_size, cv)
    shape = 1.0 / (cv * cv)
    scale = mean_size * cv * cv
    draws = rng.gamma(shape, scale, size=n)
    if not (draws < _INT64_BOUND).all():
        raise DomainError(f"a gamma cluster size of {draws.max()} does not fit in a "
                          "64-bit integer")
    return np.maximum(np.rint(draws).astype(int), 2)


def trial_arms(n_clusters):
    """Arm labels of a simulated trial: N/2 control clusters, then N/2 intervention."""
    return np.repeat([0, 1], n_clusters // 2)


def _draw_piece(scenario, replicate_indices):
    """Sizes (R, N) and the replicates' uniforms end to end, each from its substream.

    Every replicate's sizes are drawn, and their totals checked, before any
    uniform is; each substream still gives its sizes, then its uniforms.
    Raises if the piece cannot be generated: its uniforms cannot form one
    array, or a conditional mean of its largest cluster can leave [0, 1].
    """
    rngs = [substream(scenario.seed, scenario.index, rep) for rep in replicate_indices]
    sizes = [scenario.sizes.draw(scenario.n_clusters, rng) for rng in rngs]
    totals = [sum(m.tolist()) for m in sizes]      # Python ints: N * m may pass int64
    _check_uniforms(max(totals))
    runs = [rng.random(total) for rng, total in zip(rngs, totals)]
    sizes = np.array(sizes)
    _check_means({scenario.pi0, scenario.pi1}, scenario.icc, int(sizes.max()))
    return sizes, np.concatenate(runs)


def _row_means(scenario, n_replicates):
    mu = np.where(trial_arms(scenario.n_clusters) == 0, scenario.pi0, scenario.pi1)
    return np.tile(mu, n_replicates)


def generate_pieces(pieces):
    """Cluster sizes m and event counts s of a block's pieces, and the error that ended it.

    `pieces` are (scenario, replicate_indices) pairs, whose N may differ.
    Each piece draws its replicates' sizes and uniforms in turn; a piece
    that cannot be drawn ends the block, and its exception is returned
    (None when every piece was drawn). The recurrence then runs once over
    the clusters of the pieces drawn, each with its own scenario's mean and
    icc. Returns (m, s, error): m and s are (R, W), the drawn pieces'
    replicates end to end, R = 0 when none was drawn, and W the largest N
    of the pieces. A replicate of N clusters has its control clusters in
    columns [0, N/2) and its treated ones in [W/2, W/2 + N/2), so that the
    arms of `trial_arms(W)` are its arms; every other column is padding,
    with m = s = 0.
    """
    width = max(scenario.n_clusters for scenario, _ in pieces)
    sizes, runs, means, iccs, error = [], [], [], [], None
    for scenario, reps in pieces:
        if not len(reps):
            continue
        try:
            m, flat = _draw_piece(scenario, reps)
        except Exception as err:
            error = err
            break
        sizes.append(m)
        runs.append(flat)
        means.append(_row_means(scenario, len(m)))
        iccs.append(scenario.icc)
    if not sizes:
        none = np.zeros((0, width), dtype=int)
        return none, none, error
    # one icc stays one number: b_j is then a scalar per column
    rho = iccs[0] if iccs.count(iccs[0]) == len(iccs) else \
        np.repeat(iccs, [piece.size for piece in sizes])
    flat_m = np.concatenate([piece.ravel() for piece in sizes])
    s = _draw_rows(np.concatenate(runs), flat_m, np.concatenate(means), rho)
    n_rep = sum(len(piece) for piece in sizes)
    if all(piece.shape[1] == width for piece in sizes):
        return flat_m.reshape(n_rep, width), s.reshape(n_rep, width), error
    # each cluster's position in the padded (R, W) layout
    half, start, places = width // 2, 0, []
    for piece in sizes:
        arm_half = np.arange(piece.shape[1] // 2)
        rows = np.arange(start, start + len(piece))[:, None] * width
        places.append((rows + np.concatenate([arm_half, half + arm_half])).ravel())
        start += len(piece)
    places = np.concatenate(places)
    padded_m, padded_s = np.zeros(n_rep * width, dtype=int), np.zeros(n_rep * width, dtype=int)
    padded_m[places], padded_s[places] = flat_m, s
    return padded_m.reshape(n_rep, width), padded_s.reshape(n_rep, width), error


def generate_block(scenario, replicate_indices):
    """Cluster sizes m and event counts s of a block of replicates, each (R, N).

    Row r is replicate `replicate_indices[r]`, its columns the clusters in
    trial order (arms from `trial_arms`); the counts are those of
    `generate_trial` for the same replicate. It is `generate_pieces` on one
    piece, raising the piece's error.
    """
    m, s, error = generate_pieces([(scenario, replicate_indices)])
    if error is not None:
        raise error
    return m, s


def generate_trial(scenario, replicate_index):
    """One simulated trial: N/2 control clusters then N/2 intervention clusters."""
    m, flat = _draw_piece(scenario, (replicate_index,))
    sizes = m[0]
    y = np.zeros(flat.size, dtype=np.int8)
    _draw_rows(flat, sizes, _row_means(scenario, 1), scenario.icc, y)
    ends = np.cumsum(sizes).tolist()
    clusters = tuple(
        Cluster(id=i, arm=int(arm), outcomes=y[end - size : end])
        for i, (arm, size, end) in enumerate(zip(trial_arms(len(sizes)), sizes.tolist(), ends))
    )
    return TrialDataset(clusters=clusters)
