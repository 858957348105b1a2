"""Correlated binary outcome generation for two-arm cluster trials.

Outcomes within a cluster are sampled sequentially through the exchangeable
conditional-linear family: the conditional mean of each draw is linear in
the centered history,

    lam_j = mu + b_j * sum_{i<j} (y_i - mu),    b_j = rho / (1 + (j-2) rho),

which reproduces marginal mean mu and pairwise correlation rho for every
0 <= rho < 1. The conditional means stay inside (0, 1) for any history
(worst case (j-1) b_j < 1), so the runtime guard below should never fire.
Cluster sizes are fixed or gamma-drawn.

Every replicate draws from its own Philox generator, keyed by (seed,
scenario, replicate), so every dataset is reproducible bit for bit
regardless of execution order. The key is the one numpy's
SeedSequence(entropy=seed, spawn_key=(scenario, replicate)) gives Philox,
`generate_state(2, uint64)`, computed here by the same pool-mixing hash in
Python integers: the (seed, scenario) words once per piece of replicates,
then each replicate's own words. A counter-based generator needs nothing
but its key (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011), so each Philox is built from its key alone, with no SeedSequence
object per replicate (`_PhiloxKey`).

A block of replicates is generated in one recurrence. Each
replicate draws its cluster sizes and then one flat run of sum(m_i)
uniforms from its own generator; the generator's stream is a sequence of
doubles that any split into calls consumes in order, so the flat run holds
exactly what one draw of m_i per cluster, in cluster order, would give.
The runs of all replicates are laid end to end, one row per cluster, and
the rows are visited longest first, so the rows still drawing at column j
are a prefix. Each column updates only that prefix, each row with its own
mean and correlation, until at most TAIL_ROWS rows are left; those then
finish in one scalar loop over their uniforms, gathered once, with b_j
computed once per column and distinct correlation. Both phases do the same
floating-point operations as a cluster-by-cluster loop, so the outcomes
are bit-identical to it and do not depend on which replicates share the
block. A block may hold pieces of several scenarios, of any N
(generate_pieces): each piece draws its sizes and uniforms in turn, one
recurrence then runs over the rows of them all, and each replicate is laid
into the block's widest trial, each arm's clusters first, with m = s = 0
in the columns it leaves. The check that no conditional mean can leave
[0, 1] runs once per distinct (arm means, icc) of the block, and again
only for a piece whose largest cluster is larger than any checked for
them: the check is monotone in the size. A single trial is a block of one.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
        # both key the generators, whose hash reads a nonnegative integer's 32-bit words
        for name, value in (("seed", self.seed), ("index", self.index)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
        if isinstance(self.sizes, FixedSize):
            _check_uniforms(self.n_clusters * self.sizes.m)


#: numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
#: four 32-bit words, mixed with the running constants from _HASH_A, and
#: hashed out with those from _HASH_B
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value):
    """A nonnegative integer as SeedSequence reads it: its 32-bit words, low first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected a nonnegative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(value, const, mult):
    """`value` hashed with the running constant; returns it and the next constant."""
    value ^= const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    mixed = (_MIX_L * x - _MIX_R * y) & _MASK32
    return mixed ^ mixed >> 16


def _mix_words(pool, words, const):
    """Mix each of `words` into every pool word, in place; returns the next constant."""
    for word in words:
        for d in range(_POOL_SIZE):
            value, const = _hash(word, const, _MULT_A)
            pool[d] = _mix(pool[d], value)
    return const


def _seed_pool(seed, scenario_index):
    """The pool, and the running constant, of SeedSequence(entropy=seed,
    spawn_key=(scenario_index, r)) before it mixes in the words of r.

    The entropy is the seed's words, padded with zeros to the pool size (as
    for any spawn key), then the spawn key's: the first four fill the pool,
    every pool word is mixed into every other, and the rest are mixed in.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy)) + _words(scenario_index)
    pool, const = [], _HASH_A
    for word in entropy[:_POOL_SIZE]:
        value, const = _hash(word, const, _MULT_A)
        pool.append(value)
    for s in range(_POOL_SIZE):
        for d in range(_POOL_SIZE):
            if s != d:
                value, const = _hash(pool[s], const, _MULT_A)
                pool[d] = _mix(pool[d], value)
    const = _mix_words(pool, entropy[_POOL_SIZE:], const)
    return pool, const


def _philox_key(seed_pool, replicate_index):
    """The replicate's key, SeedSequence(...).generate_state(2, uint64), as two ints.

    `seed_pool` is `_seed_pool(seed, scenario_index)`; the replicate's words
    are mixed into a copy of it, and the four pool words hashed out are the
    key's 32-bit words, low first.
    """
    pool, const = seed_pool
    pool = list(pool)
    _mix_words(pool, _words(replicate_index), const)
    words, const = [], _HASH_B
    for word in pool:
        word, const = _hash(word, const, _MULT_B)
        words.append(word)
    return words[0] | words[1] << 32, words[2] | words[3] << 32


class _PhiloxKey(ISeedSequence):
    """A Philox key in place of the SeedSequence it was hashed from.

    Philox asks its seed for `generate_state(2, uint64)` and for nothing
    else; that request returns the key, and any other is refused rather
    than answered with something that is not SeedSequence's output.
    """

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of "
                             f"{np.dtype(dtype)}")
        return np.array(self.key, dtype=np.uint64)


def _generators(seed, scenario_index, replicate_indices):
    """One Philox generator per replicate, each that of `substream`; the (seed,
    scenario) part of the keys is hashed once for them all."""
    seed_pool = _seed_pool(seed, scenario_index)
    return [np.random.Generator(np.random.Philox(_PhiloxKey(_philox_key(seed_pool, rep))))
            for rep in replicate_indices]


def substream(seed, scenario_index, replicate_index):
    """Independent deterministic generator for one (scenario, replicate): the Philox
    of numpy's SeedSequence(entropy=seed, spawn_key=(scenario_index, replicate_index)).

    Its bit generator holds the key alone, not that SeedSequence, so it
    cannot spawn child generators."""
    (rng,) = _generators(seed, scenario_index, (replicate_index,))
    return rng


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


#: the most rows still drawing at which the recurrence finishes the rows
#: in a scalar loop. A numpy pass over one column costs about as much as
#: 45-60 draws of the scalar loop (measured on CPython 3.11: 6-7 us a
#: column against 0.11-0.14 us a draw), so with fewer rows left the column
#: pass costs more per draw; block timings are flat for a bound of 32 to 64
TAIL_ROWS = 64


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
    The few long rows left then finish in one scalar loop, row after row,
    over their remaining uniforms gathered at once. Both phases do the same
    IEEE operations per draw in the same order (lam = mu + b_j centered,
    y = u < lam, centered += y - mu), so every draw is the one a
    cluster-by-cluster loop gives, wherever the phases split.
    """
    starts = np.zeros(sizes.size, dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    order = np.argsort(-sizes, kind="stable")
    base = starts[order]
    mu = mu[order]
    # active[j-1]: the rows with sizes >= j, a prefix of `order`
    active = np.cumsum(np.bincount(sizes)[::-1])[::-1][1:]
    # coeffs[w, j-2]: b_j of the w-th distinct rho, row p's being which[p]
    if isinstance(rho, np.ndarray):
        rhos, which = np.unique(rho, return_inverse=True)
        which = which[order]
    else:
        rhos, which = (rho,), None
    columns = np.arange(2, active.size + 1)
    coeffs = np.array([qaqish_coeff(r, columns) for r in rhos]) if columns.size else None
    draw = flat[base] < mu
    centered = draw - mu
    events = draw.astype(np.intp)
    if outcomes is not None:
        outcomes[base] = draw
    j = 2
    while j <= active.size and active[j - 1] > TAIL_ROWS:
        k = active[j - 1]
        b = coeffs[0, j - 2] if which is None else coeffs[which[:k], j - 2]
        lam = mu[:k] + b * centered[:k]
        idx = base[:k] + (j - 1)
        draw = flat[idx] < lam
        centered[:k] += draw - mu[:k]
        events[:k] += draw
        if outcomes is not None:
            outcomes[idx] = draw
        j += 1
    if j <= active.size:
        # the k rows with columns j.. left: their uniforms row after row
        k = int(active[j - 1])
        lengths = sizes[order[:k]] - (j - 1)
        ends = np.cumsum(lengths)
        idx = np.arange(ends[-1]) + np.repeat(base[:k] + (j - 1) - (ends - lengths), lengths)
        uniforms = iter(flat[idx].tolist())
        tails = coeffs[:, j - 2:].tolist()
        rows = zip(lengths.tolist(), mu[:k].tolist(), centered[:k].tolist(),
                   repeat(0) if which is None else which[:k].tolist())
        tail_events = []
        if outcomes is None:
            for length, row_mu, row_centered, w in rows:
                up, count = 1.0 - row_mu, 0
                for u, b in zip(islice(uniforms, length), tails[w]):
                    if u < row_mu + b * row_centered:
                        row_centered += up
                        count += 1
                    else:
                        row_centered -= row_mu
                tail_events.append(count)
        else:
            draws = []
            for length, row_mu, row_centered, w in rows:
                up, count = 1.0 - row_mu, 0
                for u, b in zip(islice(uniforms, length), tails[w]):
                    draw = u < row_mu + b * row_centered
                    if draw:
                        row_centered += up
                        count += 1
                    else:
                        row_centered -= row_mu
                    draws.append(draw)
                tail_events.append(count)
            outcomes[idx] = draws
        events[:k] += tail_events
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
    """Sizes (R, N) and the replicates' uniforms end to end, each from its generator.

    Every replicate's sizes are drawn, and their totals checked, before any
    uniform is; each generator still gives its sizes, then its uniforms.
    Raises DomainError if the piece's uniforms cannot form one array.
    """
    rngs = _generators(scenario.seed, scenario.index, replicate_indices)
    sizes = [scenario.sizes.draw(scenario.n_clusters, rng) for rng in rngs]
    totals = [sum(m.tolist()) for m in sizes]      # Python ints: N * m may pass int64
    _check_uniforms(max(totals))
    runs = [rng.random(total) for rng, total in zip(rngs, totals)]
    return np.array(sizes), np.concatenate(runs)


def _row_means(scenarios, counts):
    """Each cluster's mean, for counts[p] replicates of scenarios[p] laid end to end
    in trial order: N/2 clusters of pi0, then N/2 of pi1, replicate after replicate."""
    arm_means = np.repeat([(sc.pi0, sc.pi1) for sc in scenarios], counts, axis=0)
    halves = np.repeat([sc.n_clusters // 2 for sc in scenarios], np.multiply(counts, 2))
    return np.repeat(arm_means.ravel(), halves)


def generate_pieces(pieces):
    """Cluster sizes m and event counts s of a block's pieces, and the error that ended it.

    `pieces` are (scenario, replicate_indices) pairs, whose N may differ.
    Each piece draws its replicates' sizes and uniforms in turn and is
    checked (`_check_means`) at its largest size, unless a piece of the
    same arm means and icc was already checked at a size as large; a piece
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
    drawn, sizes, runs, error = [], [], [], None
    checked = {}        # (arm means, icc): the largest size checked
    for scenario, reps in pieces:
        if not len(reps):
            continue
        try:
            m, flat = _draw_piece(scenario, reps)
            design = (frozenset((scenario.pi0, scenario.pi1)), scenario.icc)
            largest = int(m.max())
            if largest > checked.get(design, 1):
                _check_means(design[0], scenario.icc, largest)
                checked[design] = largest
        except Exception as err:
            error = err
            break
        drawn.append(scenario)
        sizes.append(m)
        runs.append(flat)
    if not sizes:
        none = np.zeros((0, width), dtype=int)
        return none, none, error
    iccs = [scenario.icc for scenario in drawn]
    # one icc stays one number: b_j is then a scalar per column
    rho = iccs[0] if iccs.count(iccs[0]) == len(iccs) else \
        np.repeat(iccs, [piece.size for piece in sizes])
    flat_m = np.concatenate([piece.ravel() for piece in sizes])
    n_reps = [len(piece) for piece in sizes]
    s = _draw_rows(np.concatenate(runs), flat_m, _row_means(drawn, n_reps), rho)
    n_rep = sum(n_reps)
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
    _check_means({scenario.pi0, scenario.pi1}, scenario.icc, int(sizes.max()))
    y = np.zeros(flat.size, dtype=np.int8)
    _draw_rows(flat, sizes, _row_means([scenario], [1]), scenario.icc, y)
    ends = np.cumsum(sizes).tolist()
    clusters = tuple(
        Cluster(id=i, arm=int(arm), outcomes=y[end - size : end])
        for i, (arm, size, end) in enumerate(zip(trial_arms(len(sizes)), sizes.tolist(), ends))
    )
    return TrialDataset(clusters=clusters)
