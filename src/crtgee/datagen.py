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

A whole trial is generated in one pass over columns rather than cluster by
cluster. Its uniforms come from one flat draw of sum(m_i) values, cut in
cluster order into one segment of m_i per cluster. The generator's stream
is a sequence of doubles that any split into calls consumes in order, so
the flat draw holds exactly the values that one draw of m_i per cluster,
in cluster order, would give. The segments are laid out as the heads of
the rows of an (N, max m_i) array whose rows are sorted by size, longest
first, so the clusters still drawing at column j are a prefix of the rows.
Each column updates only that prefix, each row with its own arm's mu, by
the same floating-point operations as a cluster-by-cluster loop, so the
outcomes are bit-identical to it.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .data import Cluster, TrialDataset
from .errors import DomainError, GeneratorInvalidError


@dataclass(frozen=True)
class FixedSize:
    """Every cluster has exactly `m` members."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"cluster size must be >= 1, got {self.m}")

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
        if self.mean_size < 2:
            raise DomainError(f"mean cluster size must be >= 2, got {self.mean_size}")
        if self.cv <= 0:
            raise DomainError(f"cluster-size CV must be positive, got {self.cv}")

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


def substream(seed, scenario_index, replicate_index):
    """Independent deterministic generator for one (scenario, replicate)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(scenario_index, replicate_index))
    return np.random.Generator(np.random.Philox(ss))


def qaqish_coeff(rho, j):
    """Conditional-regression coefficient b_j for the j-th draw, j >= 2."""
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    if j < 2:
        raise DomainError(f"coefficient defined for j >= 2, got {j}")
    return rho / (1.0 + (j - 2) * rho)


def _draw_columns(u, mu, rho, active):
    """Run the conditional-linear recurrence over the columns of `u`.

    `u` is a (rows, m_max) array of uniforms and `mu` holds each row's
    marginal mean. Rows are sorted by size, longest first: column j-1 is
    drawn for rows [:active[j-1]] only, and the rest of a row is left 0.
    The conditional means are kept and checked once, after the last column.
    """
    y = np.zeros(u.shape, dtype=np.int8)
    lam = np.zeros(u.shape)
    y[:, 0] = u[:, 0] < mu
    centered = y[:, 0] - mu
    for j in range(2, u.shape[1] + 1):
        k = active[j - 1]
        lam_j = mu[:k] + qaqish_coeff(rho, j) * centered[:k]
        lam[:k, j - 1] = lam_j
        draw = u[:k, j - 1] < lam_j
        y[:k, j - 1] = draw
        centered[:k] += draw - mu[:k]
    bad = (lam < 0.0) | (lam > 1.0)
    if bad.any():
        col, row = np.argwhere(bad.T)[0]
        raise GeneratorInvalidError(
            f"conditional mean left [0, 1] at draw {col + 1} (mu={mu[row]}, rho={rho})"
        )
    return y


def generate_clusters(mu, rho, m, count, rng):
    """Sample `count` independent clusters of size m as a (count, m) 0/1 array.

    Vectorized across clusters: all uniforms are drawn up front and each
    column's threshold is the conditional mean given the previous columns.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"marginal mean must lie in (0, 1), got {mu}")
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    u = rng.random((count, m))
    return _draw_columns(u, np.full(count, mu, dtype=float), rho, [count] * m)


def gamma_cluster_sizes(mean_size, cv, n, rng):
    """Integer cluster sizes from Gamma(1/cv^2, mean*cv^2), floored at 2."""
    if mean_size < 2:
        raise DomainError(f"mean cluster size must be >= 2, got {mean_size}")
    if cv <= 0:
        raise DomainError(f"cv must be positive, got {cv}")
    shape = 1.0 / (cv * cv)
    scale = mean_size * cv * cv
    draws = rng.gamma(shape, scale, size=n)
    return np.maximum(np.rint(draws).astype(int), 2)


def generate_trial(scenario, replicate_index):
    """One simulated trial: N/2 control clusters then N/2 intervention clusters."""
    rng = substream(scenario.seed, scenario.index, replicate_index)
    n = scenario.n_clusters
    sizes = scenario.sizes.draw(n, rng).tolist()
    half = n // 2
    flat = rng.random(sum(sizes))
    starts = list(itertools.accumulate(sizes, initial=0))
    # rows sorted by size, longest first (stable); active[j-1] counts the
    # rows with m_i >= j, which form a prefix
    order = sorted(range(n), key=sizes.__getitem__, reverse=True)
    ascending = sorted(sizes)
    m_max = ascending[-1]
    active = [n - bisect.bisect_left(ascending, j) for j in range(1, m_max + 1)]
    u = np.zeros((n, m_max))
    for row, i in enumerate(order):
        u[row, : sizes[i]] = flat[starts[i] : starts[i + 1]]
    mu = np.array([scenario.pi0 if i < half else scenario.pi1 for i in order])
    y = _draw_columns(u, mu, scenario.icc, active)
    outcomes = {i: y[row, : sizes[i]] for row, i in enumerate(order)}
    clusters = tuple(
        Cluster(id=i, arm=0 if i < half else 1, outcomes=outcomes[i]) for i in range(n)
    )
    return TrialDataset(clusters=clusters)
