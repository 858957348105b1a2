"""Trial data containers.

`ClusterSums` is a trial as the model sees it: each cluster's arm, size
m_i and event count s_i. Treatment is cluster-level and the mean model is
saturated, so these are all a fit, its SEs and the analyze report read.
`Cluster` and `TrialDataset` hold the observation-level outcomes that the
generators draw; `fit_gee` reduces a TrialDataset to its ClusterSums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ClusterSums:
    """A two-arm trial as per-cluster sums: N >= 2 clusters, both arms present.

    `ids` lists the clusters in trial order; `arm`, `m` (sizes) and `s`
    (event counts s_i = sum_j y_ij) are (N,) integer arrays in that order.
    """

    ids: tuple
    arm: np.ndarray
    m: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        arm, m, s = (np.asarray(v, dtype=int) for v in (self.arm, self.m, self.s))
        if len(ids) < 2:
            raise DataError("a trial needs at least two clusters")
        if not arm.shape == m.shape == s.shape == (len(ids),):
            raise DataError("ids, arm, m and s must hold one entry per cluster")
        bad = np.flatnonzero(((arm != 0) & (arm != 1)) | (m < 1) | (s < 0) | (s > m))
        if bad.size:
            k = bad[0]
            raise DataError(f"cluster {ids[k]!r}: needs arm 0 or 1, 1 <= m and 0 <= s <= m, "
                            f"got arm {arm[k]}, m {m[k]}, s {s[k]}")
        if set(arm.tolist()) != {0, 1}:
            raise DataError("both arms must be represented (arm effect inestimable)")
        for name, value in zip(("ids", "arm", "m", "s"), (ids, arm, m, s)):
            object.__setattr__(self, name, value)

    @property
    def n_clusters(self):
        return len(self.ids)

    @property
    def n_obs(self):
        return int(self.m.sum())

    def arm_summary(self):
        """Per-arm (clusters, observations, events, proportion), keyed by arm label."""
        out = {}
        for arm in (0, 1):
            mine = self.arm == arm
            n = int(self.m[mine].sum())
            events = float(self.s[mine].sum())
            out[arm] = {"n_clusters": int(np.count_nonzero(mine)), "n_obs": n,
                        "events": events, "proportion": events / n}
        return out


@dataclass(frozen=True)
class Cluster:
    """One randomized cluster: an arm label and its binary outcome vector."""

    id: object
    arm: int
    outcomes: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.outcomes, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise DataError(f"cluster {self.id!r}: outcomes must be a nonempty vector")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DataError(f"cluster {self.id!r}: outcomes must be exactly 0 or 1")
        if self.arm not in (0, 1):
            raise DataError(f"cluster {self.id!r}: arm must be 0 or 1, got {self.arm!r}")
        object.__setattr__(self, "outcomes", y)

    @property
    def size(self):
        return self.outcomes.size


@dataclass(frozen=True)
class TrialDataset:
    """A two-arm trial: N >= 2 clusters with at least one cluster per arm."""

    clusters: tuple = field(default_factory=tuple)

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if len(clusters) < 2:
            raise DataError("a trial needs at least two clusters")
        arms = {c.arm for c in clusters}
        if arms != {0, 1}:
            raise DataError("both arms must be represented (arm effect inestimable)")
        object.__setattr__(self, "clusters", clusters)

    @property
    def n_clusters(self):
        return len(self.clusters)

    @property
    def n_obs(self):
        return sum(c.size for c in self.clusters)

    def cluster_sums(self):
        """The trial as per-cluster sums (arm, m_i, s_i), clusters in order."""
        clusters = self.clusters
        return ClusterSums(
            ids=tuple(c.id for c in clusters),
            arm=np.array([c.arm for c in clusters], dtype=int),
            m=np.array([c.size for c in clusters], dtype=int),
            s=np.array([c.outcomes.sum() for c in clusters]).astype(int),
        )

    def arm_summary(self):
        """Per-arm (clusters, observations, events, proportion), keyed by arm label."""
        return self.cluster_sums().arm_summary()
