"""Model-based, robust, and bias-corrected sandwich covariance estimators.

Every estimator reads the converged fit's per-cluster arrays (see
crtgee.gee): the score u_i, the leverage h_i = w_i / W_a(i) and the arm
totals W_a. On the scale of the arm means' linear predictors eta_a the
bread is diag(W_a) and cluster i's score is u_i on its arm's coordinate,
so each kind is formed from per-arm sums on that scale and mapped once to
beta = (eta_0, eta_1 - eta_0) as cov_beta = A cov_eta A',
A = [[1, 0], [-1, 1]]:

    MB              phi diag(1 / W_a)
    robust, KC, MD  diag(T_a / W_a^2),  T_a = sum_{i in a} c_i^2 u_i^2

with c_i = 1 (robust), (1 - h_i)^{-1/2} (KC; Kauermann & Carroll, JASA
2001) or (1 - h_i)^{-1} (MD; Mancl & DeRouen, Biometrics 2001). These are
defined as (I - Q_i)^{-1/2} s_i and (I - Q_i)^{-1} s_i for the score
s_i = u_i x_i and the cluster leverage Q_i = w_i x_i x_i' B^{-1}, which has
rank one; the mean model is saturated, so x_i' B^{-1} x_i = 1 / W_a(i) and
Q_i x_i = h_i x_i: the score is an eigenvector of Q_i with eigenvalue h_i,
and the matrix functions reduce to these scalars. FG (Fay & Graubard,
Biometrics 2001) caps the diagonal of Q_i at r; in beta that diagonal is
h_i at the coordinate of the cluster's arm and 0 elsewhere, so FG
multiplies that coordinate of s_i by c_i = (1 - min(r, h_i))^{-1/2}: a
control cluster's influence on eta is (c_i u_i / W_0, 0), a treated
cluster's (u_i (1 - c_i) / W_0, c_i u_i / W_1). MBN (Morel, Bokossa &
Neerchal, Biom. J. 2003) adds an inflation term to the robust matrix; its
trace term is sum_a T_a / W_a (c_i = 1) in any parametrization. Sums are
kept unnormalized; the N-normalized textbook writing differs only by
cancelling factors of N.

The module has two entry points. estimate_block forms every requested
kind for a block of converged fits at once, as (F, 2, 2) arrays, and
records each fit's failure (an arm without working information, a
leverage at 1) without stopping the others; AVG is formed there, once, as
(KC + MD) / 2. Every kind reads only each fit's own row and the shared
arms, so one call serves the stacked fits of all of a block's working
models (see crtgee.gee.fit_block), each row as it would be alone; a fit
whose trial has fewer clusters than the block is wide has m = 0 in the
other columns, and its N (for MBN) is its count of m > 0.
compute_estimates is a block of one (a fit_gee fit) that raises the
failure instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CorrectionSingularityError,
    SingularityError,
    UnsupportedDesignError,
    UsageError,
)
from .gee import _arm_keys, _arm_sums


class EstimatorKind(enum.Enum):
    MB = "mb"
    ROBUST = "robust"
    KC = "kc"
    MD = "md"
    FG = "fg"
    MBN = "mbn"
    AVG = "avg"


#: kinds computed through the common sandwich path
MULTIPLICATIVE_KINDS = (EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD, EstimatorKind.FG)

ALL_KINDS = tuple(EstimatorKind)

DEFAULT_FG_BOUND = 0.75


@dataclass
class VarianceEstimate:
    """One 2 x 2 coefficient covariance matrix, tagged by estimator kind."""

    kind: EstimatorKind
    cov: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def se(self, j=-1):
        """Standard error of coefficient j (default: the arm effect)."""
        return float(np.sqrt(self.cov[j, j]))


def _bread_errors(W):
    """Each replicate's SingularityError where some arm's W_a is 0 or not finite."""
    errors = {}
    for k in np.flatnonzero(~(np.isfinite(W) & (W != 0.0)).all(axis=1)):
        problem = "singular" if (W[k] == 0.0).any() else "not finite"
        errors[int(k)] = SingularityError(f"bread matrix sum_i D'V^{{-1}}D is {problem}")
    return errors


def _first_bad(bad, cluster_ids, m):
    """Per replicate with a bad cluster: (its position, the first bad cluster's id).

    Without ids a cluster is named by its place among its replicate's
    clusters, the columns of `m` (R, W) with m > 0 (padding is never bad).
    """
    for k in np.flatnonzero(bad.any(axis=1)):
        i = int(np.flatnonzero(bad[k])[0])
        yield int(k), int(np.count_nonzero(m[k, :i])) if cluster_ids is None else cluster_ids[i]


def _beta_cov(var, cross=0.0):
    """cov_beta = A cov_eta A', (R, 2, 2), for cov_eta = [[a, c], [c, b]].

    `var` (R, 2) holds the arm variances (a, b) and `cross` (R,) their
    covariance c.
    """
    a, b = var[:, 0], var[:, 1]
    cov = np.empty((len(var), 2, 2))
    cov[:, 0, 0] = a
    cov[:, 0, 1] = cov[:, 1, 0] = cross - a
    cov[:, 1, 1] = a + b - 2.0 * cross
    return cov


def estimate_block(fits, kinds=ALL_KINDS, fg_bound=DEFAULT_FG_BOUND, cluster_ids=None):
    """Covariance estimates of every requested kind for a block of converged fits.

    `fits` is a gee.FitBlock, of one working model or several stacked.
    Returns (covs, diagnostics, errors), each a dict keyed by kind:
    covs[kind] is (F, 2, 2), one row per converged fit, with NaN rows where
    the estimate failed, diagnostics[kind] maps a diagnostic name to an
    (F,) array, and errors[kind] maps a failing fit's position among the
    fits to its exception (a CorrectionSingularityError names the first
    offending cluster by its id in `cluster_ids`, or its position). AVG
    implies KC and MD, which are returned when requested or implied.
    """
    want = set(kinds)
    sandwich_kinds = [k for k in MULTIPLICATIVE_KINDS if k in want]
    if EstimatorKind.AVG in want:
        sandwich_kinds += [k for k in (EstimatorKind.KC, EstimatorKind.MD)
                           if k not in sandwich_kinds]
    if sandwich_kinds and not 0.0 < fg_bound <= 1.0:
        raise UsageError(f"FG bound must lie in (0, 1], got {fg_bound}")

    arm = fits.arm
    u, h, W = fits.u, fits.h, fits.W
    bread_errors = _bread_errors(W)
    if bread_errors:
        W = W.copy()
        W[list(bread_errors)] = np.nan
    WW = W * W
    # T_a = sum_{i in a} u_i^2, the robust meat on the eta scale
    keys = _arm_keys(len(u), arm)
    T = _arm_sums(u * u, keys)
    covs, diagnostics, errors = {}, {}, {}
    q_max = h.max(axis=1)

    for kind in sandwich_kinds:
        errs = dict(bread_errors)
        if kind is EstimatorKind.ROBUST:
            covs[kind] = _beta_cov(T / WW)
        elif kind in (EstimatorKind.KC, EstimatorKind.MD):
            gaps = 1.0 - h                         # eigenvalue of I - Q_i along x_i
            bad = gaps <= 1e-14
            if bad.any():
                for k, cid in _first_bad(bad, cluster_ids, fits.m):
                    errs.setdefault(k, CorrectionSingularityError(
                        cid, kind.name, f"I - Q_i eigenvalue {float(gaps[k].min()):.3g}"))
                gaps = np.where(bad, 1.0, gaps)
            cu = u * gaps ** (-0.5 if kind is EstimatorKind.KC else -1.0)
            covs[kind] = _beta_cov(_arm_sums(cu * cu, keys) / WW)
        else:
            factors = 1.0 - np.minimum(fg_bound, h)
            bad = factors <= 0.0
            if bad.any():
                for k, cid in _first_bad(bad, cluster_ids, fits.m):
                    errs.setdefault(k, CorrectionSingularityError(
                        cid, "FG", "capped diagonal reached 1"))
                factors = np.where(bad, 1.0, factors)
            # the FG factor c_i scales the score's coordinate of the
            # cluster's arm; f0 and f1 are W_0 and W_1 times the influence
            # on eta_0 and eta_1, and f1 is 0 on control clusters, so its
            # sums are the treated arm's
            c = 1.0 / np.sqrt(factors)
            treated = arm == 1
            f0 = np.where(treated, 1.0 - c, c) * u
            f1 = np.where(treated, c, 0.0) * u
            var = np.stack([_arm_sums(f0 * f0, keys).sum(axis=1),
                            _arm_sums(f1 * f1, keys)[:, 1]], axis=1)
            covs[kind] = _beta_cov(var / WW, _arm_sums(f0 * f1, keys)[:, 1] / (W[:, 0] * W[:, 1]))
        diagnostics[kind] = {"q_max": q_max}
        errors[kind] = errs

    if EstimatorKind.MB in want:
        covs[EstimatorKind.MB] = _beta_cov(fits.phi[:, None] / W)
        diagnostics[EstimatorKind.MB] = {}
        errors[EstimatorKind.MB] = dict(bread_errors)

    if EstimatorKind.MBN in want:
        # cov = c V_robust + delta_N phi_mbn B^{-1}, with
        # c = ((sum m_i - 1)/(sum m_i - 2)) (N/(N-1)), delta_N = min(0.5, 2/(N-2))
        # and phi_mbn = max(1, c trace(B^{-1} sum_i s_i s_i') / 2), where
        # trace(B^{-1} sum_i s_i s_i') = sum_a T_a / W_a
        kind = EstimatorKind.MBN
        errors[kind] = dict(bread_errors)
        n, total_obs = np.count_nonzero(fits.m, axis=1), fits.m.sum(axis=1)
        few = n <= 2
        if few.any():
            for k in np.flatnonzero(few):
                errors[kind][int(k)] = UnsupportedDesignError(
                    f"MBN needs more than 2 clusters, got {n[k]}")
            # any N > 2 keeps the arithmetic finite; these rows are NaN below
            n, total_obs = np.where(few, 3, n), np.where(few, 3, total_obs)
        c = (((total_obs - 1) / (total_obs - 2)) * (n / (n - 1)))[:, None]
        delta = np.minimum(0.5, 2.0 / (n - 2))
        phi_mbn = np.fmax(1.0, (c * T / W).sum(axis=1) / 2)
        covs[kind] = _beta_cov(c * T / WW + (delta * phi_mbn)[:, None] / W)
        diagnostics[kind] = {"mbn_phi": phi_mbn}

    if EstimatorKind.AVG in want:
        kc, md = EstimatorKind.KC, EstimatorKind.MD
        covs[EstimatorKind.AVG] = (covs[kc] + covs[md]) / 2.0
        diagnostics[EstimatorKind.AVG] = diagnostics[kc]
        errors[EstimatorKind.AVG] = {**errors[md], **errors[kc]}

    for kind, errs in errors.items():
        for k in errs:
            covs[kind][k] = np.nan
    return covs, diagnostics, errors


def compute_estimates(fit, kinds=ALL_KINDS, fg_bound=DEFAULT_FG_BOUND):
    """All requested estimates keyed by kind, as a block of one; AVG implies KC and MD.

    Raises the first failing estimate's error, in the order the estimates
    are formed: the sandwich kinds (bread, then KC, MD, FG corrections),
    MB, MBN, AVG.
    """
    kinds = tuple(kinds)
    covs, diagnostics, errors = estimate_block(fit.block, kinds, fg_bound, fit.cluster_ids)
    for errs in errors.values():
        if errs:
            raise errs[0]
    out = {}
    for kind in kinds:
        diag = {name: float(values[0]) for name, values in diagnostics[kind].items()}
        out[kind] = VarianceEstimate(kind=kind, cov=covs[kind][0], diagnostics=diag)
    return out
