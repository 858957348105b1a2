"""Model-based, robust, and bias-corrected sandwich covariance estimators.

Every estimator reads the converged fit's per-cluster arrays (see
crtgee.gee): the score s_i = u_i x_i, the bread B = sum_i w_i x_i x_i',
and the leverage h_i = w_i / W_arm(i). The sandwich kinds scale each
score by a per-cluster factor:

    cov = B^{-1} [ sum_i c_i^2 s_i s_i' ] B^{-1}

with c_i = 1 (robust), (1 - h_i)^{-1/2} (KC; Kauermann & Carroll, JASA
2001) or (1 - h_i)^{-1} (MD; Mancl & DeRouen, Biometrics 2001). Both are
defined as (I - Q_i)^{-1/2} s_i and (I - Q_i)^{-1} s_i with the cluster
leverage Q_i = w_i x_i x_i' B^{-1}. Q_i has rank one and, because the
mean model is saturated, x_i' B^{-1} x_i = 1 / W_arm(i), so
Q_i x_i = h_i x_i: the score is an eigenvector of Q_i with eigenvalue
h_i, and the matrix functions reduce to these scalars. FG (Fay &
Graubard, Biometrics 2001) caps the diagonal of Q_i at r; that diagonal
is h_i at the coordinate of the cluster's arm (coordinate 0 for the
intercept-only model) and 0 elsewhere, so FG divides that coordinate of
s_i by sqrt(1 - min(r, h_i)). MBN (Morel, Bokossa & Neerchal, Biom. J.
2003) adds an inflation term to the robust matrix instead. Sums are kept
unnormalized; the N-normalized textbook writing differs only by
cancelling factors of N.

estimate_block forms every requested kind for a block of converged fits at
once, as (R, p, p) stacks, and records each replicate's failure (a
singular bread, a leverage at 1) without stopping the others;
compute_estimates is a block of one that raises the failure instead.
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
    """One p x p coefficient covariance matrix, tagged by estimator kind."""

    kind: EstimatorKind
    cov: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def se(self, j=-1):
        """Standard error of coefficient j (default: the arm effect)."""
        return float(np.sqrt(self.cov[j, j]))


@dataclass
class CorrectionContext:
    """Per-cluster leverages shared by the corrections."""

    h: np.ndarray           # h_i = w_i / W_arm(i), the nonzero eigenvalue of Q_i
    x: np.ndarray           # covariate rows x_i, (N, p)
    binv: np.ndarray        # B^{-1}
    r: float                # FG diagonal cap
    q_max: float            # largest h_i

    def identity_gap(self):
        """sum_i Q_i - I, an algebraic zero up to rounding.

        Q_i = w_i x_i x_i' B^{-1} = h_i x_i x_i' B^{-1} / (x_i' B^{-1} x_i)
        is rebuilt from the closed-form h_i, so the gap also checks that
        h_i is the cluster's share of its arm's information.
        """
        lev = np.sum((self.x @ self.binv) * self.x, axis=1)       # x_i' B^{-1} x_i
        total = (self.x * (self.h / lev)[:, None]).T @ self.x @ self.binv
        return total - np.eye(total.shape[0])


def _bread_inverses(info_sum):
    """B^{-1} per replicate, (R, p, p), and each failing replicate's SingularityError."""
    errors = {}
    try:
        binv = np.linalg.inv(info_sum)
    except np.linalg.LinAlgError:
        binv = np.full_like(info_sum, np.nan)
        for k, B in enumerate(info_sum):
            try:
                binv[k] = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                errors[k] = SingularityError("bread matrix sum_i D'V^{-1}D is singular")
    for k in np.flatnonzero(~np.isfinite(binv).all(axis=(1, 2))):
        errors.setdefault(int(k), SingularityError("bread matrix inverse is not finite"))
    return binv, errors


def correction_context(fit, fg_bound=DEFAULT_FG_BOUND):
    """Collect the fit's leverages and the inverse bread for the corrections."""
    if not 0.0 < fg_bound <= 1.0:
        raise UsageError(f"FG bound must lie in (0, 1], got {fg_bound}")
    binv, errors = _bread_inverses(fit.info_sum[None])
    if errors:
        raise errors[0]
    return CorrectionContext(h=fit.h, x=fit.x, binv=binv[0], r=fg_bound, q_max=float(fit.h.max()))


def _sym(cov):
    return (cov + np.swapaxes(cov, -1, -2)) / 2.0


def _first_bad(bad, cluster_ids):
    """Per replicate with a bad cluster: (its position, the first bad cluster's id)."""
    for k in np.flatnonzero(bad.any(axis=1)):
        i = int(np.flatnonzero(bad[k])[0])
        yield int(k), i if cluster_ids is None else cluster_ids[i]


def _sandwich(binv, scores):
    """B^{-1} (sum_i t_i t_i') B^{-1}, symmetrized, for stacked scores t (R, N, p)."""
    return _sym(binv @ (np.swapaxes(scores, -1, -2) @ scores) @ binv)


def estimate_block(fits, kinds=ALL_KINDS, fg_bound=DEFAULT_FG_BOUND, cluster_ids=None):
    """Covariance estimates of every requested kind for a block of converged fits.

    `fits` is a gee.FitBlock. Returns (covs, diagnostics, errors), each a
    dict keyed by kind: covs[kind] is (R, p, p) with NaN rows where the
    estimate failed, diagnostics[kind] maps a diagnostic name to an (R,)
    array, and errors[kind] maps a failing replicate's position among the
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

    n_clusters = fits.x.shape[0]
    binv, bread_errors = _bread_inverses(fits.info_sum)
    scores = fits.u[:, :, None] * fits.x
    covs, diagnostics, errors = {}, {}, {}
    q_max = fits.h.max(axis=1)

    for kind in sandwich_kinds:
        errs = dict(bread_errors)
        t = scores
        if kind in (EstimatorKind.KC, EstimatorKind.MD):
            gaps = 1.0 - fits.h                    # eigenvalue of I - Q_i along x_i
            bad = gaps <= 1e-14
            if bad.any():
                for k, cid in _first_bad(bad, cluster_ids):
                    errs.setdefault(k, CorrectionSingularityError(
                        cid, kind.name, f"I - Q_i eigenvalue {float(gaps[k].min()):.3g}"))
                gaps = np.where(bad, 1.0, gaps)
            power = -0.5 if kind is EstimatorKind.KC else -1.0
            t = scores * (gaps ** power)[:, :, None]
        elif kind is EstimatorKind.FG:
            factors = 1.0 - np.minimum(fg_bound, fits.h)
            bad = factors <= 0.0
            if bad.any():
                for k, cid in _first_bad(bad, cluster_ids):
                    errs.setdefault(k, CorrectionSingularityError(
                        cid, "FG", "capped diagonal reached 1"))
                factors = np.where(bad, 1.0, factors)
            # diag(Q_i) is h_i at the coordinate of the cluster's arm, 0 elsewhere
            col = fits.arm if fits.n_params == 2 else 0
            t = scores.copy()
            t[:, np.arange(n_clusters), col] /= np.sqrt(factors)
        covs[kind] = _sandwich(binv, t)
        diagnostics[kind] = {"q_max": q_max}
        errors[kind] = errs

    if EstimatorKind.MB in want:
        covs[EstimatorKind.MB] = _sym(fits.phi[:, None, None] * binv)
        diagnostics[EstimatorKind.MB] = {}
        errors[EstimatorKind.MB] = dict(bread_errors)

    if EstimatorKind.MBN in want:
        # cov = c V_robust + delta_N phi_mbn B^{-1}, with
        # c = ((sum m_i - 1)/(sum m_i - 2)) (N/(N-1)), delta_N = min(0.5, 2/(N-2))
        # and phi_mbn = max(1, trace(c B^{-1} sum_i s_i s_i') / p)
        kind = EstimatorKind.MBN
        if n_clusters <= 2:
            err = UnsupportedDesignError(f"MBN needs more than 2 clusters, got {n_clusters}")
            errors[kind] = {k: err for k in range(len(binv))}
            covs[kind] = np.full_like(binv, np.nan)
            diagnostics[kind] = {}
        else:
            total_obs = fits.m.sum(axis=1)
            c = (((total_obs - 1) / (total_obs - 2)) * (n_clusters / (n_clusters - 1)))
            c = c[:, None, None]
            delta = min(0.5, 2.0 / (n_clusters - 2))
            meat = np.swapaxes(scores, -1, -2) @ scores
            v_robust = binv @ meat @ binv
            trace = np.trace(c * (binv @ meat), axis1=1, axis2=2)
            phi_mbn = np.fmax(1.0, trace / fits.n_params)
            covs[kind] = _sym(c * v_robust + (delta * phi_mbn)[:, None, None] * binv)
            diagnostics[kind] = {"mbn_phi": phi_mbn}
            errors[kind] = dict(bread_errors)

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
    covs, diagnostics, errors = estimate_block(
        fit.block, kinds, fg_bound, cluster_ids=[c.id for c in fit.data.clusters]
    )
    for errs in errors.values():
        if errs:
            raise errs[0]
    out = {}
    for kind in kinds:
        diag = {name: float(values[0]) for name, values in diagnostics[kind].items()}
        out[kind] = VarianceEstimate(kind=kind, cov=covs[kind][0], diagnostics=diag)
    return out


def robust_sandwich(fit, kinds=(EstimatorKind.ROBUST,), fg_bound=DEFAULT_FG_BOUND):
    """Sandwich estimates for the requested multiplicative kinds.

    Returns a list of VarianceEstimate in the order requested. Every
    output is exactly symmetrized as (A + A')/2.
    """
    kinds = tuple(kinds)
    bad = [k for k in kinds if k not in MULTIPLICATIVE_KINDS]
    if bad:
        raise UsageError(f"robust_sandwich handles {MULTIPLICATIVE_KINDS}, got {bad}")
    return list(compute_estimates(fit, kinds, fg_bound).values())


def model_based(fit):
    """Working-model covariance phi * B^{-1}."""
    return compute_estimates(fit, (EstimatorKind.MB,))[EstimatorKind.MB]


def mbn(fit):
    """Additive-inflation correction of the robust sandwich (see estimate_block)."""
    return compute_estimates(fit, (EstimatorKind.MBN,))[EstimatorKind.MBN]


def avg(kc, md):
    """Elementwise average of the KC and MD estimates."""
    if kc.kind is not EstimatorKind.KC or md.kind is not EstimatorKind.MD:
        raise UsageError(f"avg expects (KC, MD) estimates, got ({kc.kind}, {md.kind})")
    if kc.cov.shape != md.cov.shape:
        raise UsageError("KC and MD estimates have mismatched shapes")
    cov = (kc.cov + md.cov) / 2.0
    diag = {"q_max": kc.diagnostics.get("q_max")}
    return VarianceEstimate(kind=EstimatorKind.AVG, cov=cov, diagnostics=diag)
