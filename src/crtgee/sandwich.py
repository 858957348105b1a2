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


def _bread_inverse(fit):
    B = fit.info_sum
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise SingularityError("bread matrix sum_i D'V^{-1}D is singular") from None
    if not np.all(np.isfinite(Binv)):
        raise SingularityError("bread matrix inverse is not finite")
    return Binv


def correction_context(fit, fg_bound=DEFAULT_FG_BOUND):
    """Collect the fit's leverages and the inverse bread for the corrections."""
    if not 0.0 < fg_bound <= 1.0:
        raise UsageError(f"FG bound must lie in (0, 1], got {fg_bound}")
    return CorrectionContext(
        h=fit.h, x=fit.x, binv=_bread_inverse(fit), r=fg_bound, q_max=float(fit.h.max())
    )


def _first_cluster_id(fit, bad):
    return fit.data.clusters[int(np.flatnonzero(bad)[0])].id


def _corrected_scores(kind, fit, ctx):
    """The scores u_i x_i scaled by the kind's leverage factor, (N, p)."""
    scores = fit.scores
    if kind is EstimatorKind.ROBUST:
        return scores
    if kind in (EstimatorKind.KC, EstimatorKind.MD):
        gaps = 1.0 - ctx.h                             # eigenvalue of I - Q_i along x_i
        if np.any(gaps <= 1e-14):
            raise CorrectionSingularityError(
                _first_cluster_id(fit, gaps <= 1e-14), kind.name,
                f"I - Q_i eigenvalue {float(gaps.min()):.3g}",
            )
        power = -0.5 if kind is EstimatorKind.KC else -1.0
        return scores * (gaps ** power)[:, None]
    if kind is EstimatorKind.FG:
        factors = 1.0 - np.minimum(ctx.r, ctx.h)
        if np.any(factors <= 0.0):
            raise CorrectionSingularityError(
                _first_cluster_id(fit, factors <= 0.0), "FG", "capped diagonal reached 1"
            )
        # diag(Q_i) is h_i at the coordinate of the cluster's arm, 0 elsewhere
        col = fit.arm if fit.n_params == 2 else 0
        scores[np.arange(len(scores)), col] /= np.sqrt(factors)
        return scores
    raise UsageError(f"{kind} is not a sandwich-multiplier kind")


def robust_sandwich(fit, kinds=(EstimatorKind.ROBUST,), fg_bound=DEFAULT_FG_BOUND):
    """Sandwich estimates for the requested multiplicative kinds.

    Returns a list of VarianceEstimate in the order requested. Every
    output is exactly symmetrized as (A + A')/2.
    """
    kinds = tuple(kinds)
    bad = [k for k in kinds if k not in MULTIPLICATIVE_KINDS]
    if bad:
        raise UsageError(f"robust_sandwich handles {MULTIPLICATIVE_KINDS}, got {bad}")
    ctx = correction_context(fit, fg_bound)

    out = []
    for kind in kinds:
        t = _corrected_scores(kind, fit, ctx)
        cov = ctx.binv @ (t.T @ t) @ ctx.binv
        cov = (cov + cov.T) / 2.0
        out.append(VarianceEstimate(kind=kind, cov=cov, diagnostics={"q_max": ctx.q_max}))
    return out


def model_based(fit):
    """Working-model covariance phi * B^{-1}."""
    Binv = _bread_inverse(fit)
    cov = fit.phi_hat * Binv
    return VarianceEstimate(kind=EstimatorKind.MB, cov=(cov + cov.T) / 2.0)


def mbn(fit):
    """Additive-inflation correction of the robust sandwich.

    cov = c * V_robust + delta_N * phi_mbn * B^{-1}, with
    c = ((sum m_i - 1)/(sum m_i - 2)) * (N/(N-1)),
    delta_N = min(0.5, 2/(N-2)), and
    phi_mbn = max(1, trace(c B^{-1} sum_i s_i s_i') / p).
    """
    N = fit.n_clusters
    if N <= 2:
        raise UnsupportedDesignError(f"MBN needs more than 2 clusters, got {N}")
    total_obs = int(fit.m.sum())
    c = ((total_obs - 1) / (total_obs - 2)) * (N / (N - 1))
    delta = min(0.5, 2.0 / (N - 2))

    Binv = _bread_inverse(fit)
    scores = fit.scores
    meat = scores.T @ scores
    v_robust = Binv @ meat @ Binv
    p = fit.n_params
    phi_mbn = max(1.0, float(np.trace(c * (Binv @ meat))) / p)

    cov = c * v_robust + delta * phi_mbn * Binv
    cov = (cov + cov.T) / 2.0
    return VarianceEstimate(kind=EstimatorKind.MBN, cov=cov, diagnostics={"mbn_phi": phi_mbn})


def avg(kc, md):
    """Elementwise average of the KC and MD estimates."""
    if kc.kind is not EstimatorKind.KC or md.kind is not EstimatorKind.MD:
        raise UsageError(f"avg expects (KC, MD) estimates, got ({kc.kind}, {md.kind})")
    if kc.cov.shape != md.cov.shape:
        raise UsageError("KC and MD estimates have mismatched shapes")
    cov = (kc.cov + md.cov) / 2.0
    diag = {"q_max": kc.diagnostics.get("q_max")}
    return VarianceEstimate(kind=EstimatorKind.AVG, cov=cov, diagnostics=diag)


def compute_estimates(fit, kinds=ALL_KINDS, fg_bound=DEFAULT_FG_BOUND):
    """All requested estimates keyed by kind; AVG implies KC and MD."""
    kinds = tuple(kinds)
    want = set(kinds)
    sandwich_kinds = [k for k in MULTIPLICATIVE_KINDS if k in want]
    if EstimatorKind.AVG in want:
        for k in (EstimatorKind.KC, EstimatorKind.MD):
            if k not in sandwich_kinds:
                sandwich_kinds.append(k)

    got = {}
    if sandwich_kinds:
        for est in robust_sandwich(fit, sandwich_kinds, fg_bound):
            got[est.kind] = est
    if EstimatorKind.MB in want:
        got[EstimatorKind.MB] = model_based(fit)
    if EstimatorKind.MBN in want:
        got[EstimatorKind.MBN] = mbn(fit)
    if EstimatorKind.AVG in want:
        got[EstimatorKind.AVG] = avg(got[EstimatorKind.KC], got[EstimatorKind.MD])

    return {k: got[k] for k in kinds}
