"""GEE fitting with an exchangeable working correlation.

Fisher scoring on the marginal mean model g(mu_ij) = x_i' beta, alternating
each iteration with moment re-estimation of the exchangeable correlation
alpha and the dispersion phi.

Treatment is cluster-level and the mean model (an intercept, plus the arm
indicator) is saturated, so the covariate row x_i and the mean mu_i are
constant within a cluster. With 0/1 outcomes (sum_j y_ij^2 = s_i) a cluster
enters every sum only through (arm_i, m_i, s_i = sum_j y_ij). Writing
d_i = dmu/deta, v_i = V(mu_i) and using 1' R(alpha)^{-1} 1 =
m / (1 + (m-1) alpha):

    Pearson residual sum      e_i = (s_i - m_i mu_i) / sqrt(v_i)
    sum of their squares      q_i = (s_i (1 - 2 mu_i) + m_i mu_i^2) / v_i
    working weight            w_i = d_i^2 / v_i * m_i / (1 + (m_i - 1) alpha)
    score                     u_i = d_i / v_i * (s_i - m_i mu_i) / (1 + (m_i - 1) alpha)

so that D_i' V_i^{-1} D_i = w_i x_i x_i' and D_i' V_i^{-1} (y_i - mu_i) =
u_i x_i. Forming s costs O(total observations) once per fit; every scoring
iteration then costs O(N), with mu, d and v evaluated once per arm and read
per cluster. The converged fit keeps these arrays, the bread
B = sum_i w_i x_i x_i', and each cluster's leverage
h_i = w_i x_i' B^{-1} x_i = w_i / W_arm(i), its share of its arm's working
information (of the total for the intercept-only model).

A scoring step is a function of beta alone. When an iterate repeats bit for
bit (the alpha/beta alternation can lock into such a cycle), the fit can
neither converge nor fail otherwise before max_iter, so it stops at once and
reports max_iterations with the iterate the cycle would hold at max_iter:
the same outcome as running the budget out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import TrialDataset
from .errors import NonConvergenceError, UsageError
from .families import (
    Family,
    MeanModel,
    ModelSpec,
    link_apply,
    link_inverse,
    link_mu_deriv,
    mean_in_range,
    variance_function,
)

#: margin keeping R(alpha) positive definite after clamping
ALPHA_MARGIN = 1e-6


class CorrelationKind(enum.Enum):
    EXCHANGEABLE = "exchangeable"
    INDEPENDENCE = "independence"


@dataclass(frozen=True)
class WorkingCorrelation:
    """Working correlation choice; ``alpha=None`` means moment-estimated."""

    kind: CorrelationKind = CorrelationKind.EXCHANGEABLE
    alpha: float | None = None

    def __post_init__(self):
        if self.kind is CorrelationKind.INDEPENDENCE:
            if self.alpha not in (None, 0.0):
                raise UsageError("independence working correlation fixes alpha = 0")
            object.__setattr__(self, "alpha", 0.0)

    @classmethod
    def exchangeable(cls, alpha=None):
        return cls(CorrelationKind.EXCHANGEABLE, alpha)

    @classmethod
    def independence(cls):
        return cls(CorrelationKind.INDEPENDENCE)


def alpha_bounds(max_cluster_size):
    """Valid exchangeable-correlation interval for the largest cluster."""
    if max_cluster_size < 2:
        return (-1.0 + ALPHA_MARGIN, 1.0 - ALPHA_MARGIN)
    return (-1.0 / (max_cluster_size - 1) + ALPHA_MARGIN, 1.0 - ALPHA_MARGIN)


@dataclass
class AlphaPhiEstimate:
    alpha: float
    phi: float
    clamped: bool = False


def estimate_alpha_phi(resid_sums, resid_sq_sums, sizes, n_params, max_cluster_size=None):
    """Moment estimators of the exchangeable correlation and dispersion.

    Parameters
    ----------
    resid_sums, resid_sq_sums : 1-D arrays
        Per-cluster sums of the Pearson residuals (y_ij - mu_i)/sqrt(V(mu_i))
        and of their squares.
    sizes : 1-D integer array
        Cluster sizes m_i.
    n_params : int
        Number of mean-model parameters subtracted from both denominators.
    max_cluster_size : int, optional
        Used for the positive-definiteness clamp; inferred when omitted.
    """
    sums = np.asarray(resid_sums, dtype=float)
    squares = np.asarray(resid_sq_sums, dtype=float)
    sizes = np.asarray(sizes)
    if max_cluster_size is None:
        max_cluster_size = int(sizes.max())
    # sum_{j<k} e_ij e_ik = ((sum_j e_ij)^2 - sum_j e_ij^2) / 2
    return _alpha_phi(
        float(squares.sum()),
        float((sums * sums - squares).sum()) / 2.0,
        int(sizes.sum()),
        int((sizes * (sizes - 1) // 2).sum()),
        n_params,
        alpha_bounds(max_cluster_size),
    )


def _alpha_phi(square_sum, cross_sum, n_obs, n_pairs, n_params, bounds):
    """(alpha, phi) from sum_ij e_ij^2 and sum_i sum_{j<k} e_ij e_ik."""
    phi = square_sum / (n_obs - n_params)
    if n_pairs == 0:
        return AlphaPhiEstimate(alpha=0.0, phi=phi)
    pair_denom = n_pairs - n_params
    if pair_denom <= 0 or phi <= 0.0:
        # too few within-cluster pairs to identify alpha
        return AlphaPhiEstimate(alpha=0.0, phi=phi, clamped=True)

    alpha_raw = (cross_sum / pair_denom) / phi
    lo, hi = bounds
    alpha = min(max(alpha_raw, lo), hi)
    return AlphaPhiEstimate(alpha=alpha, phi=phi, clamped=(alpha != alpha_raw))


def initialize_beta(arm, m, s, spec):
    """Starting coefficients from (clamped) arm proportions on the link scale.

    `arm`, `m` and `s` are the per-cluster arm labels, sizes and event
    counts. The clamp keeps log and logit links defined when an arm has
    zero (or all) events; the Gaussian family starts from the raw
    proportions.
    """
    events = np.bincount(arm, weights=s, minlength=2)
    n_arm = np.bincount(arm, weights=m, minlength=2)
    n_obs = int(m.sum())
    p0 = float(events[0]) / float(n_arm[0])
    p1 = float(events[1]) / float(n_arm[1])
    pooled = float(events[0] + events[1]) / n_obs

    if spec.family is not Family.GAUSSIAN:
        floor = 0.5 / n_obs
        clamp = lambda x: min(max(x, floor), 1.0 - floor)
        p0, p1, pooled = clamp(p0), clamp(p1), clamp(pooled)

    if spec.mean_model is MeanModel.INTERCEPT_ONLY:
        return np.array([float(link_apply(spec.link, pooled))])
    g0 = float(link_apply(spec.link, p0))
    g1 = float(link_apply(spec.link, p1))
    return np.array([g0, g1 - g0])


def _design_rows(arm, n_params):
    """Covariate rows x_i as an (N, p) array: (1, arm_i), or (1,) intercept-only."""
    x = np.ones((len(arm), n_params))
    if n_params == 2:
        x[:, 1] = arm
    return x


@dataclass
class GeeFit:
    """A converged GEE fit and the per-cluster arrays every estimator reads.

    Arrays hold one entry (or row) per cluster, in dataset order.
    """

    data: TrialDataset
    spec: ModelSpec
    corr: WorkingCorrelation
    beta: np.ndarray
    alpha_hat: float
    phi_hat: float
    converged: bool
    iterations: int
    score_norm: float
    alpha_clamped: bool
    arm: np.ndarray        # arm label
    m: np.ndarray          # cluster size m_i
    s: np.ndarray          # event count s_i = sum_j y_ij
    x: np.ndarray          # covariate rows x_i, (N, p)
    w: np.ndarray          # working weight: D_i' V_i^{-1} D_i = w_i x_i x_i'
    u: np.ndarray          # score: D_i' V_i^{-1} (y_i - mu_i) = u_i x_i
    h: np.ndarray          # leverage w_i / W_arm(i)
    info_sum: np.ndarray   # B = sum_i w_i x_i x_i'

    @property
    def n_clusters(self):
        return self.data.n_clusters

    @property
    def n_params(self):
        return self.beta.size

    @property
    def scores(self):
        """Per-cluster score vectors u_i x_i as an (N, p) array."""
        return self.u[:, None] * self.x

    def fitted_arm_means(self):
        """Fitted mean per arm (identical across clusters of an arm)."""
        mu = link_inverse(self.spec.link, _design_rows([0, 1], self.n_params) @ self.beta)
        return {0: float(mu[0]), 1: float(mu[1])}


def fit_gee(
    data,
    spec,
    corr=None,
    *,
    max_iter=50,
    beta_tol=1e-8,
    score_tol=1e-4,
    max_step_halvings=10,
):
    """Fit the marginal model by Fisher scoring.

    Raises
    ------
    NonConvergenceError
        When the iteration or step-halving budget is exhausted, the
        information matrix is singular, or the final score fails the
        first-order condition. The exception carries the iteration count,
        the last coefficient vector, and a reason tag; simulation code
        counts these events as the convergence-rate outcome.
    """
    if corr is None:
        corr = WorkingCorrelation.exchangeable()
    arm = np.array([c.arm for c in data.clusters], dtype=int)
    m = np.array([c.size for c in data.clusters])
    s = np.array([c.outcomes.sum() for c in data.clusters])
    m_max = int(m.max())
    estimate_corr = corr.kind is CorrelationKind.EXCHANGEABLE and corr.alpha is None
    if corr.alpha is not None and corr.alpha != 0.0:
        lo, hi = alpha_bounds(m_max)
        if not lo <= corr.alpha <= hi:
            raise UsageError(
                f"fixed alpha {corr.alpha} outside the valid range [{lo:.6g}, {hi:.6g}]"
            )

    p = spec.n_params
    x = _design_rows(arm, p)
    beta = initialize_beta(arm, m, s, spec)
    alpha = 0.0 if corr.alpha is None else float(corr.alpha)
    clamped_any = False

    # mu, d and v are constant within a group (an arm; the whole trial for
    # the intercept-only model): they are computed per group, xg holding
    # each group's covariate row, and read per cluster through `group`
    group = arm if p == 2 else np.zeros_like(arm)
    xg = _design_rows(np.arange(p), p)
    n_obs, n_pairs = int(m.sum()), int((m * (m - 1) // 2).sum())
    bounds = alpha_bounds(m_max)
    m_minus_1 = m - 1

    def residuals(mu):
        """Per cluster: mu_i, m_i mu_i and the residual total s_i - m_i mu_i."""
        mu_c = mu[group]
        m_mu = m * mu_c
        return mu_c, m_mu, s - m_mu

    def alpha_phi(mu, v, mu_c, m_mu, resid):
        # per cluster: e_i = sum_j e_ij and q_i = sum_j e_ij^2
        e = resid / np.sqrt(v)[group]
        q = (s * (1.0 - 2.0 * mu)[group] + m_mu * mu_c) / v[group]
        return _alpha_phi(float(q.sum()), float((e * e - q).sum()) / 2.0, n_obs, n_pairs, p,
                          bounds)

    def weights_scores(d, v, resid, alpha):
        denom = 1.0 + m_minus_1 * alpha
        return (d * d / v)[group] * (m / denom), (d / v)[group] * (resid / denom)

    eta = xg @ beta
    mu = link_inverse(spec.link, eta)
    # each step is a function of beta alone, so an iterate that repeats
    # exactly starts a cycle that can neither converge nor fail differently:
    # it is cut short, reporting the iterate the cycle holds at max_iter
    iterates = [beta]
    first_seen = {beta.tobytes(): 0}
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        d = link_mu_deriv(spec.link, eta)
        v = variance_function(spec.family, mu)
        mu_c, m_mu, resid = residuals(mu)
        if estimate_corr:
            est = alpha_phi(mu, v, mu_c, m_mu, resid)
            alpha = est.alpha
            clamped_any = clamped_any or est.clamped

        w, u = weights_scores(d, v, resid, alpha)
        B = x.T @ (w[:, None] * x)
        U = x.T @ u
        if not (np.isfinite(B).all() and np.isfinite(U).all()):
            raise NonConvergenceError("numerical_breakdown", iterations, beta)
        try:
            delta = np.linalg.solve(B, U)
        except np.linalg.LinAlgError:
            raise NonConvergenceError("singular_information", iterations, beta) from None

        step = delta
        halvings = 0
        while True:
            eta = xg @ (beta + step)
            mu = link_inverse(spec.link, eta)
            if mean_in_range(spec.family, mu):
                break
            if halvings >= max_step_halvings:
                raise NonConvergenceError("step_halving_exhausted", iterations, beta)
            step = step / 2.0
            halvings += 1
        beta = beta + step
        if not np.isfinite(beta).all():
            raise NonConvergenceError("numerical_breakdown", iterations, beta)
        if float(np.abs(step).max()) < beta_tol:
            converged = True
            break
        first = first_seen.setdefault(beta.tobytes(), iterations)
        if first < iterations:
            beta = iterates[first + (max_iter - first) % (iterations - first)]
            iterations = max_iter
            break
        iterates.append(beta)

    if not converged:
        raise NonConvergenceError("max_iterations", iterations, beta)

    # at the converged beta: refresh (alpha, phi), then verify the
    # first-order condition
    d = link_mu_deriv(spec.link, eta)
    v = variance_function(spec.family, mu)
    mu_c, m_mu, resid = residuals(mu)
    est = alpha_phi(mu, v, mu_c, m_mu, resid)
    if estimate_corr:
        alpha = est.alpha
        clamped_any = clamped_any or est.clamped
    w, u = weights_scores(d, v, resid, alpha)
    score_norm = float(np.max(np.abs(x.T @ u)))
    if score_norm >= score_tol:
        raise NonConvergenceError("score_condition_failed", iterations, beta)

    return GeeFit(
        data=data,
        spec=spec,
        corr=corr,
        beta=beta,
        alpha_hat=float(alpha),
        phi_hat=float(est.phi),
        converged=True,
        iterations=iterations,
        score_norm=score_norm,
        alpha_clamped=clamped_any,
        arm=arm,
        m=m,
        s=s,
        x=x,
        w=w,
        u=u,
        h=w / np.bincount(group, weights=w)[group],
        info_sum=x.T @ (w[:, None] * x),
    )
