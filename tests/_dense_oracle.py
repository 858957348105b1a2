"""Dense reference implementation of every variance estimator.

Deliberately naive: builds each cluster's full m x m inverse working
covariance from the closed form of R(alpha)^{-1}, and evaluates the KC
and MD multipliers with scipy.linalg.sqrtm / inv on the non-symmetric
(I - Q_i), plus the classical observation-space leverage form as a
second route. Shares no linear algebra with the package beyond numpy
primitives. Also holds the sum Q_i = I reconstruction of criterion 2 and
a 60-digit mpmath evaluation of the robust, KC and MD matrices, the
reference where alpha sits at its lower bound and the m x m inverses
above lose digits.
"""

import mpmath
import numpy as np
import scipy.linalg as sla


def _inv_link(link, eta):
    if link == "log":
        return np.exp(eta)
    if link == "logit":
        return 1.0 / (1.0 + np.exp(-eta))
    return eta


def _mu_deriv(link, eta):
    if link == "log":
        return np.exp(eta)
    if link == "logit":
        p = 1.0 / (1.0 + np.exp(-eta))
        return p * (1.0 - p)
    return np.ones_like(eta)


def _variance(family, mu):
    if family == "binomial":
        return mu * (1.0 - mu)
    if family == "poisson":
        return mu
    return np.ones_like(mu)


def _real(mat):
    mat = np.asarray(mat)
    if np.iscomplexobj(mat):
        assert np.max(np.abs(mat.imag)) < 1e-10
        mat = mat.real
    return mat


def dense_estimates(data, family, link, beta, alpha, phi, fg_bound=0.75):
    """All seven estimator matrices from raw data and converged parameters.

    Returns a dict of p x p arrays keyed by
    mb / robust / kc / md / fg / mbn / avg.
    """
    beta = np.asarray(beta, dtype=float)
    p = beta.size

    pieces = []
    B = np.zeros((p, p))
    for c in data.clusters:
        m = c.size
        x = np.array([1.0, float(c.arm)])[:p]
        eta = float(x @ beta)
        mu = float(_inv_link(link, eta))
        d = float(_mu_deriv(link, eta))
        v = float(_variance(family, np.array([mu]))[0])
        # R(alpha)^{-1} = (I - alpha / (1 + (m - 1) alpha) 11') / (1 - alpha),
        # exact even where R(alpha) is nearly singular (alpha at its lower bound)
        Rinv = (np.eye(m) - alpha / (1.0 + (m - 1) * alpha) * np.ones((m, m))) / (1.0 - alpha)
        Vinv = Rinv / v
        D = d * np.outer(np.ones(m), x)
        r = np.asarray(c.outcomes, dtype=float) - mu
        Bi = D.T @ Vinv @ D
        s = D.T @ Vinv @ r
        B += Bi
        pieces.append((m, D, Vinv, r, Bi, s))

    Binv = sla.inv(B)
    out = {}

    out["mb"] = phi * Binv

    def sandwich(scores):
        meat = np.zeros((p, p))
        for t in scores:
            meat += np.outer(t, t)
        cov = Binv @ meat @ Binv
        return (cov + cov.T) / 2.0

    out["robust"] = sandwich([s for (_, _, _, _, _, s) in pieces])

    kc_scores = []
    md_scores = []
    kc_resid = []
    md_resid = []
    fg_scores = []
    eye = np.eye(p)
    for (m, D, Vinv, r, Bi, s) in pieces:
        Q = Bi @ Binv
        gap = eye - Q
        kc_scores.append(_real(sla.inv(sla.sqrtm(gap))) @ s)
        md_scores.append(_real(sla.inv(gap)) @ s)
        # second, fully dense route through the m x m leverage matrix
        H = D @ Binv @ D.T @ Vinv
        gap_h = np.eye(m) - H
        kc_resid.append(D.T @ Vinv @ _real(sla.inv(sla.sqrtm(gap_h))) @ r)
        md_resid.append(D.T @ Vinv @ _real(sla.inv(gap_h)) @ r)
        factors = 1.0 - np.minimum(fg_bound, np.diag(Q))
        fg_scores.append(s / np.sqrt(factors))

    out["kc"] = sandwich(kc_scores)
    out["md"] = sandwich(md_scores)
    out["kc_resid"] = sandwich(kc_resid)
    out["md_resid"] = sandwich(md_resid)
    out["fg"] = sandwich(fg_scores)

    N = len(pieces)
    total_obs = sum(m for (m, _, _, _, _, _) in pieces)
    c_f = ((total_obs - 1) / (total_obs - 2)) * (N / (N - 1))
    delta = min(0.5, 2.0 / (N - 2))
    meat = np.zeros((p, p))
    for (_, _, _, _, _, s) in pieces:
        meat += np.outer(s, s)
    phi_mbn = max(1.0, float(np.trace(c_f * (Binv @ meat))) / p)
    mbn = c_f * (Binv @ meat @ Binv) + delta * phi_mbn * Binv
    out["mbn"] = (mbn + mbn.T) / 2.0

    out["avg"] = (out["kc"] + out["md"]) / 2.0
    return out


def identity_gap(fit):
    """sum_i Q_i - I for a fit, an algebraic zero up to rounding.

    Q_i = w_i x_i x_i' B^{-1} = h_i x_i x_i' B^{-1} / (x_i' B^{-1} x_i)
    is rebuilt from the fit's closed-form h_i, so the gap also checks that
    h_i is the cluster's share of its arm's information.
    """
    x, binv = fit.x, np.linalg.inv(fit.info_sum)
    lev = np.sum((x @ binv) * x, axis=1)       # x_i' B^{-1} x_i
    total = (x * (fit.h / lev)[:, None]).T @ x @ binv
    return total - np.eye(total.shape[0])


def mp_sandwiches(data, family, link, beta, alpha, digits=60):
    """Robust, KC and MD matrices B^{-1} (sum_i c_i^2 u_i^2 x_i x_i') B^{-1} in mpmath.

    Evaluated at `digits` significant digits from raw cluster sums and the
    given (beta, alpha), with p x p algebra throughout: B = sum_i w_i x_i x_i'
    is inverted as a matrix and each leverage is h_i = w_i x_i' B^{-1} x_i,
    so the reference shares no per-arm shortcut with the package. Returns
    float arrays keyed by robust / kc / md.
    """
    with mpmath.workdps(digits):
        beta = [mpmath.mpf(float(b)) for b in beta]
        alpha = mpmath.mpf(float(alpha))
        p = len(beta)
        rows = []
        for c in data.clusters:
            m, s = c.size, mpmath.mpf(float(np.sum(c.outcomes)))
            x = mpmath.matrix([1, c.arm][:p])
            eta = sum(xj * bj for xj, bj in zip(x, beta))
            mu = {"log": mpmath.exp(eta), "logit": 1 / (1 + mpmath.exp(-eta))}.get(link, eta)
            d = {"log": mu, "logit": mu * (1 - mu)}.get(link, mpmath.mpf(1))
            v = {"binomial": mu * (1 - mu), "poisson": mu}.get(family, mpmath.mpf(1))
            denom = 1 + (m - 1) * alpha
            rows.append((x, d * d / v * m / denom, d / v * (s - m * mu) / denom))
        B = mpmath.zeros(p, p)
        for x, w, _ in rows:
            B += w * x * x.T
        Binv = B ** -1
        out = {}
        for name, power in (("robust", 0), ("kc", 1), ("md", 2)):
            meat = mpmath.zeros(p, p)
            for x, w, u in rows:
                h = w * (x.T * Binv * x)[0]
                meat += u * u / (1 - h) ** power * x * x.T
            cov = Binv * meat * Binv
            out[name] = np.array([[float(cov[i, j]) for j in range(p)] for i in range(p)])
    return out


def rel_err(a, b):
    """max |a - b| scaled by max |b|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
