"""GEE fitting of the two-arm model with an exchangeable working correlation.

Fisher scoring on the marginal mean model g(mu_ij) = beta_0 + beta_1 arm_i,
alternating each iteration with moment re-estimation of the exchangeable
correlation alpha and the dispersion phi.

Treatment is cluster-level and the mean model (an intercept and the arm
indicator) is saturated, so the covariate row x_i = (1, arm_i) and the mean
mu_i are constant within a cluster. With 0/1 outcomes (sum_j y_ij^2 = s_i) a
cluster enters every sum only through (arm_i, m_i, s_i = sum_j y_ij).
Writing d_i = dmu/deta, v_i = V(mu_i) and using 1' R(alpha)^{-1} 1 =
m / (1 + (m-1) alpha):

    Pearson residual sum      e_i = (s_i - m_i mu_i) / sqrt(v_i)
    sum of their squares      q_i = (s_i (1 - 2 mu_i) + m_i mu_i^2) / v_i
    working weight            w_i = d_i^2 / v_i * m_i / (1 + (m_i - 1) alpha)
    score                     u_i = d_i / v_i * (s_i - m_i mu_i) / (1 + (m_i - 1) alpha)

so that D_i' V_i^{-1} D_i = w_i x_i x_i' and D_i' V_i^{-1} (y_i - mu_i) =
u_i x_i. Forming s costs O(total observations) once per fit.

On the scale of the arm means' linear predictors eta_a = beta_0 + a beta_1
the information is diag(W_a), W_a = sum_{i in a} w_i, and the score is
U_a = sum_{i in a} u_i. A scoring step is one scalar per arm, delta eta_a =
U_a / W_a, and (delta eta_0, delta eta_1 - delta eta_0) in beta; the
information is singular exactly when some W_a is 0. A fit's state is eta
itself, and beta = (eta_0, eta_1 - eta_0) is read from it, so an arm whose
score is 0 keeps its mean bit for bit.

The moment estimators need sum_i q_i and sum_i e_i^2, and mu, d and v are
one value per arm, so over an arm's clusters, at its mean mu_a with
variance v_a, they are five arm sums of (m_i, s_i): S_a = sum s_i,
M_a = sum m_i, sum s_i^2, sum s_i m_i and sum m_i^2,

    sum_{i in a} q_i    = (S_a (1 - 2 mu_a) + M_a mu_a^2) / v_a
    sum_{i in a} e_i^2  = (sum s_i^2 - 2 mu_a sum s_i m_i + mu_a^2 sum m_i^2) / v_a

which a block forms once. Each scoring pass reads the clusters only for

    W_a = d_a^2 / v_a * sum_{i in a} m_i / (1 + (m_i - 1) alpha)
    U_a = d_a / v_a * sum_{i in a} (s_i - m_i mu_a) / (1 + (m_i - 1) alpha),

two weighted arm sums, O(N). The residual stays inside U_a's sum, where
the equal sum_i s_i / (...) - mu_a sum_i m_i / (...) leaves rounding noise.
In an arm whose clusters all share one proportion, s_i M_a = m_i S_a for
each i (exact in integers, tested once per replicate), every true residual
is 0; but the mean mu_a the link gives back for that proportion (log and
logit links do not return it bit for bit) leaves each a rounding away from
0, and with it a small positive sandwich variance where the true one is 0,
so the converged fit's residuals in such arms are set to 0. The converged
fit alone forms the per-cluster w and u, their arm sums W and U, and each
cluster's leverage h_i = w_i / W_a(i), its share of its arm's working
information.

An arm without events (binomial or Poisson), or with only events
(binomial), puts its mean where the family's variance or the link is
undefined, so its estimating equation has no solution: such a replicate
fails at once with reason empty_arm, before any scoring pass, under every
link of the family. The Gaussian family fits it.

fit_block, the entry point, fits K working models to a block of R
replicates that share their clusters' arms in one loop: the K R fits are
the rows of (K R, N) arrays, model-major (model k's fit to replicate r is
row k R + r). Each iteration is one vectorized pass over the fits still
iterating; one more pass at each converged beta refreshes (alpha, phi), the
weights, scores and leverages. Only the per-arm functions depend on the
model (the link, its inverse and derivative, the variance function, the
mean's range, the empty-arm rule and the Poisson start clamp), and they
are dispatched per run of models sharing a link or family, on that run's
contiguous rows. Every fit keeps its own iteration count, step halving and
outcome, and no row's arithmetic depends on the others, so each fit is bit
for bit the fit of its model to its replicate alone. Replicates of
different N share a block as rows of its widest trial, padded with m = 0
columns; every sum over a replicate's clusters is an arm sum, a bincount,
to which padding adds only trailing zeros without changing how the
replicate's own clusters associate. fit_gee is a block of one model and
one replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TrialDataset
from .errors import NonConvergenceError
from .families import (
    Family,
    link_apply,
    link_inverse,
    link_mu_deriv,
    mean_in_range,
    variance_function,
)

#: margin keeping R(alpha) positive definite after clamping
ALPHA_MARGIN = 1e-6

#: a fit converges when no coefficient moves by this much in one step
BETA_TOL = 1e-8

#: largest entry of the score X'u accepted at a converged beta
SCORE_TOL = 1e-4

#: halvings of a step whose fitted means leave the family's range
MAX_STEP_HALVINGS = 10

#: scoring passes a fit may take before it fails with max_iterations
MAX_ITERATIONS = 50


def _alpha_lower(max_sizes):
    """Lower alpha bound for the largest cluster sizes, elementwise."""
    return -1.0 / (np.maximum(max_sizes, 2) - 1) + ALPHA_MARGIN


def alpha_bounds(max_cluster_size):
    """Valid exchangeable-correlation interval for the largest cluster."""
    return (float(_alpha_lower(max_cluster_size)), 1.0 - ALPHA_MARGIN)


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
    alpha, phi, clamped = _alpha_phi(
        squares.sum(keepdims=True),
        (sums * sums - squares).sum(keepdims=True) / 2.0,
        *_moment_terms(sizes[None], n_params),
        _alpha_lower(np.array([max_cluster_size])),
    )
    return AlphaPhiEstimate(alpha=float(alpha[0]), phi=float(phi[0]), clamped=bool(clamped[0]))


def _moment_terms(m, n_params):
    """Per replicate, the constants of the moment estimators from the sizes (R, N).

    Returns (obs_df, pair_df, pairs_ok, has_pairs): the denominators
    sum m_i - p (NaN where it is not positive, so that phi is NaN there
    without a division by 0) and sum m_i (m_i - 1)/2 - p (1 where it is not
    positive, so that dividing by it is safe), whether alpha is
    identifiable from the pairs, and whether there are pairs at all.
    """
    obs_df = m.sum(axis=1) - n_params
    pair_df = (m * (m - 1) // 2).sum(axis=1) - n_params
    pairs_ok = pair_df > 0
    return (np.where(obs_df > 0, obs_df, np.nan), np.where(pairs_ok, pair_df, 1), pairs_ok,
            pair_df > -n_params)


def _alpha_phi(square_sum, cross_sum, obs_df, pair_df, pairs_ok, has_pairs, lower):
    """Per replicate (alpha, phi, clamped) from sum_ij e_ij^2 and sum_i sum_{j<k} e_ij e_ik.

    Without within-cluster pairs alpha is 0; with too few pairs to identify
    it (or no spread, phi <= 0) alpha is 0 and counts as clamped.
    """
    phi = square_sum / obs_df
    ok = pairs_ok & ~(phi <= 0.0)
    identified = ok.all()
    alpha_raw = cross_sum / pair_df / (phi if identified else np.where(ok, phi, 1.0))
    alpha = np.minimum(np.maximum(alpha_raw, lower), 1.0 - ALPHA_MARGIN)
    clamped = alpha != alpha_raw
    if identified:
        return alpha, phi, clamped
    return np.where(ok, alpha, 0.0), phi, (clamped | ~ok) & has_pairs


def _arm_eta(beta):
    """The arms' linear predictors (beta_0, beta_0 + beta_1), (R, 2)."""
    eta = beta.copy()
    eta[:, 1] += beta[:, 0]
    return eta


def _arm_beta(eta):
    """The coefficients (eta_0, eta_1 - eta_0) of the arms' linear predictors, (..., 2)."""
    beta = eta.copy()
    beta[..., 1] -= eta[..., 0]
    return beta


def _arm_keys(n_rows, arm):
    """The bins 2 r + arm_i of the entries of an (n_rows, N) array, row-major."""
    return (2 * np.arange(n_rows)[:, None] + arm).ravel()


def _arm_sums(values, keys):
    """Per row of `values` (R, N), the sums over each arm's clusters, (R, 2).

    `keys` are the rows' `_arm_keys`. One bincount over them adds each
    bin's entries in cluster order, as a bincount of the row alone would.
    """
    n_rep = len(values)
    return np.bincount(keys, weights=values.ravel(), minlength=2 * n_rep).reshape(n_rep, 2)


def _model_runs(models, attr):
    """The runs of consecutive models sharing `attr` ("link" or "family"):
    [value, first model, stop model] each."""
    runs = []
    for k, model in enumerate(models):
        value = getattr(model, attr)
        if runs and runs[-1][0] is value:
            runs[-1][2] = k + 1
        else:
            runs.append([value, k, k + 1])
    return runs


def _by_run(func, runs, x, bounds):
    """func(value, rows) on each run's rows of `x`, stacked in row order.

    The rows of `x` are model-major, and `bounds` holds the K + 1 bounds of
    the models' rows. A run without rows is skipped; when a single run
    holds every row, `x` goes to `func` whole, uncopied.
    """
    if len(runs) == 1:
        return func(runs[0][0], x)
    parts = [(value, bounds[first], bounds[stop]) for value, first, stop in runs
             if bounds[stop] > bounds[first]]
    if len(parts) <= 1:
        return func(parts[0][0] if parts else runs[0][0], x)
    return np.concatenate([func(value, x[lo:hi]) for value, lo, hi in parts])


def _empty_arm(family, events, n_arm):
    """Per replicate, whether an arm's mean has no solution under the family:
    an arm without events (binomial, Poisson) or with only events (binomial)."""
    if family is Family.GAUSSIAN:
        return np.zeros(len(events), dtype=bool)
    empty = (events == 0.0).any(axis=1)
    if family is Family.BINOMIAL:
        empty |= (events == n_arm).any(axis=1)
    return empty


def _rows_in_range(family, mu):
    """Per row of arm means (R, 2), whether both are valid means of the family."""
    return mean_in_range(family, mu, axis=1)


@dataclass
class FitBlock:
    """Converged fits of K working models to a block of R replicates.

    A block shares its clusters' arms. Its K R fits are stacked model-major:
    position k R + r is model k fit to replicate r. `rows` lists the
    positions whose fit converged, in order, and `errors` maps every other
    position to its NonConvergenceError. Per-fit arrays have one entry (or
    row) per converged fit, in `rows` order, and the per-cluster arrays one
    column per cluster, in trial order. A column with m = 0 is padding (a
    replicate with fewer clusters than the block is wide): there w, u and h
    are 0, and a fit's N is its count of m > 0.
    """

    models: tuple            # (K,) ModelSpec of each model, in stacking order
    n_rep: int               # R, the replicates each model is fit to
    arm: np.ndarray          # (N,) arm label
    rows: np.ndarray         # positions of the converged fits
    errors: dict             # position -> NonConvergenceError
    beta: np.ndarray         # (F, 2)
    alpha: np.ndarray        # (F,)
    phi: np.ndarray          # (F,)
    clamped: np.ndarray      # (F,) alpha was clamped at some iteration
    iterations: np.ndarray   # (F,)
    m: np.ndarray            # (F, N) cluster sizes m_i
    s: np.ndarray            # (F, N) event counts s_i
    w: np.ndarray            # (F, N) working weights
    u: np.ndarray            # (F, N) scores
    h: np.ndarray            # (F, N) leverages w_i / W_a(i)
    W: np.ndarray            # (F, 2) working information W_a = sum_{i in a} w_i


def fit_block(arm, m, s, models):
    """Fit each working model by Fisher scoring to every replicate of a block.

    `arm` (N,) holds the clusters' arms, shared by the block; `m` and `s`
    (R, N) hold each replicate's cluster sizes and event counts, and
    `models` the K ModelSpecs. A replicate may have fewer than N clusters:
    m = s = 0 marks a padding column (datagen.generate_pieces lays them),
    which adds zeros to the arm sums. Each replicate's five arm sums (S, M,
    sum s^2, sum s m, sum m^2) are formed once, and each scoring pass finds
    (alpha, phi) from them and W_a and U_a from two weighted arm sums over
    the clusters (see the module docstring). The K R fits run as the rows
    of one loop, model-major (see FitBlock). Only the per-arm functions depend on the
    model: the link, its inverse and derivative, the variance function, the
    mean's range, the empty-arm rule and the Poisson start clamp. These run
    once per run of consecutive models sharing the link or family, on that
    run's contiguous rows. Each fit keeps its own iteration count, step
    halving and outcome; a fit that leaves the loop (converged or failed)
    drops out of the stacked arrays, and no fit's arithmetic depends on
    another's, so every fit equals that of its model and replicate alone.

    A fit fails (an entry in `errors`) when an arm's mean has no solution
    (empty_arm, after 0 iterations and with no coefficients), the
    MAX_ITERATIONS or step-halving budget is exhausted, an arm's working
    information W_a is 0 or not finite, or the final score fails the
    first-order condition; the error carries the iteration count, the last
    coefficient vector and a reason tag, which simulation code counts as
    the convergence outcome.
    """
    arm = np.asarray(arm, dtype=int)
    sizes = np.asarray(m)
    s = np.asarray(s, dtype=float)
    models = tuple(models)
    n_rep = len(sizes)
    links, families = _model_runs(models, "link"), _model_runs(models, "family")
    # the first position of each model, and the end; positions stay sorted
    # as fits leave, so a model's rows among them are one slice
    starts = n_rep * np.arange(len(models) + 1)
    m = sizes.astype(float)
    keys = _arm_keys(n_rep, arm)
    # per replicate and arm: S, M, sum s_i^2, sum s_i m_i and sum m_i^2
    events, n_arm = _arm_sums(s, keys), _arm_sums(m, keys)
    power_sums = [_arm_sums(s * s, keys), _arm_sums(s * m, keys), _arm_sums(m * m, keys)]
    # per replicate and arm: whether its clusters all share one proportion,
    # s_i M_a = m_i S_a in exact integers, so that each residual is 0 there
    one_proportion = _arm_sums(s * n_arm[:, arm] != m * events[:, arm], keys) == 0.0

    empty = np.concatenate([np.tile(_empty_arm(family, events, n_arm), stop - first)
                            for family, first, stop in families])
    errors = {int(r): NonConvergenceError("empty_arm", 0) for r in np.flatnonzero(empty)}
    # per-replicate constants: sizes, m_i - 1, events, the five arm sums,
    # moment terms, alpha bound
    all_consts = [m, m - 1.0, s, events, n_arm, *power_sums, *_moment_terms(sizes, 2),
                  _alpha_lower(sizes.max(axis=1))]

    def scoring_pass(bounds, eta, mu, clamped, m, m1, s, S, M, ss, sm, mm, *terms):
        """At the arm means of fits whose models' row bounds are `bounds`:
        (alpha, phi, clamped), the per-arm factors d^2 / v and d / v, and per
        cluster m_i / denom_i and (s_i - m_i mu_a) / denom_i, denom_i =
        1 + (m_i - 1) alpha."""
        d = _by_run(link_mu_deriv, links, eta, bounds)
        v = _by_run(variance_function, families, mu, bounds)
        # per arm, sum_i q_i and sum_i e_i^2 from the arm sums
        Q = (S * (1.0 - 2.0 * mu) + M * mu * mu) / v
        E = (ss - 2.0 * mu * sm + mu * mu * mm) / v
        square_sum = Q[:, 0] + Q[:, 1]
        alpha, phi, now_clamped = _alpha_phi(
            square_sum, (E[:, 0] + E[:, 1] - square_sum) / 2.0, *terms)
        denom = 1.0 + m1 * alpha[:, None]
        # the residual stays inside the score's sum: an arm whose clusters
        # share one proportion then has U_a = 0 exactly, where
        # sum s_i / denom_i - mu_a sum m_i / denom_i leaves rounding noise
        return (alpha, phi, clamped | now_clamped, d * d / v, d / v, m / denom,
                (s - m * mu[:, arm]) / denom)

    n_fits = len(empty)
    done_at = np.zeros(n_fits, dtype=int)
    # eta and clamped of each fit when it converged
    final = [np.zeros((n_fits, 2)), np.zeros(n_fits, bool)]

    # the fits still iterating (`live`), the bounds of each model's among
    # them, their arm keys and state, compacted as fits leave. The state is
    # the arm means' linear predictors eta, which each fit starts at its
    # arm proportions on the link scale (a Poisson arm with only events at
    # 1 - 0.5 / n, n observations) and steps by delta eta_a; beta is read
    # from eta, so an arm mean that needs no step stays bit for bit where
    # it started
    live = np.flatnonzero(~empty)
    bounds, keys = live.searchsorted(starts), _arm_keys(live.size, arm)
    reps = live % n_rep
    consts = [c[reps] for c in all_consts]
    props = events[reps] / n_arm[reps]
    for family, first, stop in families:
        if family is Family.POISSON:
            lo, hi = bounds[first], bounds[stop]
            props[lo:hi] = np.minimum(props[lo:hi],
                                      1.0 - 0.5 / consts[0][lo:hi].sum(axis=1)[:, None])
    eta = _by_run(link_apply, links, props, bounds)
    mu = _by_run(link_inverse, links, eta, bounds)
    clamped = np.zeros(live.size, dtype=bool)

    def leave(rows, reason, iterations):
        for k in rows:
            errors[int(live[k])] = NonConvergenceError(reason, iterations, _arm_beta(eta[k]))
        staying[rows] = False

    for it in range(1, MAX_ITERATIONS + 1):
        if live.size == 0:
            break
        staying = np.ones(live.size, dtype=bool)
        _, _, clamped, info, score, weights, resid = scoring_pass(bounds, eta, mu, clamped,
                                                                  *consts)
        W, U = info * _arm_sums(weights, keys), score * _arm_sums(resid, keys)
        if not (np.isfinite(W).all() and np.isfinite(U).all() and W.all()):
            finite = np.isfinite(W).all(axis=1) & np.isfinite(U).all(axis=1)
            singular = finite & ~W.all(axis=1)
            leave(np.flatnonzero(~finite), "numerical_breakdown", it)
            leave(np.flatnonzero(singular), "singular_information", it)
            W, U = np.where(staying[:, None], W, 1.0), np.where(staying[:, None], U, 0.0)
        # the arm means' steps delta eta_a = U_a / W_a
        step = U / W

        # step halving, per fit, until its means are valid
        trial_eta = eta + step
        trial_mu = _by_run(link_inverse, links, trial_eta, bounds)
        todo = staying & ~_by_run(_rows_in_range, families, trial_mu, bounds)
        if todo.any():
            todo = np.flatnonzero(todo)
            for _ in range(MAX_STEP_HALVINGS):
                step[todo] = step[todo] / 2.0
                half_eta = eta[todo] + step[todo]
                todo_bounds = live[todo].searchsorted(starts)
                half_mu = _by_run(link_inverse, links, half_eta, todo_bounds)
                ok = _by_run(_rows_in_range, families, half_mu, todo_bounds)
                trial_eta[todo[ok]], trial_mu[todo[ok]] = half_eta[ok], half_mu[ok]
                todo = todo[~ok]
                if todo.size == 0:
                    break
            leave(todo, "step_halving_exhausted", it)

        eta, mu = trial_eta, trial_mu
        if not np.isfinite(eta).all():
            leave(np.flatnonzero(staying & ~np.isfinite(eta).all(axis=1)),
                  "numerical_breakdown", it)
        # the step on the beta scale is (delta eta_0, delta eta_1 - delta eta_0)
        converged = staying & (np.abs(step[:, 0]) < BETA_TOL) & (
            np.abs(step[:, 1] - step[:, 0]) < BETA_TOL)
        if converged.any():
            rows = live[converged]
            done_at[rows] = it
            for out, value in zip(final, (eta, clamped)):
                out[rows] = value[converged]
            staying &= ~converged

        if not staying.all():
            live, eta, mu = live[staying], eta[staying], mu[staying]
            clamped = clamped[staying]
            consts = [c[staying] for c in consts]
            bounds, keys = live.searchsorted(starts), _arm_keys(live.size, arm)

    for k, r in enumerate(live):
        errors[int(r)] = NonConvergenceError("max_iterations", MAX_ITERATIONS, _arm_beta(eta[k]))

    # at each converged beta: refresh (alpha, phi), then verify the
    # first-order condition
    rows = np.flatnonzero(done_at)
    eta, clamped = (f[rows] for f in final)
    beta = _arm_beta(eta)
    bounds, reps = rows.searchsorted(starts), rows % n_rep
    alpha, phi, clamped, info, score, weights, resid = scoring_pass(
        bounds, eta, _by_run(link_inverse, links, eta, bounds), clamped,
        *(c[reps] for c in all_consts))
    keys = _arm_keys(rows.size, arm)
    # the link's round trip leaves mu_a a rounding away from such an arm's
    # proportion, and its residuals that far from 0
    resid[one_proportion[reps][:, arm]] = 0.0
    w, u = info[:, arm] * weights, score[:, arm] * resid
    W, U = _arm_sums(w, keys), _arm_sums(u, keys)
    # X'u = (U_0 + U_1, U_1)
    U[:, 0] += U[:, 1]
    failed = np.abs(U).max(axis=1) >= SCORE_TOL
    for k in np.flatnonzero(failed):
        r = int(rows[k])
        errors[r] = NonConvergenceError("score_condition_failed", int(done_at[r]), beta[k])
    keep = ~failed
    rows, reps, w, W = rows[keep], reps[keep], w[keep], W[keep]
    return FitBlock(
        models=models,
        n_rep=n_rep,
        arm=arm,
        rows=rows,
        errors=errors,
        beta=beta[keep],
        alpha=alpha[keep],
        phi=phi[keep],
        clamped=clamped[keep],
        iterations=done_at[rows],
        m=sizes[reps],
        s=s[reps],
        w=w,
        u=u[keep],
        h=w / W[:, arm],
        W=W,
    )


def _first_row(name, convert=None, doc=None):
    """A GeeFit property reading the first (only) replicate of its block."""
    def get(self):
        value = getattr(self.block, name)[0]
        return value if convert is None else convert(value)
    return property(get, doc=doc)


@dataclass
class GeeFit:
    """A converged GEE fit: a FitBlock of one model and one replicate, and its trial's cluster ids.

    Per-cluster arrays hold one entry (or row) per cluster, in `cluster_ids` order.
    """

    cluster_ids: tuple
    block: FitBlock

    spec = property(lambda self: self.block.models[0])
    arm = property(lambda self: self.block.arm, doc="arm label")
    beta = _first_row("beta")
    alpha_hat = _first_row("alpha", float)
    phi_hat = _first_row("phi", float)
    iterations = _first_row("iterations", int)
    alpha_clamped = _first_row("clamped", bool)
    m = _first_row("m", doc="cluster size m_i")
    s = _first_row("s", doc="event count s_i = sum_j y_ij")
    w = _first_row("w", doc="working weight: D_i' V_i^{-1} D_i = w_i x_i x_i'")
    u = _first_row("u", doc="score: D_i' V_i^{-1} (y_i - mu_i) = u_i x_i")
    h = _first_row("h", doc="leverage w_i / W_a(i)")
    W = _first_row("W", doc="working information W_a = sum_{i in a} w_i per arm")
    converged = True

    @property
    def n_clusters(self):
        return len(self.cluster_ids)

    @property
    def x(self):
        """Covariate rows x_i = (1, arm_i), (N, 2)."""
        return np.stack([np.ones(len(self.arm)), self.arm], axis=1)

    @property
    def info_sum(self):
        """The information B = sum_i w_i x_i x_i', from the arm totals W_a."""
        W = self.W
        return np.array([[W[0] + W[1], W[1]], [W[1], W[1]]])

    def fitted_arm_means(self):
        """Fitted mean per arm (identical across clusters of an arm)."""
        mu = link_inverse(self.spec.link, _arm_eta(self.beta[None])[0])
        return {0: float(mu[0]), 1: float(mu[1])}


def fit_gee(data, spec):
    """Fit the marginal model by Fisher scoring to one trial: a block of one replicate.

    `data` is the trial's ClusterSums, or a TrialDataset, which is reduced
    to its ClusterSums first.

    Raises
    ------
    NonConvergenceError
        When an arm's mean has no solution, the iteration or step-halving
        budget is exhausted, an arm's working information is 0 or not
        finite, or the final score fails the first-order condition. The
        exception carries the iteration count, the last coefficient vector
        (None for empty_arm), and a reason tag; simulation code counts these
        events as the convergence-rate outcome.
    """
    if isinstance(data, TrialDataset):
        data = data.cluster_sums()
    block = fit_block(data.arm, data.m[None], data.s[None], (spec,))
    if block.errors:
        raise block.errors[0]
    return GeeFit(cluster_ids=data.ids, block=block)
