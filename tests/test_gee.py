"""GEE fitting: closed-form solutions, moment estimators, and failure modes."""

import itertools
import math

import numpy as np
import pytest

import crtgee.gee
from crtgee import (
    Cluster,
    Family,
    Link,
    ModelSpec,
    NonConvergenceError,
    TrialDataset,
    UsageError,
    WorkingCorrelation,
    alpha_bounds,
    estimate_alpha_phi,
    fit_gee,
    generate_trial,
    FixedSize,
    GammaSize,
    Scenario,
    substream,
)
from crtgee.datagen import generate_block, trial_arms
from crtgee.families import link_apply, link_inverse, link_mu_deriv, variance_function
from crtgee.gee import _initial_beta, fit_block

ALL_SPECS = [
    ModelSpec(Family.BINOMIAL, Link.LOG),
    ModelSpec(Family.BINOMIAL, Link.IDENTITY),
    ModelSpec(Family.BINOMIAL, Link.LOGIT),
    ModelSpec(Family.POISSON, Link.LOG),
    ModelSpec(Family.POISSON, Link.IDENTITY),
    ModelSpec(Family.GAUSSIAN, Link.IDENTITY),
]


def dataset(arm_outcomes):
    """Build a TrialDataset from [(arm, [0/1, ...]), ...]."""
    clusters = [
        Cluster(id=i, arm=arm, outcomes=np.array(y, dtype=float))
        for i, (arm, y) in enumerate(arm_outcomes)
    ]
    return TrialDataset(tuple(clusters))


def simulated(n_clusters=10, m=20, pi0=0.3, pi1=0.3, icc=0.05, seed=7, rep=0):
    sc = Scenario(n_clusters=n_clusters, sizes=FixedSize(m), pi0=pi0, pi1=pi1, icc=icc, seed=seed)
    return generate_trial(sc, rep)


def test_weighted_mean_solution_with_fixed_alpha():
    # with cluster-constant covariates and fixed alpha the estimating
    # equation has the closed form g^{-1}(eta_a) = weighted arm mean with
    # weights m_i / (1 + (m_i - 1) alpha)
    data = dataset(
        [
            (0, [1, 0, 0]),
            (0, [1, 1, 0, 0, 0]),
            (1, [1, 1, 0]),
            (1, [1, 1, 1, 0]),
        ]
    )
    alpha = 0.3
    for spec in ALL_SPECS:
        fit = fit_gee(data, spec, WorkingCorrelation.exchangeable(alpha=alpha))
        means = fit.fitted_arm_means()
        for arm in (0, 1):
            num = den = 0.0
            for c in data.clusters:
                if c.arm != arm:
                    continue
                w = c.size / (1.0 + (c.size - 1) * alpha)
                num += w * c.outcomes.mean()
                den += w
            assert means[arm] == pytest.approx(num / den, abs=1e-9)
        assert fit.alpha_hat == alpha


def test_equal_sizes_recover_arm_proportions_exactly():
    # equal cluster sizes make the weights constant, so the fitted arm
    # means equal the raw arm proportions under every link
    data = dataset(
        [
            (0, [1, 0, 0, 0]),
            (0, [1, 1, 0, 0]),
            (1, [1, 1, 1, 0]),
            (1, [1, 0, 0, 0]),
        ]
    )
    summary = data.arm_summary()
    for spec in ALL_SPECS:
        fit = fit_gee(data, spec)
        means = fit.fitted_arm_means()
        assert means[0] == pytest.approx(summary[0]["proportion"], abs=1e-9)
        assert means[1] == pytest.approx(summary[1]["proportion"], abs=1e-9)
        g0 = link_apply(spec.link, summary[0]["proportion"])
        g1 = link_apply(spec.link, summary[1]["proportion"])
        assert fit.beta[0] == pytest.approx(g0, abs=1e-8)
        assert fit.beta[1] == pytest.approx(g1 - g0, abs=1e-8)


def test_singleton_clusters_match_independence_fit():
    # size-1 clusters leave no within-cluster pairs, so the exchangeable
    # fit must coincide with the independence fit
    data = dataset([(0, [1]), (0, [0]), (0, [1]), (1, [1]), (1, [1]), (1, [0])])
    spec = ModelSpec(Family.BINOMIAL, Link.LOGIT)
    exch = fit_gee(data, spec)
    indep = fit_gee(data, spec, WorkingCorrelation.independence())
    assert np.allclose(exch.beta, indep.beta, atol=1e-10)
    assert exch.alpha_hat == 0.0


def test_estimate_alpha_phi_hand_oracle():
    # residual clusters [1, -1] and [2, 0, 1] with p = 2, passed as their
    # (sum, sum of squares) pairs (0, 2) and (3, 5):
    # phi = (1 + 1 + 4 + 0 + 1) / (5 - 2) = 7/3
    # pairwise cross-products: (1)(-1) = -1; (2*0 + 2*1 + 0*1) = 2; total 1
    # pairs = 1 + 3 = 4, so alpha = (1 / (4 - 2)) / phi = 0.5 / (7/3) = 3/14
    est = estimate_alpha_phi([0.0, 3.0], [2.0, 5.0], [2, 3], n_params=2)
    assert est.phi == pytest.approx(7.0 / 3.0, abs=1e-15)
    assert est.alpha == pytest.approx(3.0 / 14.0, abs=1e-15)
    assert not est.clamped


def test_estimate_alpha_phi_clamps_at_upper_bound():
    # identical residuals within each cluster, [2, 2, 2] and
    # [-1.5, -1.5, -1.5], push the raw alpha past 1
    est = estimate_alpha_phi([6.0, -4.5], [12.0, 6.75], [3, 3], n_params=1)
    lo, hi = alpha_bounds(3)
    assert est.clamped
    assert est.alpha == hi


def test_estimate_alpha_phi_all_singletons():
    # residual clusters [1] and [-2]
    est = estimate_alpha_phi([1.0, -2.0], [1.0, 4.0], [1, 1], n_params=1)
    assert est.alpha == 0.0
    assert est.phi == pytest.approx(5.0, abs=1e-15)


def test_alpha_bounds_shrink_with_cluster_size():
    lo3, hi = alpha_bounds(3)
    lo6, _ = alpha_bounds(6)
    assert lo3 == pytest.approx(-0.5, abs=1e-5)
    assert lo6 == pytest.approx(-0.2, abs=1e-5)
    assert hi < 1.0


def test_initialize_beta_floors_zero_event_arm():
    data = dataset([(0, [0, 0, 0]), (0, [0, 0]), (1, [1, 0, 1]), (1, [1, 1])])
    spec = ModelSpec(Family.BINOMIAL, Link.LOG)
    arm = np.array([c.arm for c in data.clusters])
    m = np.array([[c.size for c in data.clusters]])
    s = np.array([[c.outcomes.sum() for c in data.clusters]])
    beta = _initial_beta(arm, m, s, spec)[0]
    floor = 0.5 / data.n_obs
    assert beta[0] == pytest.approx(math.log(floor), abs=1e-12)
    assert np.all(np.isfinite(beta))


def test_fixed_alpha_out_of_range_rejected():
    data = simulated()
    for bad in (1.01, 0.9999999, -0.5):
        with pytest.raises(UsageError):
            fit_gee(data, ModelSpec(Family.BINOMIAL, Link.LOGIT), WorkingCorrelation.exchangeable(alpha=bad))


def test_nonconvergence_zero_event_arm_log_link():
    # a zero-event arm sends the log-link arm mean toward zero; the fit
    # must raise rather than return a divergent solution
    data = dataset(
        [
            (0, [0, 0, 0, 0]),
            (0, [0, 0, 0, 0]),
            (1, [1, 0, 1, 0]),
            (1, [1, 1, 0, 0]),
        ]
    )
    with pytest.raises(NonConvergenceError) as exc:
        fit_gee(data, ModelSpec(Family.BINOMIAL, Link.LOG))
    err = exc.value
    assert err.reason in {
        "max_iterations",
        "step_halving_exhausted",
        "score_condition_failed",
        "singular_information",
        "numerical_breakdown",
    }
    assert err.iterations >= 1
    assert all(math.isfinite(b) for b in err.last_beta)


def test_nonconvergence_iteration_budget():
    # unequal cluster sizes keep the one-step solution away from the
    # arm-proportion starting values, so a budget of one must fail
    sc = Scenario(n_clusters=10, sizes=GammaSize(10, 0.8), pi0=0.3, pi1=0.3, icc=0.1, seed=11)
    data = generate_trial(sc, 0)
    with pytest.raises(NonConvergenceError) as exc:
        fit_gee(data, ModelSpec(Family.BINOMIAL, Link.LOGIT), max_iter=1)
    assert exc.value.reason == "max_iterations"
    assert exc.value.iterations == 1


def test_zero_event_arm_fails_alike_in_every_cluster_order():
    # (arm, events, size): the control arm has no events, so under log and
    # logit links its mean has no finite solution; each scoring step moves
    # the arm's linear predictor by about -1, whatever the order in which
    # the clusters are summed, and every order runs the budget out
    trial = [(0, 0, 8), (0, 0, 8), (0, 0, 6), (1, 2, 18), (1, 0, 25), (1, 1, 17)]
    by_arms = {}
    for order in itertools.permutations(trial):
        arms, events, sizes = zip(*order)
        by_arms.setdefault(arms, []).append((sizes, events))
    for spec in (ModelSpec(Family.POISSON, Link.LOG), ModelSpec(Family.BINOMIAL, Link.LOG),
                 ModelSpec(Family.BINOMIAL, Link.LOGIT)):
        reasons = []
        for arms, orders in by_arms.items():
            m, s = (np.array(a) for a in zip(*orders))
            block = fit_block(np.array(arms), m, s, spec)
            assert block.rows.size == 0
            reasons += [err.reason for err in block.errors.values()]
        assert reasons == ["max_iterations"] * 720, spec.label()


def test_failing_replicate_leaves_the_rest_of_its_block_alone(monkeypatch):
    # in the first scoring pass replicate 0's control arm gets no working
    # information (W_0 = 0) and replicate 1's treated arm a NaN: each fails
    # with its own reason, and replicate 2 fits as it does alone
    sc = Scenario(n_clusters=8, sizes=FixedSize(6), pi0=0.3, pi1=0.3, icc=0.05, seed=3)
    m, s = generate_block(sc, range(3))
    arm = trial_arms(8)
    spec = ModelSpec(Family.BINOMIAL, Link.LOGIT)
    alone = fit_block(arm, m[2:], s[2:], spec)
    deriv = crtgee.gee.link_mu_deriv

    def broken(link, eta):
        d = deriv(link, eta)
        if len(d) == 3:
            d[0, 0], d[1, 1] = 0.0, np.nan
        return d

    monkeypatch.setattr(crtgee.gee, "link_mu_deriv", broken)
    block = fit_block(arm, m, s, spec)
    assert [(block.errors[k].reason, block.errors[k].iterations) for k in (0, 1)] == [
        ("singular_information", 1), ("numerical_breakdown", 1)]
    assert list(block.rows) == [2]
    assert np.array_equal(block.beta, alone.beta)
    assert np.array_equal(block.iterations, alone.iterations)


def test_exact_cycle_is_cut_short_with_the_full_budget_outcome(monkeypatch):
    # (arm, events, size): under gaussian-identity alpha alternates between
    # its negative clamp and about -0.066, and beta after iteration 7
    # equals beta after iteration 5 bit for bit
    trial = [(0, 6, 14), (0, 5, 10), (0, 4, 7), (1, 2, 13), (1, 1, 5), (1, 4, 15)]
    data = dataset([(arm, [1] * s + [0] * (m - s)) for arm, s, m in trial])
    spec = ModelSpec(Family.GAUSSIAN, Link.IDENTITY)

    def last_beta(max_iter):
        with pytest.raises(NonConvergenceError) as exc:
            fit_gee(data, spec, max_iter=max_iter)
        assert exc.value.reason == "max_iterations"
        assert exc.value.iterations == max_iter
        return exc.value.last_beta

    # budgets below 7 compute every iterate; larger ones must report the
    # iterate that continues the period-2 cycle those iterates trace out
    betas = {k: last_beta(k) for k in range(1, 51)}
    assert betas[5] != betas[6]
    for k in range(7, 51):
        assert betas[k] == betas[k - 2]

    # each scoring pass evaluates dmu/deta once at the live iterates; the
    # converged-fit refresh after the loop sees no rows here
    passes = []
    deriv = crtgee.gee.link_mu_deriv
    monkeypatch.setattr(crtgee.gee, "link_mu_deriv",
                        lambda link, eta: passes.append(eta.size) or deriv(link, eta))
    last_beta(50)
    assert len([n for n in passes if n]) == 7


def test_converged_fit_satisfies_estimating_equation():
    data = simulated(n_clusters=12, m=9, pi0=0.25, icc=0.1, seed=5)
    for spec in ALL_SPECS:
        fit = fit_gee(data, spec)
        assert fit.converged
        # rebuild the score densely from raw data at the solution
        score = np.zeros(2)
        for c in data.clusters:
            x = np.array([1.0, float(c.arm)])
            eta = float(x @ fit.beta)
            mu = float(link_inverse(spec.link, eta))
            v = float(variance_function(spec.family, np.array([mu]))[0])
            r = np.ones((c.size, c.size)) * fit.alpha_hat + (1 - fit.alpha_hat) * np.eye(c.size)
            vinv = np.linalg.inv(np.sqrt(v) * r * np.sqrt(v))
            d = float(link_mu_deriv(spec.link, eta)) * np.outer(np.ones(c.size), x)
            score += d.T @ vinv @ (c.outcomes - mu)
        assert np.max(np.abs(score)) < 1e-4


def test_cluster_caches_match_dense_algebra():
    # the per-cluster weight w_i and score u_i are the scalar forms of the
    # dense D_i' V_i^{-1} D_i = w_i x_i x_i' and D_i' V_i^{-1} (y_i - mu_i) = u_i x_i
    data = simulated(n_clusters=8, m=6, seed=19)
    spec = ModelSpec(Family.BINOMIAL, Link.LOGIT)
    fit = fit_gee(data, spec)
    total = np.zeros((2, 2))
    for i, c in enumerate(data.clusters):
        m = c.size
        assert (fit.arm[i], fit.m[i], fit.s[i]) == (c.arm, m, c.outcomes.sum())
        x = np.array([1.0, float(c.arm)])
        eta = float(x @ fit.beta)
        mu = float(link_inverse(spec.link, eta))
        v = float(variance_function(spec.family, np.array([mu]))[0])
        r = np.ones((m, m)) * fit.alpha_hat + (1 - fit.alpha_hat) * np.eye(m)
        vinv = np.linalg.inv(np.sqrt(v) * r * np.sqrt(v))
        d = float(link_mu_deriv(spec.link, eta)) * np.outer(np.ones(m), x)
        info = d.T @ vinv @ d
        assert np.allclose(fit.w[i] * np.outer(x, x), info, atol=1e-10)
        assert np.allclose(fit.u[i] * x, d.T @ vinv @ (c.outcomes - mu), atol=1e-10)
        total += info
    assert np.allclose(fit.info_sum, total, atol=1e-10)


def test_alpha_recovery_on_simulated_data():
    # average alpha-hat over replicates should sit near the generating ICC
    sc = Scenario(n_clusters=30, sizes=FixedSize(40), pi0=0.3, pi1=0.3, icc=0.1, seed=13)
    spec = ModelSpec(Family.BINOMIAL, Link.LOGIT)
    alphas = []
    for rep in range(60):
        fit = fit_gee(generate_trial(sc, rep), spec)
        alphas.append(fit.alpha_hat)
    assert abs(float(np.mean(alphas)) - 0.1) < 0.02


def test_gaussian_identity_always_converges_quickly():
    data = simulated(seed=23)
    fit = fit_gee(data, ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    assert fit.converged
    assert fit.iterations <= 5


def test_substream_reproducibility():
    a = substream(99, 4, 17)
    b = substream(99, 4, 17)
    c = substream(99, 4, 18)
    assert a.normal() == b.normal()
    assert a.normal() != c.normal()
