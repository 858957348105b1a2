"""GEE fitting: closed-form solutions, moment estimators, and failure modes."""

import itertools

import numpy as np
import pytest

import crtgee.gee
from crtgee import (
    Cluster,
    ClusterSums,
    DataError,
    Family,
    Link,
    ModelSpec,
    NonConvergenceError,
    TrialDataset,
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
from crtgee.gee import fit_block

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


def test_weighted_mean_solution_at_alpha_hat():
    # with cluster-constant covariates and a given alpha the estimating
    # equation has the closed form g^{-1}(eta_a) = weighted arm mean with
    # weights m_i / (1 + (m_i - 1) alpha); the fit solves it at its own alpha_hat
    data = dataset(
        [
            (0, [1, 0, 0]),
            (0, [1, 1, 0, 0, 0]),
            (1, [1, 1, 0]),
            (1, [1, 1, 1, 0]),
        ]
    )
    for spec in ALL_SPECS:
        fit = fit_gee(data, spec)
        alpha = fit.alpha_hat
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
    # size-1 clusters leave no within-cluster pairs, so alpha_hat is 0 and
    # the fit is the independence fit: its arm means are the arm proportions
    data = dataset([(0, [1]), (0, [0]), (0, [1]), (1, [1]), (1, [1]), (1, [0])])
    summary = data.arm_summary()
    for spec in ALL_SPECS:
        fit = fit_gee(data, spec)
        assert fit.alpha_hat == 0.0
        means = fit.fitted_arm_means()
        for arm in (0, 1):
            assert means[arm] == pytest.approx(summary[arm]["proportion"], abs=1e-10)


def test_a_trial_and_its_cluster_sums_fit_alike():
    data = dataset([(0, [1, 0, 1]), (0, [0]), (1, [1, 1]), (1, [0, 1, 0, 0])])
    sums = ClusterSums(ids=(0, 1, 2, 3), arm=[0, 0, 1, 1], m=[3, 1, 2, 4], s=[2, 0, 2, 1])
    assert data.arm_summary() == sums.arm_summary()
    for spec in ALL_SPECS:
        got, want = fit_gee(sums, spec), fit_gee(data, spec)
        assert got.cluster_ids == want.cluster_ids == (0, 1, 2, 3)
        assert (got.beta.tolist(), got.alpha_hat) == (want.beta.tolist(), want.alpha_hat)


@pytest.mark.parametrize("fields, message", [
    (((0,), [0], [1], [1]), "a trial needs at least two clusters"),
    (((0, 1), [0, 1], [1], [1, 1]), "one entry per cluster"),
    (((0, 1), [1, 1], [1, 1], [1, 1]), "both arms must be represented"),
    (((0, 1), [0, 2], [1, 1], [1, 0]), "cluster 1: needs arm 0 or 1, .* got arm 2"),
    (((0, 1), [0, 1], [2, 0], [1, 0]), "cluster 1: needs .* got arm 1, m 0, s 0"),
    ((("a", "b"), [0, 1], [2, 1], [3, 1]), "cluster 'a': needs .* got arm 0, m 2, s 3"),
])
def test_cluster_sums_reject_what_no_trial_holds(fields, message):
    with pytest.raises(DataError, match=message):
        ClusterSums(*fields)


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


def test_nonconvergence_zero_event_arm_log_link():
    # a zero-event arm puts the log-link arm mean at zero, where the link
    # is undefined; the fit must raise at once rather than iterate toward it
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
    assert (err.reason, err.iterations, err.last_beta) == ("empty_arm", 0, None)


def test_all_event_arm_has_no_binomial_solution_but_a_poisson_one():
    # an arm with only events puts the binomial variance mu (1 - mu) at 0
    # under every link; the Poisson and Gaussian variances are positive at
    # mu = 1, and those fits converge
    data = dataset([(0, [1, 1, 1]), (0, [1, 1]), (1, [1, 0, 0]), (1, [0, 1, 0, 0])])
    for spec in ALL_SPECS:
        if spec.family is Family.BINOMIAL:
            with pytest.raises(NonConvergenceError) as exc:
                fit_gee(data, spec)
            assert (exc.value.reason, exc.value.iterations) == ("empty_arm", 0), spec.label()
        else:
            assert fit_gee(data, spec).fitted_arm_means()[0] == pytest.approx(1.0, abs=1e-9)


def test_only_a_poisson_fit_starts_an_all_event_arm_below_one():
    # replicate 6's control arm has only events; the Gaussian fit starts it
    # at its proportion, 1, and a start at 1 - 0.5 / n (the Poisson clamp)
    # would end it at beta_1 = -0.08625931397...
    sc = Scenario(n_clusters=6, sizes=GammaSize(5, 0.8), pi0=0.8, pi1=0.8, icc=0.05, seed=3)
    m, s = generate_block(sc, [6])
    fits = fit_block(trial_arms(6), m, s, ALL_SPECS)
    gaussian = ALL_SPECS.index(ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    assert list(fits.rows) == [ALL_SPECS.index(ModelSpec(Family.POISSON, Link.LOG)),
                               ALL_SPECS.index(ModelSpec(Family.POISSON, Link.IDENTITY)),
                               gaussian]
    assert fits.beta[-1].tolist() == pytest.approx([1.0, -0.08625931369695287], rel=1e-12)


def test_nonconvergence_iteration_budget(monkeypatch):
    # unequal cluster sizes keep the one-step solution away from the
    # arm-proportion starting values, so a budget of one must fail
    sc = Scenario(n_clusters=10, sizes=GammaSize(10, 0.8), pi0=0.3, pi1=0.3, icc=0.1, seed=11)
    data = generate_trial(sc, 0)
    monkeypatch.setattr(crtgee.gee, "MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergenceError) as exc:
        fit_gee(data, ModelSpec(Family.BINOMIAL, Link.LOGIT))
    assert exc.value.reason == "max_iterations"
    assert exc.value.iterations == 1


def test_zero_event_arm_fails_alike_in_every_cluster_order():
    # (arm, events, size): the control arm has no events, so under every
    # binomial and Poisson link its mean has no solution; whatever the
    # order in which the clusters are summed, each order fails at once
    trial = [(0, 0, 8), (0, 0, 8), (0, 0, 6), (1, 2, 18), (1, 0, 25), (1, 1, 17)]
    by_arms = {}
    for order in itertools.permutations(trial):
        arms, events, sizes = zip(*order)
        by_arms.setdefault(arms, []).append((sizes, events))
    for spec in [spec for spec in ALL_SPECS if spec.family is not Family.GAUSSIAN]:
        reasons = []
        for arms, orders in by_arms.items():
            m, s = (np.array(a) for a in zip(*orders))
            block = fit_block(np.array(arms), m, s, (spec,))
            assert block.rows.size == 0
            reasons += [(err.reason, err.iterations) for err in block.errors.values()]
        assert reasons == [("empty_arm", 0)] * 720, spec.label()


def test_failing_replicate_leaves_the_rest_of_its_block_alone(monkeypatch):
    # in the first scoring pass replicate 0's control arm gets no working
    # information (W_0 = 0) and replicate 1's treated arm a NaN: each fails
    # with its own reason, and replicate 2 fits as it does alone
    sc = Scenario(n_clusters=8, sizes=FixedSize(6), pi0=0.3, pi1=0.3, icc=0.05, seed=3)
    m, s = generate_block(sc, range(3))
    arm = trial_arms(8)
    spec = ModelSpec(Family.BINOMIAL, Link.LOGIT)
    alone = fit_block(arm, m[2:], s[2:], (spec,))
    deriv = crtgee.gee.link_mu_deriv

    def broken(link, eta):
        d = deriv(link, eta)
        if len(d) == 3:
            d[0, 0], d[1, 1] = 0.0, np.nan
        return d

    monkeypatch.setattr(crtgee.gee, "link_mu_deriv", broken)
    block = fit_block(arm, m, s, (spec,))
    assert [(block.errors[k].reason, block.errors[k].iterations) for k in (0, 1)] == [
        ("singular_information", 1), ("numerical_breakdown", 1)]
    assert list(block.rows) == [2]
    assert np.array_equal(block.beta, alone.beta)
    assert np.array_equal(block.iterations, alone.iterations)


def test_alpha_cycle_runs_the_budget_out(monkeypatch):
    # (arm, events, size): under gaussian-identity alpha alternates between
    # its negative clamp and about -0.066, and beta after iteration 7
    # equals beta after iteration 5 to rounding (the arm sums leave the
    # cycle's iterates a last-bit wobble, up to 4.4e-16); a scoring step
    # depends on beta alone, so every budget ends on the period-2 cycle's
    # iterate, and the cycle's two iterates are 0.036 apart
    trial = [(0, 6, 14), (0, 5, 10), (0, 4, 7), (1, 2, 13), (1, 1, 5), (1, 4, 15)]
    data = dataset([(arm, [1] * s + [0] * (m - s)) for arm, s, m in trial])
    spec = ModelSpec(Family.GAUSSIAN, Link.IDENTITY)

    def last_beta(budget):
        monkeypatch.setattr(crtgee.gee, "MAX_ITERATIONS", budget)
        with pytest.raises(NonConvergenceError) as exc:
            fit_gee(data, spec)
        assert exc.value.reason == "max_iterations"
        assert exc.value.iterations == budget
        return exc.value.last_beta

    betas = {k: last_beta(k) for k in range(1, 51)}
    assert np.abs(np.subtract(betas[5], betas[6])).max() > 1e-3
    for k in range(7, 51):
        assert np.abs(np.subtract(betas[k], betas[k - 2])).max() <= 1e-15, k


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
