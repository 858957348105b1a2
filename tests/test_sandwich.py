"""Variance estimators against dense scipy oracles and closed-form identities."""

import dataclasses

import numpy as np
import pytest

from crtgee import (
    Cluster,
    CorrectionSingularityError,
    EstimatorKind,
    Family,
    FixedSize,
    GammaSize,
    Link,
    ModelSpec,
    NonConvergenceError,
    Scenario,
    TrialDataset,
    UnsupportedDesignError,
    UsageError,
    compute_estimates,
    estimate_block,
    fit_gee,
    generate_trial,
)

from crtgee.families import link_inverse, link_mu_deriv, variance_function
from crtgee.gee import fit_block

from _dense_oracle import (
    alpha_bounds,
    covariates,
    dense_estimates,
    identity_gap,
    information,
    mp_sandwiches,
    rel_err,
)

KIND_NAMES = {
    EstimatorKind.MB: "mb",
    EstimatorKind.ROBUST: "robust",
    EstimatorKind.KC: "kc",
    EstimatorKind.MD: "md",
    EstimatorKind.FG: "fg",
    EstimatorKind.MBN: "mbn",
    EstimatorKind.AVG: "avg",
}

ALL_SPECS = [
    ModelSpec(Family.BINOMIAL, Link.LOG),
    ModelSpec(Family.BINOMIAL, Link.IDENTITY),
    ModelSpec(Family.BINOMIAL, Link.LOGIT),
    ModelSpec(Family.POISSON, Link.LOG),
    ModelSpec(Family.POISSON, Link.IDENTITY),
    ModelSpec(Family.GAUSSIAN, Link.IDENTITY),
]


def simulated(n_clusters=10, m=12, pi0=0.3, icc=0.05, seed=101, rep=0):
    sc = Scenario(n_clusters=n_clusters, sizes=FixedSize(m), pi0=pi0, pi1=pi0, icc=icc, seed=seed)
    return generate_trial(sc, rep)


def two_cluster_trial():
    return TrialDataset(
        (
            Cluster(id="a", arm=0, outcomes=np.array([1.0, 0.0, 0.0])),
            Cluster(id="b", arm=1, outcomes=np.array([1.0, 1.0, 0.0])),
        )
    )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_all_estimators_match_dense_oracle(spec):
    data = simulated(n_clusters=8, m=7, seed=41)
    fit = fit_gee(data, spec)
    got = compute_estimates(fit)
    want = dense_estimates(
        data, spec.family.value, spec.link.value, fit.beta, fit.alpha_hat, fit.phi_hat
    )
    for kind, est in got.items():
        assert rel_err(est.cov, want[KIND_NAMES[kind]]) < 1e-10, kind


def test_sandwiches_at_the_lower_alpha_clamp_match_mpmath():
    # at the lower alpha bound the largest cluster's leverage is within
    # about 1e-5 of 1; robust, KC and MD must still match a 60-digit
    # evaluation of B^{-1} (sum_i c_i^2 u_i^2 x_i x_i') B^{-1} to 1e-9
    sc = Scenario(n_clusters=6, sizes=GammaSize(10, 0.5), pi0=0.1, pi1=0.1, icc=0.05, seed=11)
    kinds = (EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD)
    compared = 0
    for rep in range(100):
        data = generate_trial(sc, rep)
        lower, _ = alpha_bounds(max(c.size for c in data.clusters))
        for spec in ALL_SPECS:
            try:
                fit = fit_gee(data, spec)
            except NonConvergenceError:
                continue
            if fit.alpha_hat != lower:
                continue
            want = mp_sandwiches(data, spec.family.value, spec.link.value, fit.beta,
                                 fit.alpha_hat)
            for kind, est in compute_estimates(fit, kinds).items():
                assert rel_err(est.cov, want[kind.value]) < 1e-9, (rep, spec.label(), kind)
            compared += 1
    assert compared >= 40


def test_kc_md_match_observation_space_leverage_form():
    # the score-space multipliers must agree with the classical
    # D'V^{-1}(I - H_i)^{-1/2}(y - mu) residual form, cluster by cluster
    data = simulated(n_clusters=6, m=5, seed=77)
    fit = fit_gee(data, ModelSpec(Family.BINOMIAL, Link.LOGIT))
    got = compute_estimates(fit, kinds=(EstimatorKind.KC, EstimatorKind.MD))
    want = dense_estimates(
        data, "binomial", "logit", fit.beta, fit.alpha_hat, fit.phi_hat
    )
    assert rel_err(got[EstimatorKind.KC].cov, want["kc_resid"]) < 1e-10
    assert rel_err(got[EstimatorKind.MD].cov, want["md_resid"]) < 1e-10


def test_leverage_factors_sum_to_identity():
    data = simulated(n_clusters=12, m=4, seed=3)
    fit = fit_gee(data, ModelSpec(Family.POISSON, Link.LOG))
    assert np.max(np.abs(identity_gap(fit))) < 1e-10
    assert 0.0 < fit.h.max() < 1.0
    assert np.all(fit.h > 0.0)
    assert np.all(fit.h < 1.0)
    # each arm's leverages are its clusters' shares of the arm's information
    for arm in (0, 1):
        assert float(np.sum(fit.h[fit.arm == arm])) == pytest.approx(1.0, abs=1e-12)


def test_leverage_is_the_nonzero_eigenvalue_of_dense_q():
    # Q_i = B_i B^{-1} built densely from each cluster's m x m working
    # covariance has rank one; its nonzero eigenvalue is the closed-form h_i
    data = simulated(n_clusters=8, m=6, seed=7)
    for spec in ALL_SPECS:
        fit = fit_gee(data, spec)
        pieces = []
        for c in data.clusters:
            m = c.size
            x = np.array([1.0, float(c.arm)])
            eta = float(x @ fit.beta)
            mu = float(link_inverse(spec.link, eta))
            v = float(variance_function(spec.family, np.array([mu]))[0])
            r = np.ones((m, m)) * fit.alpha_hat + (1 - fit.alpha_hat) * np.eye(m)
            d = float(link_mu_deriv(spec.link, eta)) * np.outer(np.ones(m), x)
            pieces.append(d.T @ np.linalg.inv(v * r) @ d)
        binv = np.linalg.inv(sum(pieces))
        for bi, h in zip(pieces, fit.h):
            vals = np.sort(np.linalg.eigvals(bi @ binv).real)
            assert abs(vals[0]) < 1e-12
            assert vals[1] == pytest.approx(h, rel=1e-10)


def test_equal_sizes_scalar_identities():
    # equal cluster sizes give every cluster of an N/2-cluster arm the same
    # leverage h_i = 2/N, so KC and MD are exact scalar inflations of the
    # robust matrix, by N/(N-2) and (N/(N-2))^2
    data = simulated(n_clusters=10, m=6, seed=59)
    for spec in ALL_SPECS:
        fit = fit_gee(data, spec)
        n = fit.n_clusters
        got = compute_estimates(
            fit, kinds=(EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD)
        )
        v_rob = got[EstimatorKind.ROBUST].cov
        assert rel_err(got[EstimatorKind.KC].cov, v_rob * n / (n - 2)) < 1e-12, spec.label()
        assert rel_err(got[EstimatorKind.MD].cov, v_rob * (n / (n - 2)) ** 2) < 1e-12, spec.label()


def test_fg_cap_engages_on_dominant_cluster():
    # one huge cluster against tiny ones pushes its leverage diagonal
    # past the cap, so the bounded and unbounded FG must differ
    data = TrialDataset(
        (
            Cluster(id=0, arm=0, outcomes=np.array([1.0] * 12 + [0.0] * 28)),
            Cluster(id=1, arm=0, outcomes=np.array([1.0, 0.0])),
            Cluster(id=2, arm=1, outcomes=np.array([1.0, 1.0, 0.0])),
            Cluster(id=3, arm=1, outcomes=np.array([0.0, 1.0])),
        )
    )
    fit = fit_gee(data, ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    assert float(np.max(fit.h)) > 0.75
    capped = compute_estimates(fit, (EstimatorKind.FG,), fg_bound=0.75)[EstimatorKind.FG]
    loose = compute_estimates(fit, (EstimatorKind.FG,), fg_bound=0.999999)[EstimatorKind.FG]
    assert capped.cov[1, 1] < loose.cov[1, 1]


def test_fg_bound_validation():
    data = simulated(seed=5)
    fit = fit_gee(data, ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(UsageError):
            compute_estimates(fit, (EstimatorKind.FG,), fg_bound=bad)


def test_hc0_reduction_with_singleton_clusters():
    # every cluster of size one turns the robust sandwich into the
    # classical HC0 heteroscedasticity-consistent OLS covariance
    rng = np.random.default_rng(15)
    clusters = [
        Cluster(id=i, arm=i % 2, outcomes=np.array([float(rng.integers(0, 2))]))
        for i in range(30)
    ]
    data = TrialDataset(tuple(clusters))
    fit = fit_gee(data, ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    X = np.array([[1.0, float(c.arm)] for c in data.clusters])
    y = np.array([float(c.outcomes[0]) for c in data.clusters])
    resid = y - X @ fit.beta
    bread = np.linalg.inv(X.T @ X)
    hc0 = bread @ (X.T * resid**2) @ X @ bread
    rob = compute_estimates(fit, (EstimatorKind.ROBUST,))[EstimatorKind.ROBUST]
    assert rel_err(rob.cov, hc0) < 1e-10


def test_model_based_matches_ols_covariance():
    rng = np.random.default_rng(16)
    clusters = [
        Cluster(id=i, arm=i % 2, outcomes=np.array([float(rng.integers(0, 2))]))
        for i in range(24)
    ]
    data = TrialDataset(tuple(clusters))
    fit = fit_gee(data, ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    X = np.array([[1.0, float(c.arm)] for c in data.clusters])
    y = np.array([float(c.outcomes[0]) for c in data.clusters])
    resid = y - X @ fit.beta
    sigma2 = float(resid @ resid) / (len(y) - 2)
    ols = sigma2 * np.linalg.inv(X.T @ X)
    mb = compute_estimates(fit, (EstimatorKind.MB,))[EstimatorKind.MB]
    assert rel_err(mb.cov, ols) < 1e-10


def test_mbn_arithmetic_pieces():
    # N = 10 clusters of 10 observations: c = (99/98)(10/9), delta = 0.25
    data = simulated(n_clusters=10, m=10, seed=91)
    fit = fit_gee(data, ModelSpec(Family.BINOMIAL, Link.LOGIT))
    est = compute_estimates(fit, (EstimatorKind.MBN,))[EstimatorKind.MBN]
    c = (99.0 / 98.0) * (10.0 / 9.0)
    delta = 0.25
    binv = np.linalg.inv(information(fit))
    meat = sum(np.outer(s, s) for s in fit.u[:, None] * covariates(fit.arm))
    phi_mbn = max(1.0, float(np.trace(c * (binv @ meat))) / 2.0)
    want = c * (binv @ meat @ binv) + delta * phi_mbn * binv
    assert est.diagnostics["mbn_phi"] == pytest.approx(phi_mbn, rel=1e-12)
    assert rel_err(est.cov, (want + want.T) / 2.0) < 1e-12
    assert phi_mbn >= 1.0


def test_mbn_delta_saturates_at_half_for_small_n():
    data = simulated(n_clusters=4, m=8, seed=29)
    fit = fit_gee(data, ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    est = compute_estimates(fit, (EstimatorKind.MBN,))[EstimatorKind.MBN]
    binv = np.linalg.inv(information(fit))
    meat = sum(np.outer(s, s) for s in fit.u[:, None] * covariates(fit.arm))
    total_obs = data.n_obs
    c = ((total_obs - 1) / (total_obs - 2)) * (4.0 / 3.0)
    phi_mbn = est.diagnostics["mbn_phi"]
    # N = 4 puts 2/(N-2) = 1 above the 0.5 ceiling
    want = c * (binv @ meat @ binv) + 0.5 * phi_mbn * binv
    assert rel_err(est.cov, (want + want.T) / 2.0) < 1e-12


def test_mbn_rejects_two_clusters():
    fit = fit_gee(two_cluster_trial(), ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    with pytest.raises(UnsupportedDesignError):
        compute_estimates(fit, (EstimatorKind.MBN,))


def test_two_clusters_make_kc_and_md_singular():
    # with one cluster per arm the two leverage matrices are
    # complementary projections, so I - Q_i is exactly singular
    fit = fit_gee(two_cluster_trial(), ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    assert fit.h.max() == pytest.approx(1.0, abs=1e-10)
    for kind in (EstimatorKind.KC, EstimatorKind.MD):
        with pytest.raises(CorrectionSingularityError):
            compute_estimates(fit, (kind,))
    # robust and FG remain computable
    compute_estimates(fit, (EstimatorKind.ROBUST, EstimatorKind.FG))


def test_se_ordering_robust_kc_md():
    # whenever every Q_i eigenvalue is below one, the arm-effect variance
    # is ordered robust <= KC <= MD, with AVG between KC and MD
    for seed in range(20):
        data = simulated(n_clusters=8, m=10, seed=200 + seed)
        fit = fit_gee(data, ModelSpec(Family.BINOMIAL, Link.LOGIT))
        got = compute_estimates(
            fit,
            kinds=(EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD, EstimatorKind.AVG),
        )
        se_r = got[EstimatorKind.ROBUST].se()
        se_kc = got[EstimatorKind.KC].se()
        se_md = got[EstimatorKind.MD].se()
        se_avg = got[EstimatorKind.AVG].se()
        assert se_r <= se_kc * (1 + 1e-12)
        assert se_kc <= se_md * (1 + 1e-12)
        assert se_kc <= se_avg <= se_md


def test_duplicating_clusters_halves_robust_covariance():
    # every cluster twice, at the same fit: the scores and weights repeat,
    # each arm's information W_a doubles and each leverage halves
    data = simulated(n_clusters=6, m=5, seed=111)
    fit = fit_gee(data, ModelSpec(Family.BINOMIAL, Link.LOGIT))
    one = fit.block
    two = dataclasses.replace(
        one,
        arm=np.tile(one.arm, 2),
        **{name: np.tile(getattr(one, name), 2) for name in ("m", "s", "w", "u")},
        h=np.tile(one.h, 2) / 2.0,
        W=one.W * 2.0,
    )
    kinds = (EstimatorKind.ROBUST, EstimatorKind.MB)
    rob1, mb1 = estimate_block(one, kinds)[0].values()
    rob2, mb2 = estimate_block(two, kinds)[0].values()
    assert rel_err(rob2, rob1 / 2.0) < 1e-12
    # model-based: the bread doubles at the same dispersion
    assert rel_err(mb2, mb1 / 2.0) < 1e-12


def test_avg_is_the_mean_of_kc_and_md():
    data = simulated(seed=121)
    fit = fit_gee(data, ModelSpec(Family.GAUSSIAN, Link.IDENTITY))
    kc, md, est = compute_estimates(
        fit, (EstimatorKind.KC, EstimatorKind.MD, EstimatorKind.AVG)).values()
    assert np.array_equal(est.cov, (kc.cov + md.cov) / 2.0)
    assert est.diagnostics == kc.diagnostics


def test_compute_estimates_preserves_request_order():
    data = simulated(seed=131)
    fit = fit_gee(data, ModelSpec(Family.POISSON, Link.IDENTITY))
    kinds = (EstimatorKind.MD, EstimatorKind.MB, EstimatorKind.AVG)
    got = compute_estimates(fit, kinds=kinds)
    assert tuple(got.keys()) == kinds
    # AVG pulled in KC internally without emitting it
    assert EstimatorKind.KC not in got


def test_covariances_are_symmetric_psd():
    data = simulated(n_clusters=14, m=8, seed=151)
    for spec in ALL_SPECS:
        fit = fit_gee(data, spec)
        for kind, est in compute_estimates(fit).items():
            assert np.array_equal(est.cov, est.cov.T), kind
            vals = np.linalg.eigvalsh(est.cov)
            assert np.min(vals) > -1e-14, kind


def test_a_padded_trial_names_its_singular_cluster_by_its_place_in_the_trial():
    # the second replicate is a trial of 2 control clusters and 1 treated one,
    # whose leverage is 1; in the block's 6 columns it sits after a padding column
    kinds = (EstimatorKind.KC, EstimatorKind.MD, EstimatorKind.FG)
    m = np.array([[5, 6, 7, 8, 9, 10], [5, 6, 0, 8, 0, 0]])
    s = np.array([[1, 2, 3, 4, 5, 6], [1, 3, 0, 4, 0, 0]])
    spec = ModelSpec(Family.GAUSSIAN, Link.IDENTITY)
    block = fit_block(np.repeat([0, 1], 3), m, s, (spec,))
    alone = fit_block(np.array([0, 0, 1]), m[1:, [0, 1, 3]], s[1:, [0, 1, 3]], (spec,))
    assert block.rows.tolist() == [0, 1] and alone.rows.tolist() == [0]
    _, _, got = estimate_block(block, kinds, fg_bound=1.0)
    _, _, want = estimate_block(alone, kinds, fg_bound=1.0)
    for kind in kinds:
        assert list(got[kind]) == [1] and got[kind][1].cluster_id == 2
        assert str(got[kind][1]) == str(want[kind][0]), kind
