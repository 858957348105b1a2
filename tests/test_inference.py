"""Wald inference: CI/p consistency, effect scales, and guard rails."""

import math

import numpy as np
import pytest

from crtgee import (
    Cluster,
    DegenerateVarianceError,
    EffectMeasure,
    EstimatorKind,
    Family,
    FixedSize,
    Link,
    ModelSpec,
    Scenario,
    TrialDataset,
    UsageError,
    VarianceEstimate,
    compute_estimates,
    default_measure,
    fit_gee,
    generate_trial,
    wald_inference,
    wald_reject,
)

SPECS = {
    "binomial-log": (ModelSpec(Family.BINOMIAL, Link.LOG), EffectMeasure.RR),
    "binomial-identity": (ModelSpec(Family.BINOMIAL, Link.IDENTITY), EffectMeasure.RD),
    "binomial-logit": (ModelSpec(Family.BINOMIAL, Link.LOGIT), EffectMeasure.OR),
    "poisson-log": (ModelSpec(Family.POISSON, Link.LOG), EffectMeasure.RR),
    "poisson-identity": (ModelSpec(Family.POISSON, Link.IDENTITY), EffectMeasure.RD),
    "gaussian-identity": (ModelSpec(Family.GAUSSIAN, Link.IDENTITY), EffectMeasure.RD),
}


def fitted(seed=31, rep=0, n_clusters=10, m=8, pi0=0.3, pi1=0.3, icc=0.05, label="binomial-logit"):
    sc = Scenario(n_clusters=n_clusters, sizes=FixedSize(m), pi0=pi0, pi1=pi1, icc=icc, seed=seed)
    return fit_gee(generate_trial(sc, rep), SPECS[label][0])


def test_default_measures_per_link():
    assert default_measure(Link.LOG) is EffectMeasure.RR
    assert default_measure(Link.LOGIT) is EffectMeasure.OR
    assert default_measure(Link.IDENTITY) is EffectMeasure.RD


@pytest.mark.parametrize("label", sorted(SPECS))
def test_result_internal_consistency(label):
    spec, measure = SPECS[label]
    sc = Scenario(n_clusters=12, sizes=FixedSize(9), pi0=0.35, pi1=0.35, icc=0.1, seed=47)
    fit = fit_gee(generate_trial(sc, 1), spec)
    var = compute_estimates(fit, (EstimatorKind.ROBUST,))[EstimatorKind.ROBUST]
    res = wald_inference(fit, var)

    assert res.effect_measure is measure
    assert res.df == fit.n_clusters - 2
    assert res.se == pytest.approx(var.se(), abs=0)
    assert res.t_stat == pytest.approx(res.estimate_link / res.se, rel=1e-14)
    assert 0.0 <= res.p_value <= 1.0
    lo, hi = res.ci_link
    assert lo <= res.estimate_link <= hi
    if spec.link is Link.IDENTITY:
        assert res.ci_effect == res.ci_link
        assert res.estimate_effect == res.estimate_link
    else:
        assert res.ci_effect[0] == pytest.approx(math.exp(lo), rel=1e-15)
        assert res.ci_effect[1] == pytest.approx(math.exp(hi), rel=1e-15)
        assert res.estimate_effect == pytest.approx(math.exp(res.estimate_link), rel=1e-15)


def test_reject_iff_ci_excludes_null():
    # across many replicates, p < alpha must coincide exactly with the
    # link-scale CI excluding 0 and the effect-scale CI excluding the null
    spec, _ = SPECS["binomial-logit"]
    sc = Scenario(n_clusters=10, sizes=FixedSize(10), pi0=0.3, pi1=0.3, icc=0.05, seed=53)
    checked = 0
    for rep in range(150):
        try:
            fit = fit_gee(generate_trial(sc, rep), spec)
        except Exception:
            continue
        for kind, var in compute_estimates(fit, kinds=(EstimatorKind.ROBUST, EstimatorKind.KC)).items():
            res = wald_inference(fit, var)
            reject = res.p_value < res.alpha_level
            assert reject == res.reject
            assert reject == (not res.ci_link[0] <= 0.0 <= res.ci_link[1])
            assert reject == (not res.ci_effect[0] <= 1.0 <= res.ci_effect[1])
            checked += 1
    assert checked > 200


def test_p_value_increases_with_se():
    fit = fitted(seed=61)
    got = compute_estimates(fit, kinds=(EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD))
    results = [wald_inference(fit, got[k]) for k in got]
    ses = [r.se for r in results]
    ps = [r.p_value for r in results]
    assert ses == sorted(ses)
    assert ps == sorted(ps)
    widths = [r.ci_link[1] - r.ci_link[0] for r in results]
    assert widths == sorted(widths)


def test_balanced_identical_arms_give_zero_effect_and_p_one():
    # the two arms carry identical outcome data; clusters still differ so
    # the empirical variance stays positive
    data = TrialDataset(
        (
            Cluster(id=0, arm=0, outcomes=np.array([1.0, 1.0])),
            Cluster(id=1, arm=0, outcomes=np.array([0.0, 0.0])),
            Cluster(id=2, arm=1, outcomes=np.array([1.0, 1.0])),
            Cluster(id=3, arm=1, outcomes=np.array([0.0, 0.0])),
        )
    )
    for label, (spec, _) in SPECS.items():
        fit = fit_gee(data, spec)
        assert fit.beta[1] == pytest.approx(0.0, abs=1e-10)
        var = compute_estimates(fit, (EstimatorKind.ROBUST,))[EstimatorKind.ROBUST]
        res = wald_inference(fit, var)
        assert res.p_value == pytest.approx(1.0, abs=1e-9)
        assert res.estimate_effect == pytest.approx(
            1.0 if spec.link is not Link.IDENTITY else 0.0, abs=1e-10
        )


def test_alpha_level_changes_interval_width():
    fit = fitted(seed=71)
    var = compute_estimates(fit, (EstimatorKind.ROBUST,))[EstimatorKind.ROBUST]
    narrow = wald_inference(fit, var, alpha_level=0.10)
    wide = wald_inference(fit, var, alpha_level=0.01)
    assert wide.ci_link[0] < narrow.ci_link[0]
    assert wide.ci_link[1] > narrow.ci_link[1]
    with pytest.raises(UsageError):
        wald_inference(fit, var, alpha_level=1.0)


def test_degenerate_variance_rejected():
    fit = fitted(seed=87)
    zero = VarianceEstimate(kind=EstimatorKind.ROBUST, cov=np.zeros((2, 2)))
    with pytest.raises(DegenerateVarianceError):
        wald_inference(fit, zero)


# three clusters leave N - 2 = 1 degree of freedom, whose t critical value
# at level 0.9999 is about 6366, so an ordinary model-based SE puts the
# upper limit on the log scale far past the largest finite exp (about 709)
ONE_DF_TRIAL = [(0, 2, 10), (0, 3, 12), (1, 4, 10)]


def one_df_trial():
    return TrialDataset(
        tuple(
            Cluster(id=i, arm=arm, outcomes=np.r_[np.ones(events), np.zeros(m - events)])
            for i, (arm, events, m) in enumerate(ONE_DF_TRIAL)
        )
    )


def test_effect_scale_limit_saturates_instead_of_overflowing():
    fit = fit_gee(one_df_trial(), SPECS["poisson-log"][0])
    var = compute_estimates(fit, kinds=(EstimatorKind.MB,))[EstimatorKind.MB]
    res = wald_inference(fit, var, alpha_level=1e-4)
    lo, hi = res.ci_link
    assert hi > 710.0
    assert res.ci_effect == (math.exp(lo), math.inf)
    assert res.estimate_effect == math.exp(res.estimate_link)
    assert not res.reject


@pytest.mark.parametrize("alpha_level", [0.05, 0.2, 0.5])
def test_wald_reject_matches_the_p_value_decision(alpha_level):
    # the Monte Carlo rule |t| > t_crit gives the same SE and the same
    # decision as p < alpha_level on every fit, rejections included
    spec, _ = SPECS["binomial-identity"]
    sc = Scenario(n_clusters=8, sizes=FixedSize(12), pi0=0.25, pi1=0.4, icc=0.05, seed=61)
    beta1, cov11, want_se, want_reject = [], [], [], []
    for rep in range(80):
        fit = fit_gee(generate_trial(sc, rep), spec)
        for var in compute_estimates(fit, kinds=(EstimatorKind.ROBUST, EstimatorKind.MD)).values():
            res = wald_inference(fit, var, alpha_level=alpha_level)
            beta1.append(fit.beta[1])
            cov11.append(var.cov[1, 1])
            want_se.append(res.se)
            want_reject.append(res.p_value < alpha_level)
    se, reject, degenerate = wald_reject(np.array(beta1), np.array(cov11), sc.n_clusters - 2,
                                         alpha_level)
    assert not degenerate.any()
    assert se.tolist() == want_se
    assert reject.tolist() == want_reject
    assert 0 < sum(want_reject) < len(want_reject)


def test_wald_reject_marks_degenerate_variances():
    se, reject, degenerate = wald_reject(np.array([0.3, 0.3, 0.3]), np.array([0.0, -1.0, np.nan]),
                                         6)
    assert degenerate.tolist() == [True, True, True]
    assert not reject.any()
    assert np.isnan(se).all()
    with pytest.raises(UsageError):
        wald_reject(np.array([0.3]), np.array([0.01]), 6, alpha_level=1.0)


def test_wald_reject_of_stacked_estimators_equals_each_alone():
    # (K, F) variances against per-fit df: each row is the call on that row alone
    beta1 = np.array([0.9, -0.4, 0.05, 1.3, 0.7])
    df = np.array([2, 18, 18, 4, 2])
    cov11 = np.array([[0.04, 0.01, 0.3, -1.0, 0.2], [0.5, np.nan, 0.001, 0.09, 0.08]])
    stacked = wald_reject(beta1, cov11, df)
    for k in range(len(cov11)):
        alone = wald_reject(beta1, cov11[k], df)
        for got, want in zip(stacked, alone):
            assert got.shape == cov11.shape
            assert np.array_equal(got[k], want, equal_nan=True)
    assert stacked[1].any() and not stacked[1].all()
