"""Metamorphic invariances of the whole fit, estimate and test pass on edge designs.

Each relation transforms a trial and states how every working model's
outcome must move, with no oracle: swapping the arm labels negates beta1,
flipping every outcome (s -> m - s) negates it under the models whose
mean is symmetric about 1/2, and reordering the clusters within an arm
changes nothing. Trials are drawn by hypothesis, derandomized, from the
edge designs of tests/test_properties.py (zero-event arms, m_i = 1
clusters, one dominant cluster per arm, alpha at its clamp) and go through
simulate._fit_models with all 6 models and all 7 estimators.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import crtgee.simulate
from crtgee import ALL_KINDS, ALL_MODELS, EstimatorKind, Family, Link, ModelSpec

from test_properties import PROPERTY_SETTINGS, all_or_none_arm, arm_clusters, cluster

#: a fit converges once no coefficient moves by gee.BETA_TOL = 1e-8, and
#: the swap changes which arm's step is beta1's, so a swapped fit may stop
#: one pass earlier or later: beta1 is kept to BETA_TOL, and an SE to 1e-6
#: relative. Slowly converging fits with a leverage near 1 move most: a
#: probe of 100 examples per design saw at most 6.3e-9 in beta1 and 4.1e-7
#: in an SE (MD, 37 passes against 36, q_max 0.971)
SWAP_BETA_TOL = 1e-8
SWAP_SE_RTOL = 1e-6

#: the flip mirrors every iterate and a reorder only reassociates the arm
#: sums, so beta1 is kept to rounding and every SE to rounding amplified by
#: the working correlation's condition number (alpha at its lower clamp
#: leaves 1 + (m - 1) alpha near 1e-6) and by KC's and MD's 1 / (1 - h_i),
#: as in tests/test_properties.py: the larger of 1e-10 and
#: 8 eps (cond R(alpha) + 1 / (1 - q_max)) relative (probes saw 8.3e-10 at
#: 1 - q_max = 6.7e-7, and 1.5e-10 with alpha at its clamp)
ROUNDING_TOL = 1e-10
EPS = np.finfo(float).eps

#: FG caps diag(Q_i) in (intercept, arm) coordinates, so its SE depends on
#: which arm is coded 0 (see README); every other kind is symmetric
SYMMETRIC_KINDS = tuple(k for k in ALL_KINDS if k is not EstimatorKind.FG)

#: the models whose mean is symmetric about 1/2: s -> m - s maps mu to 1 - mu
FLIP_MODELS = (ModelSpec(Family.BINOMIAL, Link.IDENTITY), ModelSpec(Family.BINOMIAL, Link.LOGIT),
               ModelSpec(Family.GAUSSIAN, Link.IDENTITY))


def dominant_cluster(arm):
    """One cluster of 20 to 60 beside 1 to 3 clusters of 1 to 3."""
    return st.builds(lambda big, rest: [big, *rest], cluster(arm, st.integers(20, 60)),
                     arm_clusters(arm, st.integers(1, 3), min_size=1, max_size=3))


EDGE_DESIGNS = {
    "zero-event-arm": st.tuples(arm_clusters(0, st.integers(1, 8), events=lambda m: 0),
                                arm_clusters(1, st.integers(1, 8))),
    "singleton-clusters": st.tuples(arm_clusters(0, st.sampled_from([1, 1, 1, 2, 3])),
                                    arm_clusters(1, st.sampled_from([1, 1, 1, 2, 3]))),
    "dominant-cluster": st.tuples(dominant_cluster(0), dominant_cluster(1)),
    "alpha-at-clamp": st.tuples(all_or_none_arm(0), all_or_none_arm(1)),
}


def fit(clusters, models=ALL_MODELS):
    """The ModelBlock of every model fit to one trial [(arm, events, size), ...]."""
    arm, s, m = (np.array(v) for v in zip(*clusters))
    return crtgee.simulate._fit_models(arm, m[None], s[None], models, ALL_KINDS,
                                       crtgee.simulate.DEFAULT_FG_BOUND,
                                       crtgee.simulate.ALPHA_LEVEL)


def swapped(clusters):
    return [(1 - arm, events, size) for arm, events, size in clusters]


def flipped(clusters):
    return [(arm, size - events, size) for arm, events, size in clusters]


def rounding_rtol(block, clusters):
    """Per fit of `block` to `clusters`, ROUNDING_TOL or
    8 eps (cond R(alpha) + 1 / (1 - q_max)) where that is larger."""
    a, big = np.nan_to_num(block.alpha), max(size for _, _, size in clusters)
    ends = np.stack([1.0 + (big - 1) * a, 1.0 - a])
    gap = 1.0 - np.nan_to_num(block.q_max)
    scale = ends.max(axis=0) / ends.min(axis=0) + 1.0 / np.maximum(gap, EPS)
    return np.maximum(ROUNDING_TOL, 8.0 * EPS * scale)


def assert_ses(got, want, kinds, rtol):
    """Each kind's SEs agree to `rtol` (one, or one per fit), and fail alike
    (NaN, not evaluated) in the same fits."""
    for kind in kinds:
        assert got.failures[kind] == want.failures[kind], kind
        evaluated = ~np.isnan(want.se[kind])
        assert (evaluated == ~np.isnan(got.se[kind])).all(), kind
        error = np.abs(got.se[kind] / want.se[kind] - 1.0)[evaluated]
        assert (error <= np.broadcast_to(rtol, evaluated.shape)[evaluated]).all(), (kind, error)


@pytest.mark.parametrize("design", sorted(EDGE_DESIGNS))
def test_swapping_the_arms_negates_beta1_and_keeps_every_symmetric_se(design):
    @PROPERTY_SETTINGS
    @given(arms=EDGE_DESIGNS[design])
    def check(arms):
        clusters = arms[0] + arms[1]
        got, want = fit(swapped(clusters)), fit(clusters)
        assert got.reason == want.reason
        np.testing.assert_allclose(got.beta[:, 1], -want.beta[:, 1], rtol=0,
                                   atol=SWAP_BETA_TOL)
        assert_ses(got, want, SYMMETRIC_KINDS, SWAP_SE_RTOL)

    check()


def test_swapping_the_arms_moves_fg():
    # 10 clusters of unequal sizes: a control cluster's capped leverage
    # lands on beta0 and a treated cluster's on beta1, so recoding the arms
    # moves FG's SE of beta1 while every other kind keeps it
    clusters = [(0, 1, 3), (0, 6, 30), (0, 2, 9), (0, 0, 2), (0, 4, 12),
                (1, 2, 4), (1, 9, 25), (1, 1, 6), (1, 3, 8), (1, 1, 2)]
    got, want = fit(swapped(clusters)), fit(clusters)
    assert got.reason == want.reason == (None,) * len(ALL_MODELS)
    assert_ses(got, want, SYMMETRIC_KINDS, SWAP_SE_RTOL)
    fg = EstimatorKind.FG
    change = np.abs(got.se[fg] / want.se[fg] - 1.0)
    assert (change > 0.01).all(), change


@pytest.mark.parametrize("design", sorted(EDGE_DESIGNS))
def test_flipping_the_outcome_negates_beta1_and_keeps_every_se(design):
    @PROPERTY_SETTINGS
    @given(arms=EDGE_DESIGNS[design])
    def check(arms):
        clusters = arms[0] + arms[1]
        got, want = fit(flipped(clusters), FLIP_MODELS), fit(clusters, FLIP_MODELS)
        assert got.reason == want.reason
        np.testing.assert_allclose(got.beta[:, 1], -want.beta[:, 1], rtol=0,
                                   atol=ROUNDING_TOL)
        assert_ses(got, want, ALL_KINDS, rounding_rtol(want, clusters))

    check()


@pytest.mark.parametrize("design", sorted(EDGE_DESIGNS))
def test_reordering_clusters_within_an_arm_keeps_every_se_and_decision(design):
    @PROPERTY_SETTINGS
    @given(arms=EDGE_DESIGNS[design], data=st.data())
    def check(arms, data):
        control, treated = (data.draw(st.permutations(a)) for a in arms)
        clusters = arms[0] + arms[1]
        got, want = fit(list(control) + list(treated)), fit(clusters)
        assert got.reason == want.reason
        assert_ses(got, want, ALL_KINDS, rounding_rtol(want, clusters))
        for kind in ALL_KINDS:
            assert (got.reject[kind] == want.reject[kind]).all(), kind

    check()
