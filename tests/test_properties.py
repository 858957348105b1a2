"""Property tests of the per-cluster core against the dense oracle on edge designs.

Each design family is drawn by hypothesis (derandomized, so every run sees
the same examples) and every estimator the fit supports must match the
dense scipy evaluation in tests/_dense_oracle.py to 1e-10, or to the
oracle's own accuracy where its m x m inverse of R(alpha) is ill conditioned.
Where alpha sits at its lower bound, robust, KC, MD and AVG are compared
with the oracle's 60-digit mpmath evaluation instead, to 1e-9.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from crtgee import (
    ALL_KINDS,
    Cluster,
    CorrectionSingularityError,
    Family,
    Link,
    ModelSpec,
    NonConvergenceError,
    TrialDataset,
    compute_estimates,
    fit_gee,
)

from _dense_oracle import alpha_bounds, dense_estimates, information, mp_sandwiches, rel_err

ALL_SPECS = [
    ModelSpec(Family.BINOMIAL, Link.LOG),
    ModelSpec(Family.BINOMIAL, Link.IDENTITY),
    ModelSpec(Family.BINOMIAL, Link.LOGIT),
    ModelSpec(Family.POISSON, Link.LOG),
    ModelSpec(Family.POISSON, Link.IDENTITY),
    ModelSpec(Family.GAUSSIAN, Link.IDENTITY),
]

PROPERTY_SETTINGS = settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def trial(arm_clusters):
    """A TrialDataset from [(arm, events, size), ...]."""
    return TrialDataset(
        tuple(
            Cluster(id=i, arm=arm, outcomes=np.r_[np.ones(events), np.zeros(m - events)])
            for i, (arm, events, m) in enumerate(arm_clusters)
        )
    )


@st.composite
def cluster(draw, arm, sizes, events=None):
    m = draw(sizes)
    e = draw(st.integers(0, m)) if events is None else events(m)
    return (arm, e, m)


def arm_clusters(arm, sizes, min_size=2, max_size=4, events=None):
    return st.lists(cluster(arm, sizes, events), min_size=min_size, max_size=max_size)


def working_condition(fit):
    """Largest condition number of a fitted working correlation R_i(alpha)."""
    a = fit.alpha_hat
    conds = [max(1 + (m - 1) * a, 1 - a) / min(1 + (m - 1) * a, 1 - a) for m in fit.m if m > 1]
    return max([1.0, *conds])


def both_arms_mixed(clusters):
    """Each arm has events and non-events, so every link has a finite fit."""
    for arm in (0, 1):
        events = sum(e for (a, e, _) in clusters if a == arm)
        size = sum(m for (a, _, m) in clusters if a == arm)
        if not 0 < events < size:
            return False
    return True


def check_against_oracle(data, spec):
    """Fit, then compare every defined estimator with the dense oracle.

    The oracle sums each cluster's closed-form R(alpha)^{-1}, whose entries
    grow as alpha nears a bound, and inverts the bread B and, for KC and
    MD, I - Q_i, so it is good to a few eps times cond R(alpha) +
    cond B / (1 - q_max). That is below 1e-10 until alpha nears a bound or
    a leverage nears 1; the tolerance is the larger of the two. At the
    lower bound of alpha the largest cluster's leverage comes within about
    1e-5 of 1, and the oracle's double-precision inverse of I - Q_i then
    misses MD by up to 7e-5, so there the sandwich kinds are held to the
    60-digit evaluation, to 1e-9.
    """
    try:
        fit = fit_gee(data, spec)
    except NonConvergenceError:
        assume(False)
    scale = working_condition(fit) + np.linalg.cond(information(fit)) / (1.0 - np.max(fit.h))
    tol = max(1e-10, 4.0 * np.finfo(float).eps * scale)
    want = dense_estimates(
        data, spec.family.value, spec.link.value, fit.beta, fit.alpha_hat, fit.phi_hat
    )
    precise = {}
    if fit.alpha_hat == alpha_bounds(int(fit.m.max()))[0]:
        precise = mp_sandwiches(data, spec.family.value, spec.link.value, fit.beta,
                                fit.alpha_hat)
        precise["avg"] = (precise["kc"] + precise["md"]) / 2.0
    compared = 0
    for kind in ALL_KINDS:
        try:
            est = compute_estimates(fit, (kind,))[kind]
        except CorrectionSingularityError:
            continue
        reference = precise.get(kind.value, want[kind.value])
        if np.max(np.abs(reference)) < 1e-20:
            # every residual is zero: both sides are zero matrices
            assert np.max(np.abs(est.cov)) < 1e-20, kind
        else:
            limit = 1e-9 if kind.value in precise else tol
            assert rel_err(est.cov, reference) < limit, (kind, spec.label())
        compared += 1
    assert compared >= 3
    return fit


@PROPERTY_SETTINGS
@given(
    control=arm_clusters(0, st.integers(1, 8), events=lambda m: 0),
    treated=arm_clusters(1, st.integers(1, 8)),
)
def test_zero_event_arm_matches_oracle(control, treated):
    # an arm without events has no finite log or logit mean, and the
    # binomial and Poisson variances vanish at a zero mean; the Gaussian
    # identity model fits it exactly
    check_against_oracle(trial(control + treated), ModelSpec(Family.GAUSSIAN, Link.IDENTITY))


@PROPERTY_SETTINGS
@given(
    control=arm_clusters(0, st.sampled_from([1, 1, 1, 2, 3])),
    treated=arm_clusters(1, st.sampled_from([1, 1, 1, 2, 3])),
    spec=st.sampled_from(ALL_SPECS),
)
def test_singleton_clusters_match_oracle(control, treated, spec):
    assume(any(m == 1 for (_, _, m) in control + treated))
    assume(both_arms_mixed(control + treated))
    check_against_oracle(trial(control + treated), spec)


@PROPERTY_SETTINGS
@given(
    big=st.tuples(cluster(0, st.integers(20, 60)), cluster(1, st.integers(20, 60))),
    control=arm_clusters(0, st.integers(1, 3), min_size=1, max_size=3),
    treated=arm_clusters(1, st.integers(1, 3), min_size=1, max_size=3),
    spec=st.sampled_from(ALL_SPECS),
)
def test_dominant_cluster_per_arm_matches_oracle(big, control, treated, spec):
    assume(both_arms_mixed([big[0], *control, big[1], *treated]))
    fit = check_against_oracle(trial([big[0], *control, big[1], *treated]), spec)
    # the large cluster carries the largest share of its arm's information
    first_treated = 1 + len(control)
    assert fit.h[0] == np.max(fit.h[:first_treated])
    assert fit.h[first_treated] == np.max(fit.h[first_treated:])


@st.composite
def all_or_none_arm(draw, arm):
    """At least one all-event and one event-free cluster, then any mix."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    full = [True, False] + draw(st.lists(st.booleans(), min_size=len(sizes) - 2,
                                         max_size=len(sizes) - 2))
    return [(arm, m if f else 0, m) for m, f in zip(sizes, full)]


@PROPERTY_SETTINGS
@given(control=all_or_none_arm(0), treated=all_or_none_arm(1), spec=st.sampled_from(ALL_SPECS))
def test_alpha_at_clamp_matches_oracle(control, treated, spec):
    # every cluster all events or none: the within-cluster residuals are
    # identical, and with clusters of 2 or 3 (no more pairs than
    # observations) the moment estimate of alpha mostly passes its upper bound
    fit = check_against_oracle(trial(control + treated), spec)
    assume(fit.alpha_clamped)
    assert fit.alpha_hat == alpha_bounds(int(fit.m.max()))[1]
