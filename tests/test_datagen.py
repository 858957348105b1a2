"""Outcome generator: coefficients, calibration, exchangeability, sizes, seeding."""

import dataclasses

import numpy as np
import pytest
import scipy.stats

import crtgee.datagen
from crtgee import (
    DomainError,
    FixedSize,
    GeneratorInvalidError,
    GammaSize,
    Scenario,
    gamma_cluster_sizes,
    generate_clusters,
    generate_trial,
    qaqish_coeff,
    substream,
)


def test_coefficient_examples():
    assert qaqish_coeff(0.25, 2) == pytest.approx(0.25, abs=1e-15)
    assert qaqish_coeff(0.0, 7) == 0.0
    # rho = 0.1, j = 100: 0.1 / (1 + 98 * 0.1) = 0.1 / 10.8
    assert qaqish_coeff(0.1, 100) == pytest.approx(0.1 / 10.8, abs=1e-12)


def test_coefficient_domain():
    with pytest.raises(DomainError):
        qaqish_coeff(-0.05, 3)
    with pytest.raises(DomainError):
        qaqish_coeff(1.0, 3)
    with pytest.raises(DomainError):
        qaqish_coeff(0.2, 1)


def test_conditional_mean_stays_in_range_for_rare_outcome():
    # worst case for lambda: an all-zero prefix with small mu; the
    # conditional mean mu (1 - (j-2) adjusted) must stay positive
    mu, rho = 0.02, 0.1
    for j in range(2, 101):
        b = qaqish_coeff(rho, j)
        lam_low = mu + b * (-(j - 1) * mu)     # all-zero prefix
        lam_high = mu + b * ((j - 1) * (1 - mu))  # all-one prefix
        assert 0.0 < lam_low
        assert lam_high < 1.0


def reference_check_means(means, rho, size):
    """The scalar loop of `_check_means`: (draw, mean) of the first conditional mean
    that can leave [0, 1], by draw and then by mean, or None."""
    means = sorted(means)
    for j in range(2, size + 1):
        b = qaqish_coeff(rho, j)
        for m in means:
            low, high = m - (j - 1) * b * m, m + (j - 1) * b * (1.0 - m)
            if not (0.0 <= low <= 1.0 and 0.0 <= high <= 1.0):
                return j, m
    return None


def test_check_means_raises_at_the_draw_and_mean_of_the_scalar_loop():
    # (j - 1) b_j < 1, so the extremes stay in [0, 1] in exact arithmetic;
    # at rho a few ulps below 1 they leave it by rounding alone, at a draw
    # and mean only the same operations find
    rhos = [1.0 - k * 2.0 ** -53 for k in (1, 2, 3, 5, 8, 13, 30, 100)] + [0.999, 0.3]
    means = [1e-13, 0.05, 0.3, 0.5198330743342318, 0.6, 0.7, 0.9, 1.0 - 1e-13]
    raised = 0
    for rho in rhos:
        for pair in [(m,) for m in means] + list(zip(means, means[::-1])):
            want = reference_check_means(pair, rho, 400)
            if want is None:
                crtgee.datagen._check_means(set(pair), rho, 400)
                continue
            raised += 1
            with pytest.raises(GeneratorInvalidError) as got:
                crtgee.datagen._check_means(set(pair), rho, 400)
            assert str(got.value) == (f"conditional mean left [0, 1] at draw {want[0]} "
                                      f"(mu={want[1]}, rho={rho})")
            # the draws before the first failing one pass
            crtgee.datagen._check_means(set(pair), rho, want[0] - 1)
    assert 0 < raised < len(rhos) * 2 * len(means)


def test_independent_case_is_plain_bernoulli():
    rng = substream(2026, 0, 0)
    y = generate_clusters(0.3, 0.0, 8, 50_000, rng)
    assert y.shape == (50_000, 8)
    assert abs(float(y.mean()) - 0.3) < 0.005
    # within-cluster correlation should vanish
    cols = y.astype(float)
    corr = np.corrcoef(cols[:, 0], cols[:, 1])[0, 1]
    assert abs(corr) < 0.01


def test_marginal_mean_and_pairwise_correlation_calibrate():
    rng = substream(2026, 1, 0)
    mu, rho, m = 0.3, 0.1, 4
    y = generate_clusters(mu, rho, m, 200_000, rng).astype(float)
    assert abs(float(y.mean()) - mu) < 0.005
    # every ordered pair should show correlation near rho
    for a in range(m):
        for b in range(a + 1, m):
            r = np.corrcoef(y[:, a], y[:, b])[0, 1]
            assert abs(r - rho) < 0.01, (a, b, r)


def test_low_prevalence_high_icc_calibrates():
    rng = substream(2026, 2, 0)
    mu, rho = 0.05, 0.2
    y = generate_clusters(mu, rho, 10, 200_000, rng).astype(float)
    assert abs(float(y.mean()) - mu) < 0.002
    r = np.corrcoef(y[:, 3], y[:, 7])[0, 1]
    assert abs(r - rho) < 0.01


def test_positions_are_exchangeable():
    # group size-3 patterns by their sum: within a sum class all
    # arrangements must be equally likely
    rng = substream(2026, 3, 0)
    y = generate_clusters(0.3, 0.1, 3, 200_000, rng)
    codes = y[:, 0] * 4 + y[:, 1] * 2 + y[:, 2]
    counts = np.bincount(codes, minlength=8)
    for cls in ((1, 2, 4), (3, 5, 6)):
        obs = counts[list(cls)]
        stat, p = scipy.stats.chisquare(obs)
        assert p > 0.001, (cls, obs, p)


def test_clusters_are_mutually_independent():
    rng = substream(2026, 4, 0)
    y = generate_clusters(0.3, 0.15, 2, 400_000, rng).astype(float)
    # adjacent draws belong to different clusters; their first members
    # must be uncorrelated
    first = y[: 200_000 * 2 : 2, 0]
    second = y[1 : 200_000 * 2 : 2, 0]
    r = np.corrcoef(first, second)[0, 1]
    assert abs(r) < 0.005


def test_generator_domain_checks():
    rng = substream(0, 0, 0)
    with pytest.raises(DomainError):
        generate_clusters(0.0, 0.1, 3, 1, rng)
    with pytest.raises(DomainError):
        generate_clusters(1.0, 0.1, 3, 1, rng)
    with pytest.raises(DomainError):
        generate_clusters(0.3, -0.01, 3, 1, rng)


def test_gamma_parameterization_cv():
    # shape 1/cv^2, scale mean*cv^2: raw draws must reproduce the CV
    rng = substream(2026, 5, 0)
    for mean, cv in ((30.0, 1.0), (100.0, 0.25), (30.0, 0.5)):
        draws = rng.gamma(1.0 / cv**2, mean * cv**2, size=100_000)
        got_cv = float(draws.std() / draws.mean())
        assert abs(got_cv - cv) < 0.02, (mean, cv, got_cv)
        assert abs(float(draws.mean()) - mean) < mean * 0.02


def test_gamma_cluster_sizes_integerized():
    rng = substream(2026, 6, 0)
    sizes = gamma_cluster_sizes(30.0, 0.75, 100_000, rng)
    assert sizes.dtype.kind == "i"
    assert sizes.min() >= 2
    assert abs(float(sizes.mean()) - 30.0) < 0.5
    with pytest.raises(DomainError):
        gamma_cluster_sizes(1.0, 0.5, 10, rng)
    with pytest.raises(DomainError):
        gamma_cluster_sizes(30.0, 0.0, 10, rng)


def test_size_models():
    fixed = FixedSize(9)
    assert fixed.mean == 9.0
    assert fixed.cv == 0.0
    assert np.array_equal(fixed.draw(4, substream(0, 0, 0)), [9, 9, 9, 9])
    with pytest.raises(DomainError):
        FixedSize(0)

    gamma = GammaSize(30.0, 0.5)
    assert gamma.mean == 30.0
    assert gamma.cv == 0.5
    with pytest.raises(DomainError):
        GammaSize(1.5, 0.5)
    with pytest.raises(DomainError):
        GammaSize(30.0, -0.1)


@pytest.mark.parametrize("draws", [[1e19, 3.0], [1e300, 3.0], [float("inf"), 3.0]])
def test_a_gamma_draw_past_int64_is_an_error_not_a_size(draws):
    # rint(1e300).astype(int) is INT64_MIN, which the floor at 2 would hide
    class Draws:
        def gamma(self, shape, scale, size):
            return np.array(draws)

    with pytest.raises(DomainError, match="64-bit"):
        GammaSize(30.0, 0.5).draw(2, Draws())


@pytest.mark.parametrize("mean_size, cv", [
    (float("nan"), 0.5), (float("inf"), 0.5), (30.0, float("nan")), (30.0, float("inf")),
])
def test_gamma_size_rejects_non_finite_parameters(mean_size, cv):
    # NaN < 2 is False, so a plain range check lets NaN through
    with pytest.raises(DomainError, match="finite"):
        GammaSize(mean_size, cv)
    with pytest.raises(DomainError, match="finite"):
        gamma_cluster_sizes(mean_size, cv, 4, substream(0, 0, 0))


def test_scenario_validation():
    ok = dict(sizes=FixedSize(5), pi0=0.3, pi1=0.3, icc=0.05)
    Scenario(n_clusters=6, **ok)
    with pytest.raises(DomainError):
        Scenario(n_clusters=5, **ok)
    with pytest.raises(DomainError):
        Scenario(n_clusters=0, **ok)
    with pytest.raises(DomainError):
        Scenario(n_clusters=6, sizes=FixedSize(5), pi0=0.0, pi1=0.3, icc=0.05)
    with pytest.raises(DomainError):
        Scenario(n_clusters=6, sizes=FixedSize(5), pi0=0.3, pi1=0.3, icc=1.0)
    with pytest.raises(DomainError):
        Scenario(n_clusters=6, sizes=FixedSize(5), pi0=0.3, pi1=0.3, icc=0.05, replicates=0)


@pytest.mark.parametrize("field", ["seed", "index"])
@pytest.mark.parametrize("value", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_scenario_rejects_a_seed_or_index_that_is_not_a_nonnegative_integer(field, value):
    # both key the generators, whose hash reads a nonnegative integer's 32-bit words
    with pytest.raises(DomainError, match=f"{field} must be a nonnegative integer"):
        Scenario(n_clusters=6, sizes=FixedSize(5), pi0=0.3, pi1=0.3, icc=0.05, **{field: value})


def test_trial_layout():
    sc = Scenario(n_clusters=10, sizes=FixedSize(7), pi0=0.2, pi1=0.4, icc=0.05, seed=44)
    data = generate_trial(sc, 0)
    assert data.n_clusters == 10
    assert [c.arm for c in data.clusters] == [0] * 5 + [1] * 5
    assert [c.id for c in data.clusters] == list(range(10))
    assert all(c.size == 7 for c in data.clusters)


def test_trial_determinism_and_replicate_separation():
    sc = Scenario(n_clusters=8, sizes=GammaSize(12.0, 0.6), pi0=0.3, pi1=0.3, icc=0.1, seed=44, index=3)
    a = generate_trial(sc, 5)
    b = generate_trial(sc, 5)
    c = generate_trial(sc, 6)
    for ca, cb in zip(a.clusters, b.clusters):
        assert np.array_equal(ca.outcomes, cb.outcomes)
    assert any(
        ca.size != cc.size or not np.array_equal(ca.outcomes, cc.outcomes)
        for ca, cc in zip(a.clusters, c.clusters)
    )


def test_scenario_index_separates_streams():
    base = dict(n_clusters=8, sizes=FixedSize(10), pi0=0.3, pi1=0.3, icc=0.05, seed=44)
    a = generate_trial(Scenario(index=0, **base), 0)
    b = generate_trial(Scenario(index=1, **base), 0)
    assert any(not np.array_equal(ca.outcomes, cb.outcomes) for ca, cb in zip(a.clusters, b.clusters))


def test_gamma_sizes_redrawn_each_replicate():
    sc = Scenario(n_clusters=8, sizes=GammaSize(20.0, 0.75), pi0=0.3, pi1=0.3, icc=0.05, seed=44)
    sizes0 = [c.size for c in generate_trial(sc, 0).clusters]
    sizes1 = [c.size for c in generate_trial(sc, 1).clusters]
    assert sizes0 != sizes1


def test_arm_means_differ_when_pi_differs():
    sc = Scenario(n_clusters=40, sizes=FixedSize(50), pi0=0.2, pi1=0.5, icc=0.02, seed=44)
    data = generate_trial(sc, 0)
    summary = data.arm_summary()
    assert abs(summary[0]["proportion"] - 0.2) < 0.05
    assert abs(summary[1]["proportion"] - 0.5) < 0.05


# --- one-pass generation against the per-cluster reference ---------------


def reference_clusters(mu, rho, m, count, rng):
    """The column loop of the per-cluster generator, kept here as a reference."""
    u = rng.random((count, m))
    y = np.empty((count, m), dtype=np.int8)
    y[:, 0] = u[:, 0] < mu
    centered = y[:, 0].astype(float) - mu
    for j in range(2, m + 1):
        lam = mu + (rho / (1.0 + (j - 2) * rho)) * centered
        y[:, j - 1] = u[:, j - 1] < lam
        centered += y[:, j - 1] - mu
    return y


def reference_trial(scenario, replicate_index):
    """Per-cluster generation: sizes, then one draw of m_i uniforms per cluster."""
    ss = np.random.SeedSequence(
        entropy=scenario.seed, spawn_key=(scenario.index, replicate_index)
    )
    rng = np.random.Generator(np.random.Philox(ss))
    n = scenario.n_clusters
    sizes = scenario.sizes
    if isinstance(sizes, FixedSize):
        ms = [sizes.m] * n
    else:
        draws = rng.gamma(1.0 / sizes.cv**2, sizes.mean_size * sizes.cv**2, size=n)
        ms = np.maximum(np.rint(draws).astype(int), 2)
    out = []
    for i in range(n):
        arm = 0 if i < n // 2 else 1
        mu = scenario.pi0 if arm == 0 else scenario.pi1
        out.append((arm, reference_clusters(mu, scenario.icc, int(ms[i]), 1, rng)[0]))
    return out


REFERENCE_DESIGNS = {
    "gamma-cv1": Scenario(n_clusters=20, sizes=GammaSize(30.0, 1.0), pi0=0.3, pi1=0.3,
                          icc=0.05, seed=20260821),
    "gamma-arms-differ-icc0.3": Scenario(n_clusters=12, sizes=GammaSize(15.0, 0.75),
                                         pi0=0.1, pi1=0.45, icc=0.3, seed=7, index=4),
    "fixed1": Scenario(n_clusters=10, sizes=FixedSize(1), pi0=0.2, pi1=0.6, icc=0.3, seed=8),
    "fixed2": Scenario(n_clusters=8, sizes=FixedSize(2), pi0=0.4, pi1=0.4, icc=0.3, seed=9),
    "icc0-arms-differ": Scenario(n_clusters=6, sizes=FixedSize(12), pi0=0.05, pi1=0.5,
                                 icc=0.0, seed=10),
    "n2-gamma": Scenario(n_clusters=2, sizes=GammaSize(8.0, 1.0), pi0=0.3, pi1=0.7,
                         icc=0.3, seed=11, index=2),
    "multiword-key": Scenario(n_clusters=4, sizes=GammaSize(10.0, 0.5), pi0=0.2, pi1=0.5,
                              icc=0.1, seed=2**70 + 3, index=2**32 + 5),
}


@pytest.mark.parametrize("design", sorted(REFERENCE_DESIGNS))
def test_trial_equals_per_cluster_reference(design):
    sc = REFERENCE_DESIGNS[design]
    for rep in range(25):
        got = generate_trial(sc, rep)
        want = reference_trial(sc, rep)
        assert len(got.clusters) == len(want) == sc.n_clusters
        for c, (arm, outcomes) in zip(got.clusters, want):
            assert c.arm == arm
            assert np.array_equal(c.outcomes, outcomes), (design, rep, c.id)


def test_equal_size_clusters_equal_reference():
    for mu, rho, m, count in ((0.3, 0.1, 7, 500), (0.05, 0.3, 1, 50), (0.6, 0.0, 2, 50)):
        got = generate_clusters(mu, rho, m, count, substream(12, m, count))
        want = reference_clusters(mu, rho, m, count, substream(12, m, count))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_guard_fires_when_conditional_mean_leaves_unit_interval(monkeypatch):
    # b_j = 5 pushes lam past 1 after any first-draw event
    monkeypatch.setattr(crtgee.datagen, "qaqish_coeff", lambda rho, j: 5.0)
    sc = Scenario(n_clusters=10, sizes=GammaSize(10.0, 0.5), pi0=0.5, pi1=0.5, icc=0.1, seed=3)
    with pytest.raises(GeneratorInvalidError, match="at draw 2"):
        generate_trial(sc, 0)


@pytest.mark.parametrize("design", sorted(REFERENCE_DESIGNS))
def test_block_counts_equal_generate_trial(design):
    # the stacked generator draws every replicate from its own substream,
    # so its (m, s) are generate_trial's whatever block a replicate is in
    sc = REFERENCE_DESIGNS[design]
    reps = [3, 0, 11, 7, 24]
    m, s = crtgee.datagen.generate_block(sc, reps)
    assert m.shape == s.shape == (len(reps), sc.n_clusters)
    for row, rep in enumerate(reps):
        trial = generate_trial(sc, rep)
        assert m[row].tolist() == [c.size for c in trial.clusters]
        assert s[row].tolist() == [int(c.outcomes.sum()) for c in trial.clusters]
        alone_m, alone_s = crtgee.datagen.generate_block(sc, [rep])
        assert np.array_equal(alone_m[0], m[row]) and np.array_equal(alone_s[0], s[row])


#: pieces of one block (N = 12): different icc, means and size laws, one a lone replicate
MIXED_PIECES = [
    (Scenario(n_clusters=12, sizes=GammaSize(15.0, 0.75), pi0=0.1, pi1=0.45, icc=0.3, seed=7,
              index=4), [3, 0, 11]),
    (Scenario(n_clusters=12, sizes=FixedSize(9), pi0=0.3, pi1=0.3, icc=0.0, seed=7, index=5),
     range(4)),
    (Scenario(n_clusters=12, sizes=GammaSize(6.0, 1.0), pi0=0.05, pi1=0.5, icc=0.6, seed=2),
     [8]),
    (Scenario(n_clusters=12, sizes=FixedSize(1), pi0=0.2, pi1=0.6, icc=0.3, seed=8), range(5)),
]


def test_pieces_with_different_icc_in_one_block_equal_each_piece_alone():
    m, s, error = crtgee.datagen.generate_pieces(MIXED_PIECES)
    alone = [crtgee.datagen.generate_block(sc, reps) for sc, reps in MIXED_PIECES]
    assert error is None
    assert np.array_equal(m, np.concatenate([pm for pm, _ in alone]))
    assert np.array_equal(s, np.concatenate([ps for _, ps in alone]))
    # one icc for the whole block is the scalar path of the same recurrence
    same = [(dataclasses.replace(sc, icc=0.3), reps) for sc, reps in MIXED_PIECES]
    m, s, _ = crtgee.datagen.generate_pieces(same)
    assert np.array_equal(s, np.concatenate([crtgee.datagen.generate_block(sc, reps)[1]
                                             for sc, reps in same]))


def test_a_piece_checked_past_an_earlier_pieces_size_can_still_end_the_block():
    # at this icc a conditional mean leaves [0, 1] by rounding at draw 28 and
    # not before: the first piece (m = 27) passes, and the second, of the same
    # means and icc, is checked again at its larger size and fails
    rho = 1.0 - 2 * 2.0**-53
    design = dict(n_clusters=4, pi0=0.3, pi1=0.3, icc=rho, seed=3)
    pieces = [(Scenario(sizes=FixedSize(27), **design), range(2)),
              (Scenario(sizes=FixedSize(28), index=1, **design), range(2)),
              (Scenario(sizes=FixedSize(2), index=2, **design), range(2))]
    m, s, error = crtgee.datagen.generate_pieces(pieces)
    first_m, first_s = crtgee.datagen.generate_block(*pieces[0])
    assert np.array_equal(m, first_m) and np.array_equal(s, first_s)
    assert isinstance(error, GeneratorInvalidError)
    assert str(error) == f"conditional mean left [0, 1] at draw 28 (mu=0.3, rho={rho})"


def test_a_piece_that_cannot_be_drawn_ends_the_block_there(monkeypatch):
    # the piece of icc 0.6 fails the [0, 1] check at its first draw: the
    # block keeps the two pieces before it, and the error is the one its
    # generation alone raises, naming the same draw and mean
    qaqish = crtgee.datagen.qaqish_coeff
    monkeypatch.setattr(crtgee.datagen, "qaqish_coeff",
                        lambda rho, j: 5.0 if rho == 0.6 else qaqish(rho, j))
    m, s, error = crtgee.datagen.generate_pieces(MIXED_PIECES)
    before = [crtgee.datagen.generate_block(sc, reps) for sc, reps in MIXED_PIECES[:2]]
    assert np.array_equal(m, np.concatenate([pm for pm, _ in before]))
    assert np.array_equal(s, np.concatenate([ps for _, ps in before]))
    with pytest.raises(GeneratorInvalidError) as alone:
        crtgee.datagen.generate_block(*MIXED_PIECES[2])
    assert isinstance(error, GeneratorInvalidError)
    assert str(error) == str(alone.value) == \
        "conditional mean left [0, 1] at draw 2 (mu=0.05, rho=0.6)"
    # a first piece that cannot be drawn leaves an empty block
    m, s, error = crtgee.datagen.generate_pieces(MIXED_PIECES[2:])
    assert m.shape == s.shape == (0, 12) and isinstance(error, GeneratorInvalidError)


def qaqish_sum_pmf(mu, rho, m):
    """Exact pmf of a cluster's event count s = y_1 + ... + y_m, (m + 1,).

    The draws form a Markov chain on the partial sum: given k events among
    the first j - 1 draws, draw j is an event with probability
    mu + b_j (k - (j - 1) mu), b_j = rho / (1 + (j - 2) rho). The table over
    (draw, partial sum) is O(m^2).
    """
    pmf = np.array([1.0 - mu, mu])
    for j in range(2, m + 1):
        k = np.arange(j)
        lam = mu + rho / (1.0 + (j - 2) * rho) * (k - (j - 1) * mu)
        nxt = np.zeros(j + 1)
        nxt[:-1] += pmf * (1.0 - lam)
        nxt[1:] += pmf * lam
        pmf = nxt
    return pmf


@pytest.mark.parametrize("m, pi0, pi1, rho", [(8, 0.3, 0.3, 0.1), (20, 0.05, 0.05, 0.05),
                                              (5, 0.5, 0.2, 0.3)])
def test_block_event_counts_follow_the_exact_sum_pmf(m, pi0, pi1, rho):
    counts = np.arange(m + 1)
    sc = Scenario(n_clusters=10, sizes=FixedSize(m), pi0=pi0, pi1=pi1, icc=rho, seed=41)
    _, s = crtgee.datagen.generate_block(sc, range(1000))
    arms = crtgee.datagen.trial_arms(10)
    for mu, arm in ((pi0, 0), (pi1, 1)):
        pmf = qaqish_sum_pmf(mu, rho, m)
        # the table's moments: mean m mu, variance m mu (1 - mu) (1 + (m - 1) rho)
        mean = float(pmf @ counts)
        var = float(pmf @ (counts - mean) ** 2)
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert abs(mean - m * mu) < 1e-12
        assert abs(var - m * mu * (1 - mu) * (1 + (m - 1) * rho)) < 1e-12

        draws = s[:, arms == arm].ravel()
        observed = np.bincount(draws, minlength=m + 1).astype(float)
        expected = pmf * draws.size
        # pool adjacent counts, from the low end, until each bin expects >= 5;
        # a short last bin joins the one before it
        obs_bins, exp_bins, o, e = [], [], 0.0, 0.0
        for ok, ek in zip(observed, expected):
            o, e = o + ok, e + ek
            if e >= 5.0:
                obs_bins.append(o)
                exp_bins.append(e)
                o = e = 0.0
        obs_bins[-1] += o
        exp_bins[-1] += e
        assert len(obs_bins) >= 3
        stat = float(((np.array(obs_bins) - exp_bins) ** 2 / exp_bins).sum())
        p = scipy.stats.chi2.sf(stat, len(obs_bins) - 1)
        assert p > 1e-3, (mu, rho, m, stat, p)


# --- the two phases of the recurrence: column passes, then rows alone ------


def generator_outputs():
    """m, s and outcomes of every generator entry point on fixed inputs, as lists."""
    out = []
    for sc in REFERENCE_DESIGNS.values():
        out += [a.tolist() for a in crtgee.datagen.generate_block(sc, range(25))]
        out += [[c.outcomes.tolist() for c in generate_trial(sc, rep).clusters]
                for rep in (0, 7)]
    out += [a.tolist() for a in crtgee.datagen.generate_pieces(MIXED_PIECES)[:2]]
    # 70 rows of one length: every column has more than TAIL_ROWS rows drawing
    out += [generate_clusters(mu, rho, m, count, substream(13, m, count)).tolist()
            for mu, rho, m, count in ((0.3, 0.1, 7, 70), (0.05, 0.3, 40, 9))]
    return out


@pytest.mark.parametrize("tail_rows", [0, 10**9])
def test_the_phase_boundary_changes_no_draw(monkeypatch, tail_rows):
    # 0: every column in one numpy pass; 10**9: every row alone after its first draw
    default = generator_outputs()
    monkeypatch.setattr(crtgee.datagen, "TAIL_ROWS", tail_rows)
    assert generator_outputs() == default


def reference_rows(flat, sizes, mu, rho):
    """Each row's draws from its own uniforms by the reference column loop."""
    rho = np.broadcast_to(rho, sizes.shape)
    ends = np.cumsum(sizes)
    return [reference_draws(flat[end - size:end], mu_i, rho_i)
            for end, size, mu_i, rho_i in zip(ends, sizes, mu, rho)]


def reference_draws(u, mu, rho):
    y = np.empty(u.size, dtype=np.int8)
    y[0] = u[0] < mu
    centered = y[0] - mu
    for j in range(2, u.size + 1):
        y[j - 1] = u[j - 1] < mu + (rho / (1.0 + (j - 2) * rho)) * centered
        centered += y[j - 1] - mu
    return y


@pytest.mark.parametrize("tail_rows", [None, 0, 10**9])
@pytest.mark.parametrize("extra", [0, 1])
def test_rows_equal_the_reference_when_the_active_count_meets_the_bound(
        monkeypatch, tail_rows, extra):
    # TAIL_ROWS + extra rows of 9 beside one of 4: columns 2-4 have
    # TAIL_ROWS + extra + 1 rows drawing, columns 5-9 TAIL_ROWS + extra
    bound = crtgee.datagen.TAIL_ROWS
    if tail_rows is not None:
        monkeypatch.setattr(crtgee.datagen, "TAIL_ROWS", tail_rows)
    sizes = np.array([4] + [9] * (bound + extra))
    rng = substream(14, bound, extra)
    flat = rng.random(int(sizes.sum()))
    mu = np.where(np.arange(sizes.size) % 2, 0.3, 0.05)
    for rho in (0.2, np.where(np.arange(sizes.size) % 3, 0.05, 0.4)):
        outcomes = np.zeros(flat.size, dtype=np.int8)
        counts = crtgee.datagen._draw_rows(flat, sizes, mu, rho, outcomes)
        want = reference_rows(flat, sizes, mu, rho)
        assert np.array_equal(outcomes, np.concatenate(want))
        assert counts.tolist() == [int(y.sum()) for y in want]


@pytest.mark.parametrize("tail_rows", [None, 0, 10**9])
def test_a_zero_coefficient_draws_independent_bernoullis_in_both_phases(monkeypatch,
                                                                        tail_rows):
    # b_j = 0 leaves lam = mu, so each draw is u < mu, in a column pass or alone
    monkeypatch.setattr(crtgee.datagen, "qaqish_coeff", lambda rho, j: 0.0 * j)
    if tail_rows is not None:
        monkeypatch.setattr(crtgee.datagen, "TAIL_ROWS", tail_rows)
    sizes = np.array([30] * 5 + [6] * 100)
    flat = substream(15, 0, 0).random(int(sizes.sum()))
    mu = np.linspace(0.1, 0.6, sizes.size)
    for rho in (0.3, np.linspace(0.0, 0.5, sizes.size)):
        outcomes = np.zeros(flat.size, dtype=np.int8)
        counts = crtgee.datagen._draw_rows(flat, sizes, mu, rho, outcomes)
        independent = flat < np.repeat(mu, sizes)
        assert np.array_equal(outcomes, independent)
        assert np.array_equal(counts, np.add.reduceat(independent, np.cumsum(sizes) - sizes))


@pytest.mark.parametrize("m, count", [(0, 3), (-1, 3), (2.5, 3), (3.0, 3), (3, -1), (3, 1.5)])
def test_generate_clusters_rejects_sizes_that_are_not_counts(m, count):
    with pytest.raises(DomainError, match="must be an integer"):
        generate_clusters(0.3, 0.1, m, count, substream(0, 0, 0))


def test_generate_clusters_of_no_clusters_is_empty():
    y = generate_clusters(0.3, 0.1, np.int64(4), 0, substream(0, 0, 0))
    assert y.shape == (0, 4) and y.dtype == np.int8


def test_a_block_of_no_replicates_is_empty():
    sc = REFERENCE_DESIGNS["gamma-cv1"]
    m, s = crtgee.datagen.generate_block(sc, [])
    assert m.shape == s.shape == (0, 20)
    # a piece of no replicates adds nothing to a block of others
    wide = Scenario(n_clusters=24, sizes=FixedSize(3), pi0=0.3, pi1=0.3, icc=0.1, seed=1)
    m, s, error = crtgee.datagen.generate_pieces([(wide, []), *MIXED_PIECES])
    alone_m, alone_s, _ = crtgee.datagen.generate_pieces(MIXED_PIECES)
    assert error is None and m.shape == (len(alone_m), 24)
    clusters = np.r_[0:6, 12:18]
    assert np.array_equal(m[:, clusters], alone_m) and np.array_equal(s[:, clusters], alone_s)


# --- the generators' keys: numpy's SeedSequence hash, once per (seed, scenario) -------


#: seeds and indices of one, two and more 32-bit words
KEY_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128]
KEY_INDICES = [0, 1, 2**32 - 1, 2**32 + 5]


def test_philox_keys_equal_the_seed_sequence_state():
    for seed in KEY_SEEDS:
        for scenario in KEY_INDICES:
            seed_pool = crtgee.datagen._seed_pool(seed, scenario)
            for rep in KEY_INDICES:
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(scenario, rep))
                want = tuple(ss.generate_state(2, np.uint64).tolist())
                assert crtgee.datagen._philox_key(seed_pool, rep) == want, (seed, scenario, rep)


def test_each_generator_draws_what_a_seed_sequence_philox_draws():
    sizes = GammaSize(30.0, 1.0)
    for seed, scenario in ((2026, 3), (2**64 + 1, 2**32 + 5)):
        reps = [0, 1, 7, 2**32 - 1, 2**32 + 5]
        rngs = crtgee.datagen._generators(seed, scenario, reps)
        for rng, alone, rep in zip(rngs, (substream(seed, scenario, r) for r in reps), reps):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(scenario, rep))
            want = np.random.Generator(np.random.Philox(ss))
            m = sizes.draw(20, want)
            assert np.array_equal(sizes.draw(20, rng), m)
            assert np.array_equal(sizes.draw(20, alone), m)
            u = want.random(int(m.sum())).tolist()
            assert rng.random(len(u)).tolist() == u == alone.random(len(u)).tolist()


def test_a_philox_key_answers_only_the_request_philox_makes():
    key = crtgee.datagen._PhiloxKey((2**64 - 1, 5))
    assert key.generate_state(2, np.uint64).tolist() == [2**64 - 1, 5]
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (1, np.uint64), (4, np.uint64)):
        with pytest.raises(ValueError, match="a Philox key is 2 uint64 words"):
            key.generate_state(n_words, dtype)


@pytest.mark.parametrize("tail_rows", [0, 1, 7, 64, 10**9])
def test_the_count_only_tail_equals_the_reference(monkeypatch, tail_rows):
    # without outcomes the rows left after the column passes only count their events
    monkeypatch.setattr(crtgee.datagen, "TAIL_ROWS", tail_rows)
    rng = substream(16, tail_rows, 0)
    sizes = np.maximum(np.rint(rng.gamma(1.0, 20.0, 90)).astype(int), 1)
    flat = rng.random(int(sizes.sum()))
    mu = rng.uniform(0.05, 0.6, sizes.size)
    for rho in (0.1, rng.choice([0.0, 0.05, 0.3], sizes.size)):
        counts = crtgee.datagen._draw_rows(flat, sizes, mu, rho)
        assert counts.tolist() == [int(y.sum()) for y in reference_rows(flat, sizes, mu, rho)]
