"""Student-t tail machinery against quadrature and scipy oracles."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from crtgee import DomainError
from crtgee.tdist import (
    _bisect_quantile,
    betainc,
    student_t_quantile,
    student_t_sf,
    student_t_two_sided_p,
)


def t_density(x, df):
    lognorm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(lognorm - ((df + 1) / 2.0) * math.log1p(x * x / df))


@pytest.mark.parametrize("df", [3, 8, 18, 48])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 2.306, 4.0])
def test_two_sided_p_matches_quadrature(df, t):
    body, err = scipy.integrate.quad(t_density, 0.0, t, args=(df,), epsabs=1e-12)
    assert err < 1e-9
    want = 2.0 * (0.5 - body)
    assert abs(student_t_two_sided_p(t, df) - want) < 5e-4
    assert student_t_two_sided_p(-t, df) == student_t_two_sided_p(t, df)


def test_df_8_critical_value_example():
    assert abs(student_t_two_sided_p(2.306, 8) - 0.05) < 5e-4


def test_normal_limit_at_large_df():
    want = math.erfc(1.96 / math.sqrt(2.0))
    assert abs(student_t_two_sided_p(1.96, 1_000_000) - want) < 5e-4
    assert abs(want - 0.05) < 1e-3


def test_sf_basics():
    assert student_t_sf(0.0, 7) == pytest.approx(0.5, abs=1e-12)
    assert student_t_two_sided_p(0.0, 7) == pytest.approx(1.0, abs=1e-12)
    assert student_t_sf(3.0, 7) + student_t_sf(-3.0, 7) == pytest.approx(1.0, abs=1e-12)


def test_sf_monotone_in_t_and_df():
    ts = np.linspace(0.0, 6.0, 40)
    vals = [student_t_sf(t, 9) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # heavier tails at smaller df
    assert student_t_sf(2.0, 3) > student_t_sf(2.0, 30)


@pytest.mark.parametrize("df", [3, 18, 48])
@pytest.mark.parametrize("q", [0.005, 0.025, 0.05, 0.25])
def test_quantile_round_trip(df, q):
    t = student_t_quantile(q, df)
    assert t > 0
    assert student_t_sf(t, df) == pytest.approx(q, abs=1e-10)


def test_quantile_against_scipy():
    import scipy.stats

    for df in (3, 8, 18, 48, 200):
        for q in (0.005, 0.025, 0.05, 0.25):
            want = float(scipy.stats.t.isf(q, df))
            assert student_t_quantile(q, df) == pytest.approx(want, rel=1e-9)


def test_cached_quantile_equals_fresh_bisection():
    for df in (3, 8, 18, 48):
        for q in (0.005, 0.025, 0.05, 0.5):
            first = student_t_quantile(q, df)
            again = student_t_quantile(q, df)
            assert first == again == _bisect_quantile.__wrapped__(q, df)


def test_bad_quantile_arguments_raise_after_a_good_call():
    student_t_quantile(0.025, 18)
    for q, df in ((0.025, 0), (0.025, -18), (0.0, 18), (0.6, 18), (-0.025, 18)):
        for _ in range(2):
            with pytest.raises(DomainError):
                student_t_quantile(q, df)


def test_sf_against_scipy_grid():
    import scipy.stats

    for df in (2, 5, 8, 18, 48, 120):
        for t in (-4.0, -1.3, 0.0, 0.7, 2.306, 6.0):
            want = float(scipy.stats.t.sf(t, df))
            assert student_t_sf(t, df) == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_betainc_against_scipy_grid():
    grid_ab = [0.5, 1.0, 2.5, 9.0, 24.0]
    xs = [0.0, 1e-6, 0.2, 0.5, 0.77, 1.0 - 1e-6, 1.0]
    for a in grid_ab:
        for b in grid_ab:
            for x in xs:
                want = float(scipy.special.betainc(a, b, x))
                assert betainc(a, b, x) == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_domain_errors():
    with pytest.raises(DomainError):
        student_t_sf(1.0, 0)
    with pytest.raises(DomainError):
        student_t_quantile(0.0, 5)
    with pytest.raises(DomainError):
        student_t_quantile(0.6, 5)
    with pytest.raises(DomainError):
        betainc(1.0, 1.0, 1.5)
    with pytest.raises(DomainError):
        betainc(-1.0, 1.0, 0.5)
