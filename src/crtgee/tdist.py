"""Student t tail probabilities via the regularized incomplete beta function.

The incomplete beta is evaluated with the standard continued fraction
(modified Lentz recurrence), switching to the complementary expansion when
that side converges faster. Relative tolerance 1e-12, 300-term cap.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError

_TINY = 1e-300
_TOL = 1e-12
_MAX_TERMS = 300


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta, Lentz's method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_TERMS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _TOL:
            break
    return h


def betainc(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"betainc requires a, b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"betainc requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t, df):
    """Upper-tail probability P(T > t) for Student t with df > 0."""
    if df <= 0.0:
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    tail = 0.5 * betainc(df / 2.0, 0.5, x)
    return tail if t > 0 else 1.0 - tail


def student_t_two_sided_p(t, df):
    """Two-sided p-value 2 P(T > |t|)."""
    return 2.0 * student_t_sf(abs(t), df)


def student_t_quantile(upper_prob, df):
    """Inverse survival function: the t >= 0 with P(T > t) = upper_prob.

    Solved by bisection on the monotone survival function; accepts
    probabilities in (0, 0.5]. Results are cached per (upper_prob, df):
    Wald inference asks for the same critical value on every fit of a cell.
    """
    if df <= 0.0:
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if not 0.0 < upper_prob <= 0.5:
        raise DomainError(f"upper_prob must lie in (0, 0.5], got {upper_prob}")
    return _bisect_quantile(upper_prob, df)


@functools.lru_cache(maxsize=1024)
def _bisect_quantile(upper_prob, df):
    if upper_prob == 0.5:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(2000):
        if student_t_sf(hi, df) <= upper_prob:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise DomainError(f"quantile bracket failed for p={upper_prob}, df={df}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if student_t_sf(mid, df) > upper_prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
