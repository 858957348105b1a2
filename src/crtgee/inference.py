"""Wald t-inference for the arm effect on link and effect-measure scales.

`wald_inference` reports one fit in full (t, p-value, intervals on both
scales). The Monte Carlo path needs only each fit's standard error and
test decision: `wald_reject` forms both for a block of fits, rejecting
where |t| exceeds the cached t_{N-2} critical value of each fit's N, and
computes no p-values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError, UsageError
from .families import Link
from .tdist import student_t_quantile, student_t_two_sided_p


class EffectMeasure(enum.Enum):
    RR = "rr"   # risk ratio, log link
    RD = "rd"   # risk difference, identity link
    OR = "or"   # odds ratio, logit link


_MEASURE_FOR_LINK = {
    Link.LOG: EffectMeasure.RR,
    Link.IDENTITY: EffectMeasure.RD,
    Link.LOGIT: EffectMeasure.OR,
}


def default_measure(link):
    """The effect measure the link estimates."""
    return _MEASURE_FOR_LINK[link]


@dataclass
class InferenceResult:
    effect_measure: EffectMeasure
    estimate_link: float        # arm coefficient on the link scale
    estimate_effect: float      # RR/OR: exp(beta1); RD: beta1
    se: float
    df: int
    t_stat: float
    p_value: float
    ci_link: tuple
    ci_effect: tuple
    alpha_level: float
    estimator_kind: object = None

    @property
    def reject(self):
        return self.p_value < self.alpha_level


def _exp(x):
    """math.exp saturated to inf where it would overflow (x past about 709)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def wald_inference(fit, var, alpha_level=0.05):
    """Wald t-test and CI for the arm effect using one variance estimate.

    Degrees of freedom are N - 2 for N clusters and the two mean parameters.
    The effect is the measure the fit's link estimates (default_measure).
    The effect-scale interval exponentiates the link-scale interval for
    log and logit links and is the identity for the identity link; an
    exponentiated value past the float range is inf.
    """
    if not 0.0 < alpha_level < 1.0:
        raise UsageError(f"alpha_level must lie in (0, 1), got {alpha_level}")

    cov11 = float(var.cov[1, 1])
    if not cov11 > 0.0:
        raise DegenerateVarianceError(
            f"arm-effect variance is {cov11}; Wald inference undefined"
        )
    se = math.sqrt(cov11)
    beta1 = float(fit.beta[1])
    df = fit.n_clusters - 2

    t_stat = beta1 / se
    p_value = student_t_two_sided_p(t_stat, df)
    t_crit = student_t_quantile(alpha_level / 2.0, df)
    lo = beta1 - t_crit * se
    hi = beta1 + t_crit * se

    if fit.spec.link is Link.IDENTITY:
        estimate_effect = beta1
        ci_effect = (lo, hi)
    else:
        estimate_effect = _exp(beta1)
        ci_effect = (_exp(lo), _exp(hi))

    return InferenceResult(
        effect_measure=default_measure(fit.spec.link),
        estimate_link=beta1,
        estimate_effect=estimate_effect,
        se=se,
        df=df,
        t_stat=t_stat,
        p_value=p_value,
        ci_link=(lo, hi),
        ci_effect=ci_effect,
        alpha_level=alpha_level,
        estimator_kind=var.kind,
    )


def wald_reject(beta1, cov11, df, alpha_level=0.05):
    """Standard errors and two-sided Wald t decisions for a block of fits.

    `beta1` (F,) holds each fit's arm coefficient and `cov11` its variance,
    (F,), or a stack (K, F) of K estimates of it. A fit rejects where
    |beta1 / se| > t_crit, the upper alpha_level/2 quantile of t with `df`
    degrees of freedom: one number for every fit, or an array of one per
    fit, whose quantile is found once per distinct value. Returns (se,
    reject, degenerate), each shaped like `cov11`: `degenerate` marks
    variances that are not positive, where Wald inference is undefined, se
    is NaN and the fit does not reject.
    """
    if not 0.0 < alpha_level < 1.0:
        raise UsageError(f"alpha_level must lie in (0, 1), got {alpha_level}")
    if np.ndim(df):
        values, which = np.unique(df, return_inverse=True)
        t_crit = np.array([student_t_quantile(alpha_level / 2.0, v)
                           for v in values.tolist()])[which]
    else:
        t_crit = student_t_quantile(alpha_level / 2.0, df)
    degenerate = ~(cov11 > 0.0)
    se = np.sqrt(np.where(degenerate, np.nan, cov11))
    return se, np.abs(beta1 / se) > t_crit, degenerate
