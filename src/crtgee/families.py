"""Working families, link functions, and the model specification.

The analysis models are deliberately allowed to misspecify the outcome
distribution (Poisson or Gaussian working families for binary data); the
sandwich variance downstream repairs the misspecification. Only six
family/link pairs are meaningful for two-arm binary-outcome trials and
``ModelSpec`` rejects everything else. Every model has the same mean
structure, an intercept and the arm indicator, g(mu_ij) = beta_0 + beta_1 arm_i.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError


class Family(enum.Enum):
    BINOMIAL = "binomial"
    POISSON = "poisson"
    GAUSSIAN = "gaussian"


class Link(enum.Enum):
    LOG = "log"
    IDENTITY = "identity"
    LOGIT = "logit"


#: family/link pairs accepted by ModelSpec
VALID_PAIRS = frozenset(
    {
        (Family.BINOMIAL, Link.LOG),
        (Family.BINOMIAL, Link.IDENTITY),
        (Family.BINOMIAL, Link.LOGIT),
        (Family.POISSON, Link.LOG),
        (Family.POISSON, Link.IDENTITY),
        (Family.GAUSSIAN, Link.IDENTITY),
    }
)


@dataclass(frozen=True)
class ModelSpec:
    """One analysis model: working family x link, for the mean model intercept + arm."""

    family: Family
    link: Link

    def __post_init__(self):
        if (self.family, self.link) not in VALID_PAIRS:
            raise UsageError(
                f"unsupported family/link pair: {self.family.value}/{self.link.value}"
            )

    def label(self):
        return f"{self.family.value}-{self.link.value}"


def link_apply(link, mu):
    """Map a mean to the linear-predictor scale, eta = g(mu)."""
    mu = np.asarray(mu, dtype=float)
    if link is Link.LOG:
        if np.any(mu <= 0):
            raise DomainError(f"log link requires mu > 0, got {float(np.min(mu))}")
        return np.log(mu)
    if link is Link.LOGIT:
        if np.any(mu <= 0) or np.any(mu >= 1):
            bad = mu[(mu <= 0) | (mu >= 1)]
            raise DomainError(f"logit link requires 0 < mu < 1, got {float(bad.flat[0])}")
        return np.log(mu / (1.0 - mu))
    if link is Link.IDENTITY:
        return mu + 0.0
    raise UsageError(f"unknown link {link!r}")


def link_inverse(link, eta):
    """Map a linear predictor back to the mean scale, mu = g^{-1}(eta)."""
    eta = np.asarray(eta, dtype=float)
    if link is Link.LOG:
        return np.exp(eta)
    if link is Link.LOGIT:
        # logistic, written to avoid overflow for large |eta|
        out = np.empty_like(eta, dtype=float)
        pos = eta >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        ex = np.exp(eta[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out
    if link is Link.IDENTITY:
        return eta + 0.0
    raise UsageError(f"unknown link {link!r}")


def link_mu_deriv(link, eta):
    """Derivative of the mean with respect to the linear predictor, dmu/deta."""
    eta = np.asarray(eta, dtype=float)
    if link is Link.LOG:
        return np.exp(eta)
    if link is Link.LOGIT:
        mu = link_inverse(Link.LOGIT, eta)
        return mu * (1.0 - mu)
    if link is Link.IDENTITY:
        return np.ones_like(eta)
    raise UsageError(f"unknown link {link!r}")


def variance_function(family, mu):
    """Working variance V(mu) of the family (dispersion handled separately)."""
    mu = np.asarray(mu, dtype=float)
    if family is Family.BINOMIAL:
        if (mu <= 0).any() or (mu >= 1).any():
            bad = mu[(mu <= 0) | (mu >= 1)]
            raise DomainError(f"binomial variance requires 0 < mu < 1, got {float(bad.flat[0])}")
        return mu * (1.0 - mu)
    if family is Family.POISSON:
        if (mu <= 0).any():
            raise DomainError(f"poisson variance requires mu > 0, got {float(np.min(mu))}")
        return mu + 0.0
    if family is Family.GAUSSIAN:
        return np.ones_like(mu)
    raise UsageError(f"unknown family {family!r}")


def mean_in_range(family, mu, axis=None):
    """True when every entry of mu is a valid (finite) mean for the family.

    With `axis`, one answer per slice along it (per replicate for an (R, 2)
    array of arm means with axis=1).
    """
    mu = np.asarray(mu, dtype=float)
    if family is Family.BINOMIAL:
        ok = (mu > 0.0) & (mu < 1.0)
    elif family is Family.POISSON:
        ok = (mu > 0.0) & (mu < np.inf)
    else:
        ok = np.isfinite(mu)
    if axis is None:
        return bool(ok.all())
    return ok.all(axis=axis)


def parse_family(name):
    try:
        return Family(name.strip().lower())
    except ValueError:
        raise UsageError(f"unknown family {name!r}; expected one of "
                         f"{sorted(f.value for f in Family)}") from None


def parse_link(name):
    try:
        return Link(name.strip().lower())
    except ValueError:
        raise UsageError(f"unknown link {name!r}; expected one of "
                         f"{sorted(l.value for l in Link)}") from None
