"""Link maps, variance functions, and model-spec validation."""

import numpy as np
import pytest

from crtgee import DomainError, Family, Link, ModelSpec, UsageError
from crtgee.families import (
    VALID_PAIRS,
    link_apply,
    link_inverse,
    link_mu_deriv,
    mean_in_range,
    parse_family,
    parse_link,
    variance_function,
)


def test_valid_pairs_are_exactly_six():
    assert len(VALID_PAIRS) == 6
    assert (Family.GAUSSIAN, Link.LOG) not in VALID_PAIRS
    assert (Family.GAUSSIAN, Link.LOGIT) not in VALID_PAIRS
    assert (Family.POISSON, Link.LOGIT) not in VALID_PAIRS


def test_modelspec_rejects_invalid_pair():
    with pytest.raises(UsageError):
        ModelSpec(Family.GAUSSIAN, Link.LOG)
    spec = ModelSpec(Family.BINOMIAL, Link.LOGIT)
    assert spec.label() == "binomial-logit"


@pytest.mark.parametrize("link", list(Link))
def test_link_round_trip(link):
    mu = np.array([0.02, 0.3, 0.5, 0.77])
    eta = link_apply(link, mu)
    back = link_inverse(link, eta)
    assert np.allclose(back, mu, rtol=0, atol=1e-14)


@pytest.mark.parametrize("link", list(Link))
def test_link_derivative_matches_finite_difference(link):
    eta = np.array([-1.3, -0.2, 0.4, 1.1])
    h = 1e-6
    numeric = (link_inverse(link, eta + h) - link_inverse(link, eta - h)) / (2 * h)
    assert np.allclose(link_mu_deriv(link, eta), numeric, rtol=1e-8, atol=1e-10)


def test_logit_inverse_is_overflow_safe():
    big = link_inverse(Link.LOGIT, np.array([800.0, -800.0]))
    assert big[0] == 1.0
    assert big[1] == 0.0


def test_variance_functions():
    mu = np.array([0.2, 0.5])
    assert np.allclose(variance_function(Family.BINOMIAL, mu), mu * (1 - mu))
    assert np.allclose(variance_function(Family.POISSON, mu), mu)
    assert np.allclose(variance_function(Family.GAUSSIAN, mu), 1.0)


def test_variance_function_domains():
    with pytest.raises(DomainError):
        variance_function(Family.BINOMIAL, np.array([1.0]))
    with pytest.raises(DomainError):
        variance_function(Family.BINOMIAL, np.array([0.0]))
    with pytest.raises(DomainError):
        variance_function(Family.POISSON, np.array([0.0]))


def test_mean_in_range_per_family():
    assert mean_in_range(Family.BINOMIAL, np.array([0.01, 0.99]))
    assert not mean_in_range(Family.BINOMIAL, np.array([0.5, 1.01]))
    assert mean_in_range(Family.POISSON, np.array([3.0]))
    assert not mean_in_range(Family.POISSON, np.array([0.0]))
    assert mean_in_range(Family.GAUSSIAN, np.array([-5.0, 5.0]))


def test_link_domain_errors():
    with pytest.raises(DomainError):
        link_apply(Link.LOG, np.array([0.0]))
    with pytest.raises(DomainError):
        link_apply(Link.LOGIT, np.array([1.0]))


def test_parsers():
    assert parse_family("Binomial") is Family.BINOMIAL
    assert parse_link(" log ") is Link.LOG
    with pytest.raises(UsageError):
        parse_family("beta")
    with pytest.raises(UsageError):
        parse_link("probit")
