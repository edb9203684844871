import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import norm

from drmel import (
    DegenerateSampleError,
    DomainError,
    Exponential,
    InvalidArgumentError,
    InvalidLevelError,
    Normal,
    TwoSampleData,
    fit_parametric,
    parametric_quantile,
    parametric_quantile_avar,
    theta_from_submodel,
)
from drmel.parametric import EXPONENTIAL, NORMAL_COMMON, NORMAL_FREE, ParametricFamily


def family(tag, mu0, mu1, sigma0=None, sigma1=None, n0=100, n1=100):
    return ParametricFamily(tag, mu0, mu1, sigma0, sigma1, n0, n1)


def test_normal_mle_divisor_n():
    data = TwoSampleData(x0=[0.0, 2.0], x1=[1.0, 3.0])
    fit = fit_parametric(data, NORMAL_FREE)
    assert fit.mu1 == 2.0
    assert fit.sigma1 == pytest.approx(1.0)  # MLE divisor 2, not 1


def test_exponential_mean():
    data = TwoSampleData(x0=[1.0, 2.0], x1=[2.0, 4.0])
    fit = fit_parametric(data, EXPONENTIAL)
    assert fit.mu1 == 3.0


def test_common_variance_pooled():
    data = TwoSampleData(x0=[0.0, 2.0], x1=[10.0, 12.0])
    fit = fit_parametric(data, NORMAL_COMMON)
    assert fit.mu0 == 1.0 and fit.mu1 == 11.0
    assert fit.sigma1**2 == pytest.approx(1.0)


def test_exponential_rejects_nonpositive_data():
    with pytest.raises(DomainError):
        fit_parametric(TwoSampleData(x0=[1.0, -1.0], x1=[1.0, 2.0]), EXPONENTIAL)


def test_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        fit_parametric(TwoSampleData(x0=[1.0, 1.0], x1=[1.0, 1.0]), NORMAL_FREE)


def test_quantile_points():
    f = family(NORMAL_FREE, 0.0, 0.0, 1.0, 1.0)
    assert parametric_quantile(f, 0.5).point == pytest.approx(0.0, abs=1e-12)

    f = family(EXPONENTIAL, 1.0, 1.0)
    assert parametric_quantile(f, 0.99).point == pytest.approx(-math.log(0.01), rel=1e-10)

    f = family(NORMAL_FREE, 0.0, 2.0, 1.0, math.sqrt(2.0))
    expected = 2.0 + float(norm.ppf(0.05)) * math.sqrt(2.0)
    assert expected == pytest.approx(-0.3262, abs=2e-4)
    assert parametric_quantile(f, 0.05).point == pytest.approx(expected, rel=1e-12)


def test_quantile_avar_closed_forms():
    f = family(NORMAL_FREE, 0.0, 0.0, 1.0, 1.0)
    assert parametric_quantile_avar(f, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert parametric_quantile_avar(f, 0.01) == pytest.approx(3.70595, abs=2e-4)

    f = family(EXPONENTIAL, 1.0, 1.0)
    assert parametric_quantile_avar(f, 0.99) == pytest.approx(21.2076, abs=1e-3)

    with pytest.raises(InvalidLevelError):
        parametric_quantile_avar(f, 1.0)


def test_avar_symmetric_in_level_for_normal():
    f = family(NORMAL_FREE, 0.0, 1.0, 1.0, 2.0)
    for p in (0.01, 0.2, 0.4):
        assert parametric_quantile_avar(f, p) == pytest.approx(
            parametric_quantile_avar(f, 1 - p), rel=1e-12
        )


def test_cdf_values():
    assert family(NORMAL_FREE, 0, 0, 1.0, 1.0).target.cdf(0.0) == pytest.approx(0.5)
    assert family(EXPONENTIAL, 1.0, 1.0).target.cdf(0.0) == 0.0
    assert family(EXPONENTIAL, 2.0, 2.0).target.cdf(2.0 * math.log(2.0)) == pytest.approx(0.5)


def test_quantile_is_inverse_of_cdf():
    # MLE invariance: the closed-form quantile equals the numeric inverse
    cases = [
        (family(NORMAL_FREE, 0.0, 1.3, 1.0, 0.7), 0.25),
        (family(EXPONENTIAL, 1.0, 2.5), 0.9),
        (family(NORMAL_COMMON, 0.0, 1.0, 1.1, 1.1), 0.05),
    ]
    for f, p in cases:
        point = parametric_quantile(f, p).point
        inverse = brentq(lambda x: f.target.cdf(x) - p, -100.0, 100.0, xtol=1e-13)
        assert point == pytest.approx(inverse, abs=1e-10)


def test_theta_from_submodel():
    f = family(NORMAL_FREE, 1.0, 1.0, 2.0, 2.0)
    np.testing.assert_allclose(theta_from_submodel(f), 0.0, atol=1e-15)

    f = family(NORMAL_COMMON, 0.0, 1.0, 1.0, 1.0)
    np.testing.assert_allclose(theta_from_submodel(f), [-0.5, 1.0])

    f = family(EXPONENTIAL, 1.0, 2.0)
    np.testing.assert_allclose(theta_from_submodel(f), [math.log(0.5), 0.5])

    with pytest.raises(InvalidArgumentError, match="gamma"):
        theta_from_submodel(family("gamma", 1.0, 1.0))


def test_theta_from_submodel_matches_density_log_ratio():
    f = family(NORMAL_FREE, 0.3, 1.1, 0.9, 1.4)
    alpha, b1, b2 = theta_from_submodel(f)
    for x in (-1.0, 0.0, 0.5, 2.0):
        lhs = norm.logpdf(x, 1.1, 1.4) - norm.logpdf(x, 0.3, 0.9)
        assert lhs == pytest.approx(alpha + b1 * x + b2 * x * x, rel=1e-10)


@pytest.mark.parametrize("tag", [NORMAL_FREE, NORMAL_COMMON, EXPONENTIAL])
def test_generator_and_fitted_family_formulas_are_bit_equal(tag):
    """The simulation truth and baseline variance of a generator, and the MLE
    point and variance of a family fitted to that generator, are one formula."""
    if tag == EXPONENTIAL:
        gen, f = Exponential(1.7), family(tag, 1.0, 1.7, n0=300, n1=100)
    else:
        gen, f = Normal(0.3, 1.9), family(tag, 0.0, 0.3, 1.9, 1.9, n0=300, n1=100)
    assert f.target == gen
    for p in np.linspace(0.001, 0.999, 50).tolist():
        assert parametric_quantile(f, p).point == gen.quantile(p)
        if tag == NORMAL_COMMON:
            z = float(ndtri(p))
            assert parametric_quantile_avar(f, p) == 1.9**2 * (1.0 + 0.25 * z**2 / 2.0)
        else:
            assert parametric_quantile_avar(f, p) == gen.quantile_avar(p)


def test_draws_are_bit_equal_to_the_closed_form_expressions():
    u = np.concatenate([np.random.default_rng(5).random(10**5),
                        [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]])
    with np.errstate(divide="ignore"):
        for mu, sigma in ((0.0, 1.0), (-3.5, 0.25), (1e6, 7.3)):
            expected = mu + sigma * ndtri(u)
            assert Normal(mu, sigma).ppf(u).tobytes() == expected.tobytes()
        for mean in (1.0, 0.3, 2.5e4):
            expected = -mean * np.log1p(-u)
            assert Exponential(mean).ppf(u).tobytes() == expected.tobytes()
