"""Caller input is rejected with a typed DrmError: quantile levels at every
public entry point that takes one, confidence levels, and empty or invalid
samples, bandwidths and bases."""

import math

import numpy as np
import pytest

from drmel import (
    BasisSpec,
    DrmError,
    Ecdf,
    Exponential,
    FittedDrm,
    InvalidArgumentError,
    InvalidLevelError,
    KdeModel,
    Normal,
    QuantileEstimate,
    ResampleStudy,
    Scenario,
    TwoSampleData,
    avar_quantile,
    corollary_curve,
    corollary_variance,
    drm_quantile,
    drm_quantile_estimate,
    empirical_quantile,
    empirical_quantile_avar,
    fit_mele,
    fit_parametric,
    parametric_avar,
    parametric_quantile,
    parametric_quantile_avar,
    quantile_density,
    true_quantile,
)
from drmel.parametric import NORMAL_COMMON

SPEC = BasisSpec.quadratic()


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(7)
    data = TwoSampleData(x0=rng.normal(0.0, 1.0, 200), x1=rng.normal(0.2, 1.1, 60))
    return FittedDrm(data, SPEC, fit_mele(data, SPEC))


def _scenario(p):
    return Scenario(generator0=Normal(0, 1), generator1=Normal(0, 1), n1=10, k=2,
                    basis=SPEC, levels=(0.5, p))


LEVEL_ENTRY_POINTS = {
    "drm_quantile": lambda m, p: drm_quantile(m.g1, p),
    "drm_quantile_estimate": lambda m, p: drm_quantile_estimate(m, m.data, SPEC, p),
    "avar_quantile": lambda m, p: avar_quantile(m, m.data, SPEC, p, 1.0),
    "corollary_variance": lambda m, p: corollary_variance(1.0, p, 1.0, 1.0),
    "empirical_quantile": lambda m, p: empirical_quantile(Ecdf.from_sample(m.data.x1), p),
    "empirical_quantile_avar": lambda m, p: empirical_quantile_avar(p, 1.0),
    "parametric_quantile": lambda m, p: parametric_quantile(fit_parametric(m.data, NORMAL_COMMON), p),
    "parametric_quantile_avar": lambda m, p: parametric_quantile_avar(
        fit_parametric(m.data, NORMAL_COMMON), p),
    "Normal.quantile": lambda m, p: Normal(0, 1).quantile(p),
    "Normal.density_at_quantile": lambda m, p: Normal(0, 1).density_at_quantile(p),
    "Normal.quantile_avar": lambda m, p: Normal(0, 1).quantile_avar(p),
    "Exponential.quantile": lambda m, p: Exponential(1.0).quantile(p),
    "Exponential.density_at_quantile": lambda m, p: Exponential(1.0).density_at_quantile(p),
    "Exponential.quantile_avar": lambda m, p: Exponential(1.0).quantile_avar(p),
    "true_quantile": lambda m, p: true_quantile(Exponential(1.0), p),
    "quantile_density": lambda m, p: quantile_density(Exponential(1.0), p),
    "parametric_avar": lambda m, p: parametric_avar(Exponential(1.0), p),
    "corollary_curve": lambda m, p: corollary_curve(Normal(0, 1), p, [1.0]),
    "Scenario": lambda m, p: _scenario(p),
    "ResampleStudy": lambda m, p: ResampleStudy(base="a", targets=("b",), n0_grid=(5,),
                                                n_grid=(5,), levels=(0.5, p)),
}


@pytest.mark.parametrize("p", [0.0, 1.0, 1.5])
@pytest.mark.parametrize("entry", sorted(LEVEL_ENTRY_POINTS))
def test_every_level_entry_point_rejects_levels_outside_the_unit_interval(model, entry, p):
    with pytest.raises(InvalidLevelError):
        LEVEL_ENTRY_POINTS[entry](model, p)


CI_ENTRY_POINTS = {
    "QuantileEstimate.normal": lambda m, ci: QuantileEstimate.normal(0.5, 0.0, 1.0, 10, ci, "x"),
    "drm_quantile_estimate": lambda m, ci: drm_quantile_estimate(m, m.data, SPEC, 0.5, ci),
    "parametric_quantile": lambda m, ci: parametric_quantile(
        fit_parametric(m.data, NORMAL_COMMON), 0.5, ci),
}


@pytest.mark.parametrize("ci", [0.0, 1.0, 1.5, -0.5, math.nan])
@pytest.mark.parametrize("entry", sorted(CI_ENTRY_POINTS))
def test_confidence_level_outside_the_unit_interval_is_rejected(model, entry, ci):
    with pytest.raises(InvalidArgumentError, match="ci_level"):
        CI_ENTRY_POINTS[entry](model, ci)


def test_normal_interval_is_point_plus_minus_z_standard_errors():
    est = QuantileEstimate.normal(0.3, 2.0, 9.0, 4, 0.95, "m")
    assert est.std_error == 1.5
    half = 1.959963984540054 * 1.5
    assert (est.ci_low, est.ci_high) == pytest.approx((2.0 - half, 2.0 + half), rel=1e-15)
    assert (est.level, est.method) == (0.3, "m")


@pytest.mark.parametrize(
    "make",
    [
        lambda: TwoSampleData(x0=[], x1=[1.0]),
        lambda: TwoSampleData(x0=[1.0, math.inf], x1=[1.0]),
        lambda: TwoSampleData(x0=[1.0], x1=[math.nan]),
        lambda: Ecdf.from_sample([]),
        lambda: KdeModel(sample=[1.0, 2.0], bandwidth=0.0),
        lambda: BasisSpec.custom([]),
        lambda: Scenario(generator0=Normal(0, 1), generator1=Normal(0, 1), n1=10, k=1e308,
                         basis=SPEC),
        lambda: Scenario(generator0=Normal(0, 1), generator1=Normal(0, 1), n1=10, k=math.inf,
                         basis=SPEC),
        lambda: Scenario(generator0=Normal(0, 1), generator1=Normal(0, 1), n1=10**400, k=1,
                         basis=SPEC),
        lambda: Normal(mu=math.inf, sigma=1.0),
        lambda: Normal(mu=math.nan, sigma=1.0),
        lambda: Normal(mu=0.0, sigma=math.inf),
        lambda: Exponential(mean=math.inf),
    ],
    ids=["empty-sample", "infinite-value", "nan-value", "empty-ecdf", "zero-bandwidth",
         "empty-custom-basis", "overflowing-k", "infinite-k", "overflowing-n1", "infinite-mu",
         "nan-mu", "infinite-sigma", "infinite-mean"],
)
def test_invalid_input_raises_a_typed_error(make):
    with pytest.raises(InvalidArgumentError) as err:
        make()
    assert isinstance(err.value, DrmError)


def test_scenario_rejects_an_unknown_generator():
    with pytest.raises(InvalidArgumentError, match="unknown generator"):
        Scenario(generator0=Normal(0, 1), generator1="normal", n1=10, k=2, basis=SPEC)
