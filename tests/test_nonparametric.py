import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import norm

from drmel import (
    DegenerateSampleError,
    Ecdf,
    InvalidArgumentError,
    InvalidLevelError,
    KdeModel,
    NonpositiveDensityError,
    empirical_quantile,
    empirical_quantile_avar,
    kde_density,
    silverman_bandwidth,
)


def test_empirical_quantile_order_statistics():
    ecdf = Ecdf.from_sample([3.0, 1.0, 2.0])
    assert empirical_quantile(ecdf, 0.5) == 2.0
    assert empirical_quantile(ecdf, 0.99) == 3.0
    assert empirical_quantile(Ecdf.from_sample([10.0, 20.0, 30.0]), 1 / 3) == 10.0
    with pytest.raises(InvalidLevelError):
        empirical_quantile(ecdf, 1.0)


def test_empirical_quantile_inf_characterization(rng):
    for _ in range(20):
        sample = rng.normal(size=int(rng.integers(3, 40)))
        ecdf = Ecdf.from_sample(sample)
        for p in (0.05, 0.37, 0.5, 0.93):
            xi = empirical_quantile(ecdf, p)
            assert ecdf.evaluate(xi) >= p
            assert ecdf.evaluate(xi - 1e-9) < p


def test_empirical_quantile_affine_equivariance(rng):
    sample = rng.normal(size=25)
    ecdf = Ecdf.from_sample(sample)
    mapped = Ecdf.from_sample(2.5 * sample + 1.0)
    for p in (0.1, 0.5, 0.8):
        assert empirical_quantile(mapped, p) == pytest.approx(
            2.5 * empirical_quantile(ecdf, p) + 1.0, rel=1e-12
        )


def test_empirical_quantile_avar_values():
    assert empirical_quantile_avar(0.5, float(norm.pdf(0.0))) == pytest.approx(
        math.pi / 2.0, rel=1e-12
    )
    assert empirical_quantile_avar(0.99, 0.01) == pytest.approx(99.0, rel=1e-12)
    assert empirical_quantile_avar(0.5, 1.0) == 0.25
    for density in (0.0, 1e-170, math.inf, math.nan):  # 1e-170: positive, but its square is 0.0
        with pytest.raises(NonpositiveDensityError):
            empirical_quantile_avar(0.5, density)


def test_a_tiny_bandwidth_gives_a_finite_density_or_a_typed_error():
    with pytest.raises(InvalidArgumentError, match="bandwidth"):
        KdeModel(sample=[1.0, 2.0], bandwidth=5e-324)  # dividing by it overflows
    model = KdeModel(sample=[1.0, 2.0], bandwidth=1e-300)
    assert kde_density(model, 1e10) == 0.0  # every kernel argument overflows
    assert kde_density(model, 1.0) == float(norm.pdf(0.0)) / 2.0 / 1e-300  # one of them does
    assert math.isfinite(kde_density(KdeModel(sample=[1.0, 2.0], bandwidth=sys.float_info.min), 1.0))


def test_kde_single_point():
    model = KdeModel(sample=[0.0], bandwidth=1.0)
    assert kde_density(model, 0.0) == pytest.approx(float(norm.pdf(0.0)), rel=1e-12)


@pytest.mark.parametrize("sample", [[], [1.0, math.nan], [math.inf, 0.0]], ids=["empty", "nan", "inf"])
def test_kde_rejects_an_empty_or_nonfinite_sample(sample):
    with pytest.raises(InvalidArgumentError, match="sample (is empty|must be finite)"):
        KdeModel(sample=sample, bandwidth=1.0)


@pytest.mark.parametrize("sample", [[], [math.nan, 1.0, 2.0], [math.inf, 1.0], [-math.inf]],
                         ids=["empty", "nan", "inf", "-inf"])
def test_ecdf_rejects_an_empty_or_nonfinite_sample(sample):
    with pytest.raises(InvalidArgumentError, match="sample (is empty|must be finite)"):
        Ecdf.from_sample(sample)


def test_kde_symmetry():
    model = KdeModel(sample=[-2.0, 2.0], bandwidth=0.7)
    for x in (0.5, 1.0, 3.0):
        assert kde_density(model, x) == pytest.approx(kde_density(model, -x), rel=1e-12)


def test_kde_integrates_to_one(rng):
    sample = rng.normal(size=40)
    h = silverman_bandwidth(sample)
    model = KdeModel(sample=sample, bandwidth=h)
    grid = np.linspace(sample.min() - 8 * h, sample.max() + 8 * h, 4001)
    total = simpson(kde_density(model, grid), x=grid)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_silverman_formula_on_fixed_sample():
    gen = np.random.default_rng(1024)
    sample = gen.normal(size=1024)
    h = silverman_bandwidth(sample)
    sd = np.std(sample, ddof=1)
    ecdf = Ecdf.from_sample(sample)
    iqr = empirical_quantile(ecdf, 0.75) - empirical_quantile(ecdf, 0.25)
    expected = 0.9 * min(sd, iqr / 1.34) * 1024 ** (-0.2)
    assert h == pytest.approx(expected, rel=1e-12)
    assert 0.15 < h < 0.3


def test_silverman_scale_equivariance(rng):
    sample = rng.normal(size=200)
    for c in (0.5, 3.0):
        assert silverman_bandwidth(c * sample) == pytest.approx(
            c * silverman_bandwidth(sample), rel=1e-12
        )


def test_silverman_degenerate():
    with pytest.raises(DegenerateSampleError):
        silverman_bandwidth([2.0, 2.0, 2.0])
    with pytest.raises(DegenerateSampleError):
        silverman_bandwidth([1.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_sample_that_is_not_finite_has_no_bandwidth(bad):
    # rejected before np.std, which would warn and then report zero spread
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="finite"):
            silverman_bandwidth([1.0, 2.0, bad])
        with pytest.raises(InvalidArgumentError, match="finite"):
            KdeModel.silverman([1.0, 2.0, bad])
