import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from drmel import (
    BasisSpec,
    DegenerateVarianceError,
    FittedDrm,
    InvalidArgumentError,
    InvalidLevelError,
    NonpositiveDensityError,
    QuantileEstimate,
    TwoSampleData,
    WeightedCdf,
    avar_g1_at,
    avar_quantile,
    avar_theta,
    avar_theta_inverse_form,
    corollary_variance,
    drm_quantile,
    drm_quantile_estimate,
    estimate_g0,
    estimate_g1,
    evaluate_matrix,
)
from drmel import estimators
from conftest import random_basis, random_two_sample


def fitted(x0, x1, spec):
    return FittedDrm(TwoSampleData(x0=x0, x1=x1), spec)


def test_identical_symmetric_data_gives_pooled_empirical_cdf():
    spec = BasisSpec.quadratic()
    model = fitted([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], spec)
    g1 = estimate_g1(model)
    np.testing.assert_allclose(g1.mass, np.full(6, 1 / 6), atol=1e-9)
    g0 = estimate_g0(model)
    np.testing.assert_allclose(g0.mass, np.full(6, 1 / 6), atol=1e-9)


def test_cdf_is_one_beyond_max(rng):
    spec = BasisSpec.linear()
    data = random_two_sample(rng)
    g1 = estimate_g1(FittedDrm(data, spec))
    assert g1.evaluate(data.pooled().max() + 1.0) == pytest.approx(1.0, abs=1e-8)
    assert g1.evaluate(data.pooled().min() - 1.0) == 0.0


def test_two_point_toy_masses_match_hand_computation():
    spec = BasisSpec.linear()
    model = fitted([0.0, 1.0], [0.0, 1.0], spec)
    fit, data = model.fit, model.data
    q = evaluate_matrix(spec, data.pooled())
    hand = fit.weights * np.exp(q @ fit.theta_hat)
    g1 = estimate_g1(model)
    order = np.argsort(data.pooled(), kind="stable")
    np.testing.assert_allclose(g1.mass, hand[order], rtol=1e-12)


def test_positive_tilt_orders_the_two_cdfs():
    gen = np.random.default_rng(3)
    spec = BasisSpec.linear()
    model = fitted(gen.normal(0, 1, 400), gen.normal(0.8, 1, 200), spec)
    assert model.fit.theta_hat[1] > 0
    g0 = estimate_g0(model)
    g1 = estimate_g1(model)
    for x in np.linspace(-3, 3, 25):
        assert g1.evaluate(x) <= g0.evaluate(x) + 1e-12


def test_drm_quantile_examples():
    cdf = WeightedCdf.from_points(np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 0.25))
    assert drm_quantile(cdf, 0.5) == 2.0
    assert drm_quantile(cdf, 0.1) == 1.0
    cdf2 = WeightedCdf.from_points(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25, 0.25]))
    assert drm_quantile(cdf2, 0.75) == 2.0
    with pytest.raises(InvalidLevelError):
        drm_quantile(cdf, 0.0)


@pytest.mark.parametrize("points, mass", [([1.0], [0.5, 0.5]), ([1.0, 2.0], [1.0])],
                         ids=["more-masses", "fewer-masses"])
def test_a_cdf_needs_one_mass_per_point(points, mass):
    with pytest.raises(InvalidArgumentError, match="points and masses differ in length"):
        WeightedCdf.from_points(points, mass)


def test_quantile_inf_characterization(rng):
    for _ in range(20):
        data = random_two_sample(rng)
        spec = random_basis(rng)
        g1 = estimate_g1(FittedDrm(data, spec))
        for p in (0.1, 0.5, 0.9):
            xi = drm_quantile(g1, p)
            assert g1.evaluate(xi) >= p
            idx = int(np.searchsorted(g1.support, xi, side="left"))
            below = 0.0 if idx == 0 else float(g1.cumulative[idx - 1])
            assert below < p


def test_avar_theta_forms_agree_and_block_structure(rng):
    for _ in range(10):
        data = random_two_sample(rng)
        spec = random_basis(rng)
        model = FittedDrm(data, spec)
        a = avar_theta(model)
        b = avar_theta_inverse_form(model)
        np.testing.assert_allclose(a, b, atol=1e-8)
        assert np.allclose(a, a.T)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() >= -1e-10
        # (0,0) entry equals E1[q-]' Var1^-1[q-] E1[q-]
        g1 = estimate_g1(model)
        q_minus = evaluate_matrix(spec, g1.support)[:, 1:]
        mean_q = g1.mass @ q_minus
        var_q = (q_minus * g1.mass[:, None]).T @ q_minus - np.outer(mean_q, mean_q)
        expected = mean_q @ np.linalg.solve(var_q, mean_q)
        assert a[0, 0] == pytest.approx(expected, rel=1e-8, abs=1e-10)


def population_theta_avar_quadratic():
    """Limiting variance matrix for standard-normal target and quadratic
    basis, from numeric integration against the true density."""
    moments = {}
    for i in range(5):
        moments[i] = quad(lambda t, i=i: t**i * norm.pdf(t), -np.inf, np.inf)[0]
    mean_q = np.array([moments[1], moments[2]])
    second = np.array(
        [[moments[2], moments[3]], [moments[3], moments[4]]]
    )
    var_q = second - np.outer(mean_q, mean_q)
    m = np.vstack([-mean_q, np.eye(2)])
    return m @ np.linalg.inv(var_q) @ m.T


def test_avar_theta_large_sample_matches_quadrature():
    gen = np.random.default_rng(11)
    spec = BasisSpec.quadratic()
    model = fitted(gen.normal(0, 1, 60_000), gen.normal(0, 1, 20_000), spec)
    target = population_theta_avar_quadratic()
    np.testing.assert_allclose(avar_theta(model), target, atol=0.15)


def test_avar_g1_vanishes_outside_support(rng):
    data = random_two_sample(rng)
    spec = BasisSpec.linear()
    model = FittedDrm(data, spec)
    lo = data.pooled().min() - 1.0
    hi = data.pooled().max() + 1.0
    assert avar_g1_at(model, lo) == pytest.approx(0.0, abs=1e-12)
    assert avar_g1_at(model, hi) == pytest.approx(0.0, abs=1e-10)


def test_avar_g1_at_zero_matches_quadrature():
    # population value of the Theorem-3 bracket at x=0, standard normal
    q_part = np.array(
        [
            quad(lambda t: t * norm.pdf(t), -np.inf, 0.0)[0],
            quad(lambda t: t**2 * norm.pdf(t), -np.inf, 0.0)[0],
        ]
    )
    mean_q = np.array([0.0, 1.0])
    var_q = np.array([[1.0, 0.0], [0.0, 2.0]])
    bracket = q_part - mean_q * 0.5
    target = bracket @ np.linalg.solve(var_q, bracket)

    gen = np.random.default_rng(13)
    spec = BasisSpec.quadratic()
    model = fitted(gen.normal(0, 1, 60_000), gen.normal(0, 1, 20_000), spec)
    assert avar_g1_at(model, 0.0) == pytest.approx(target, abs=0.02)


def test_avar_quantile_scaling_and_consistency(rng):
    data = random_two_sample(rng)
    spec = BasisSpec.linear()
    model = FittedDrm(data, spec)
    v1 = avar_quantile(model, 0.5, 1.0)
    v2 = avar_quantile(model, 0.5, 2.0)
    assert v2 == pytest.approx(v1 / 4.0, rel=1e-12)
    for density in (0.0, math.inf, math.nan):
        with pytest.raises(NonpositiveDensityError):
            avar_quantile(model, 0.5, density)


def test_a_kde_density_whose_square_underflows_is_a_typed_error():
    # five points a side: the Silverman bandwidth is 0.019, and the pick at
    # p = 0.9 lies so far from every target point that the KDE there is
    # about 1e-167, whose square is 0.0
    rng = np.random.default_rng(293)
    x0 = np.exp(rng.normal(0.0, 0.5, 5))
    data = TwoSampleData(x0=x0, x1=np.exp(rng.normal(0.2, 0.6, 5)))
    spec = BasisSpec.linear()
    with pytest.raises(NonpositiveDensityError):
        drm_quantile_estimate(FittedDrm(data, spec), 0.9)


def test_avar_quantile_median_standard_normal_limit():
    # population quantities at the median: bracket = (-phi(0), 0),
    # variance = phi(0)^2 / phi(0)^2 = 1
    gen = np.random.default_rng(17)
    spec = BasisSpec.quadratic()
    model = fitted(gen.normal(0, 1, 60_000), gen.normal(0, 1, 20_000), spec)
    v = avar_quantile(model, 0.5, float(norm.pdf(0.0)))
    assert v == pytest.approx(1.0, abs=0.05)


def test_corollary_variance_limits():
    g = float(norm.pdf(norm.ppf(0.01)))
    empirical = 0.01 * 0.99 / g**2
    parametric = 1.0 + float(norm.ppf(0.01)) ** 2 / 2.0
    assert empirical == pytest.approx(13.94, abs=0.01)
    assert parametric == pytest.approx(3.7057, abs=1e-3)
    big_k = corollary_variance(1e6, 0.01, g, parametric)
    assert abs(big_k - parametric) <= 1e-5 * empirical
    # k = 100 weighted value sits near the simulated large-ratio variance
    assert corollary_variance(100.0, 0.01, g, parametric) == pytest.approx(3.807, abs=0.01)
    # weight 1/(0+1): pure empirical variance
    assert corollary_variance(0.0, 0.01, g, parametric) == pytest.approx(empirical, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        corollary_variance(-1.0, 0.5, 1.0, 1.0)


def test_quantile_estimate_interface(rng):
    data = random_two_sample(rng, max_n0=40, max_n1=40)
    spec = BasisSpec.linear()
    est = drm_quantile_estimate(FittedDrm(data, spec), 0.5)
    assert est.ci_low <= est.point <= est.ci_high
    z = float(norm.ppf(0.975))
    assert est.ci_high - est.ci_low == pytest.approx(2 * z * est.std_error, rel=1e-10)


@pytest.mark.parametrize("avar", [math.inf, math.nan, -1.0, 0.0])
def test_a_variance_that_is_not_positive_and_finite_is_a_typed_error(avar):
    with pytest.raises(DegenerateVarianceError, match="not positive and finite"):
        QuantileEstimate.normal(0.5, 1.0, avar, 10, 0.9)


def test_quantiles_do_not_depend_on_tie_order():
    # resampling a coarsely rounded population gives heavy ties across and
    # within both samples
    gen = np.random.default_rng(29)
    pop = np.round(gen.normal(0.0, 1.0, 60), 1)
    data = TwoSampleData(x0=gen.choice(pop, 3000), x1=gen.choice(pop, 300) + 0.2)
    spec = BasisSpec.quadratic()
    model = FittedDrm(data, spec)
    stable = WeightedCdf.from_points(data.pooled(), model.fit.tilted_weights)
    default = estimate_g1(model)
    assert np.unique(data.pooled()).size < 150
    np.testing.assert_array_equal(default.support, stable.support)
    for p in np.linspace(0.005, 0.995, 199):
        assert drm_quantile(default, p) == drm_quantile(stable, p)


def test_the_target_cdf_is_the_stable_sort_of_the_pooled_sample_bit_for_bit():
    # ties within and across both samples, and zeros of both signs in each
    gen = np.random.default_rng(31)
    pop = np.append(np.round(gen.normal(0.0, 1.0, 60), 1), [0.0, -0.2])

    def signed_zeros(x):
        x[np.flatnonzero(x == 0.0)[::2]] = -0.0
        return x

    data = TwoSampleData(x0=signed_zeros(gen.choice(pop, 3000)),
                         x1=signed_zeros(np.round(gen.choice(pop, 300) + 0.2, 1)))
    for x in (data.x0, data.x1):
        zeros = x[x == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert np.intersect1d(data.x0, data.x1).size > 5
    spec = BasisSpec.quadratic()
    model = FittedDrm(data, spec)
    pooled = data.pooled()
    # Python's sort is stable too, and shares no code with numpy's argsort
    order = sorted(range(pooled.size), key=pooled.__getitem__)
    for estimand, weights in ((estimate_g0, model.fit.weights),
                              (estimate_g1, model.fit.tilted_weights)):
        stable = WeightedCdf.from_points(pooled, weights)
        reference = {"support": pooled[order], "mass": weights[order],
                     "cumulative": np.cumsum(weights[order])}
        cdf = estimand(model)
        for field, expected in reference.items():
            assert getattr(stable, field).tobytes() == expected.tobytes()
            assert getattr(cdf, field).tobytes() == expected.tobytes()


def test_fitted_model_matches_separate_calls(rng):
    # one model shared by every call gives the bits of a new model per call
    levels = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
    for _ in range(5):
        data = random_two_sample(rng)
        spec = random_basis(rng)
        model = FittedDrm(data, spec)
        for p in levels:
            shared = drm_quantile_estimate(model, p, 0.9)
            assert shared == drm_quantile_estimate(FittedDrm(data, spec), p, 0.9)
            assert shared == model.estimate(p, 0.9)
        np.testing.assert_array_equal(avar_theta(model), avar_theta(FittedDrm(data, spec)))
        g1 = estimate_g1(FittedDrm(data, spec))
        np.testing.assert_array_equal(estimate_g1(model).cumulative, g1.cumulative)


def test_the_model_protocol_calls_the_traced_estimands_by_module_name(monkeypatch):
    # benchmarks/spans.py times these four by swapping the module's
    # attributes, so a model must reach them through the module's names
    calls = []
    for name in ("fit_mele", "estimate_g1", "drm_quantile_estimate", "avar_quantile"):
        def counted(*args, _name=name, _original=getattr(estimators, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(estimators, name, counted)
    gen = np.random.default_rng(7)
    model = fitted(gen.normal(0.0, 1.0, 200), gen.normal(0.2, 1.1, 60), BasisSpec.quadratic())
    assert calls == ["fit_mele"]
    calls.clear()
    model.quantile(0.5)
    assert calls == ["estimate_g1"]
    calls.clear()
    model.estimate(0.5)
    assert calls == ["drm_quantile_estimate", "estimate_g1", "avar_quantile"]
