"""Caller input is rejected with a typed DrmError: quantile levels at every
public entry point that takes one, confidence levels, and empty or invalid
samples, bandwidths, bases and limiting-variance inputs."""

import functools
import math
import re
import sys

import numpy as np
import pytest

from drmel import (
    BasisSpec,
    ColumnSpec,
    DegenerateSampleError,
    DrmError,
    Ecdf,
    Exponential,
    FittedDrm,
    InvalidArgumentError,
    InvalidLevelError,
    KdeModel,
    NonpositiveDensityError,
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
    estimate_g1,
    fit_parametric,
    parametric_quantile_avar,
    run_resample_study,
    run_scenario,
    theta_from_submodel,
)
from drmel.errors import check_level
from drmel.parametric import EXPONENTIAL, NORMAL_COMMON, NORMAL_FREE

SPEC = BasisSpec.quadratic()
# normal samples with means near 1e160, whose squares overflow
HUGE_MEANS = TwoSampleData(x0=[1e160, 1.0000001e160, 1.0000002e160],
                           x1=[1.00000005e160, 1.0000003e160, 1.0000004e160])


def _tilt(x0, x1, tag):
    return theta_from_submodel(fit_parametric(TwoSampleData(x0=x0, x1=x1), tag))


@functools.cache
def _fitted():
    rng = np.random.default_rng(7)
    data = TwoSampleData(x0=rng.normal(0.0, 1.0, 200), x1=rng.normal(0.2, 1.1, 60))
    return FittedDrm(data, SPEC)


@pytest.fixture(scope="module")
def model():
    return _fitted()


def _scenario(p):
    return Scenario(generator0=Normal(0, 1), generator1=Normal(0, 1), n1=10, k=2,
                    basis=SPEC, levels=(0.5, p))


LEVEL_ENTRY_POINTS = {
    "drm_quantile": lambda m, p: drm_quantile(estimate_g1(m), p),
    "drm_quantile_estimate": lambda m, p: drm_quantile_estimate(m, p),
    "avar_quantile": lambda m, p: avar_quantile(m, p, 1.0),
    "corollary_variance": lambda m, p: corollary_variance(1.0, p, 1.0, 1.0),
    "empirical_quantile": lambda m, p: empirical_quantile(Ecdf.from_sample(m.data.x1), p),
    "empirical_quantile_avar": lambda m, p: empirical_quantile_avar(p, 1.0),
    "ParametricFamily.estimate": lambda m, p: fit_parametric(m.data, NORMAL_COMMON).estimate(p),
    "parametric_quantile_avar": lambda m, p: parametric_quantile_avar(
        fit_parametric(m.data, NORMAL_COMMON), p),
    "Normal.quantile": lambda m, p: Normal(0, 1).quantile(p),
    "Normal.density_at_quantile": lambda m, p: Normal(0, 1).density_at_quantile(p),
    "Normal.quantile_avar": lambda m, p: Normal(0, 1).quantile_avar(p),
    "Exponential.quantile": lambda m, p: Exponential(1.0).quantile(p),
    "Exponential.density_at_quantile": lambda m, p: Exponential(1.0).density_at_quantile(p),
    "Exponential.quantile_avar": lambda m, p: Exponential(1.0).quantile_avar(p),
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
    "QuantileEstimate.normal": lambda m, ci: QuantileEstimate.normal(0.5, 0.0, 1.0, 10, ci),
    "drm_quantile_estimate": lambda m, ci: drm_quantile_estimate(m, 0.5, ci),
    "ParametricFamily.estimate": lambda m, ci: fit_parametric(m.data, NORMAL_COMMON).estimate(
        0.5, ci),
}


@pytest.mark.parametrize("ci", [0.0, 1.0, 1.5, -0.5, math.nan, "0.9"])
@pytest.mark.parametrize("entry", sorted(CI_ENTRY_POINTS))
def test_confidence_level_outside_the_unit_interval_is_rejected(model, entry, ci):
    with pytest.raises(InvalidArgumentError, match="ci_level"):
        CI_ENTRY_POINTS[entry](model, ci)


def test_normal_interval_is_point_plus_minus_z_standard_errors():
    est = QuantileEstimate.normal(0.3, 2.0, 9.0, 4, 0.95)
    assert est.std_error == 1.5
    half = 1.959963984540054 * 1.5
    assert (est.ci_low, est.ci_high) == pytest.approx((2.0 - half, 2.0 + half), rel=1e-15)
    assert est.level == 0.3


# each real-valued argument with bounds: (case id, the call that takes it, its name,
# its bounds as the message writes them, the nearest value outside them, the error)
REAL_ARGUMENTS = [
    ("corollary-k", lambda v: corollary_variance(v, 0.5, 1.0, 1.0), "k", "[0, inf)", -5e-324,
     InvalidArgumentError),
    ("corollary-parametric-avar", lambda v: corollary_variance(1.0, 0.5, 1.0, v),
     "parametric_avar", "[0, inf)", -5e-324, InvalidArgumentError),
    ("empirical-avar-density", lambda v: empirical_quantile_avar(0.5, v), "density_at",
     "(0, inf)", 0.0, NonpositiveDensityError),
    ("avar-quantile-density", lambda v: avar_quantile(_fitted(), 0.5, v), "density_at",
     "(0, inf)", 0.0, NonpositiveDensityError),
    ("kde-bandwidth", lambda v: KdeModel(sample=[1.0, 2.0], bandwidth=v), "bandwidth",
     f"[{sys.float_info.min}, inf)", math.nextafter(sys.float_info.min, 0.0),
     InvalidArgumentError),
]


@pytest.mark.parametrize(
    "make, error, named",
    [(make, InvalidArgumentError, None) for make in [
        lambda: TwoSampleData(x0=[], x1=[1.0]),
        lambda: TwoSampleData(x0=[1.0, math.inf], x1=[1.0]),
        lambda: TwoSampleData(x0=[1.0], x1=[math.nan]),
        lambda: Ecdf.from_sample([]),
        lambda: KdeModel(sample=[1.0, 2.0], bandwidth=0.0),
        lambda: KdeModel(sample=[1.0, 2.0], bandwidth=math.inf),
        lambda: KdeModel(sample=[1.0, 2.0], bandwidth=math.nan),
        lambda: corollary_variance(math.inf, 0.5, 0.3, 1.0),
        lambda: corollary_variance(1.0, 0.5, 0.3, math.nan),
        lambda: corollary_variance(1.0, 0.5, 0.3, math.inf),
        lambda: corollary_variance(1.0, 0.5, math.inf, 1.0),
        lambda: corollary_curve(Normal(0, 1), 0.5, [1.0, math.inf]),
        lambda: empirical_quantile_avar(0.5, 1.99e299),
        lambda: corollary_variance(1.0, 0.5, 1e200, 1.0),
        lambda: corollary_curve(Normal(0, 1e200), 0.5, [1.0]),
        lambda: corollary_curve(Exponential(1e200), 0.5, [1.0]),
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
        lambda: Scenario(generator0=Normal(0, 1), generator1=Normal(0, 1), n1=10, k=1e-12,
                         basis=SPEC),
        lambda: Scenario(generator0=Normal(0, 1), generator1=Normal(0, 1), n1=10, k=2,
                         basis=SPEC, levels=()),
        lambda: Scenario(generator0=Normal(0, 1), generator1=Normal(0, 1), n1=10, k=2,
                         basis=SPEC, methods=()),
        lambda: ResampleStudy(base="a", targets=("b",), n0_grid=(5,), n_grid=(5,), levels=()),
        lambda: ResampleStudy(base="a", targets=("b",), n0_grid=(5,), n_grid=(5,),
                              levels=(0.5,), methods=()),
        lambda: ResampleStudy(base="a", targets=("b",), n0_grid=(), n_grid=(5,), levels=(0.5,)),
        lambda: ResampleStudy(base="a", targets=("b",), n0_grid=(5,), n_grid=(), levels=(0.5,)),
    ]] + [(make, DegenerateSampleError, None) for make in [
        lambda: _tilt(HUGE_MEANS.x0, HUGE_MEANS.x1, NORMAL_COMMON),
        lambda: _tilt(HUGE_MEANS.x0, HUGE_MEANS.x1, NORMAL_FREE),
        lambda: _tilt([1e200, 2e200], [1e-200, 2e-200], EXPONENTIAL),
        lambda: _tilt([1e-200, 2e-200], [1e200, 2e200], EXPONENTIAL),
    ]] + [
        # a string or a single value where a run spec takes a sequence
        (lambda: _study(targets="2016"), InvalidArgumentError, "targets must be a sequence"),
        (lambda: _scenario_with(methods="empirical"), InvalidArgumentError,
         "methods must be a sequence"),
        (lambda: _study(methods="empirical"), InvalidArgumentError, "methods must be a sequence"),
        (lambda: _scenario_with(levels=0.5), InvalidArgumentError, "levels must be a sequence"),
        (lambda: _study(n0_grid=5), InvalidArgumentError, "n0_grid must be a sequence"),
        (lambda: _study(n_grid="5"), InvalidArgumentError, "n_grid must be a sequence"),
        (lambda: _scenario_with(levels=("0.5",)), InvalidLevelError, "a real number"),
        (lambda: check_level("0.5"), InvalidLevelError, "a real number"),
        (lambda: BasisSpec(kind="linear", transforms=(np.sin,)), InvalidArgumentError,
         "only a custom basis takes transforms"),
        (lambda: fit_parametric(TwoSampleData(x0=[1.0, 2.0], x1=[1.0, 2.0]), "bogus"),
         InvalidArgumentError, "unknown family tag 'bogus'"),
        (lambda: fit_parametric(TwoSampleData(x0=[1.7e308, 1.7e308], x1=[1.0, 2.0]), "normal"),
         DegenerateSampleError, "mean overflows"),
        (lambda: ColumnSpec("v", "g", "sqrt"), InvalidArgumentError, "unknown transform 'sqrt'"),
        (lambda: _study(targets=()), InvalidArgumentError, "at least one target"),
        (lambda: _scenario_with(basis="linear"), InvalidArgumentError,
         "basis must be a BasisSpec, got 'linear'"),
        # a real-valued setting is a real number other than a bool
        (lambda: _scenario_with(k="2"), InvalidArgumentError,
         r"k must be a real number in \(0, inf\), got '2'"),
        (lambda: _scenario_with(k=True), InvalidArgumentError, "k must be a real number"),
        (lambda: Normal(mu="0", sigma=1), InvalidArgumentError,
         r"mu must be a real number in \(-inf, inf\), got '0'"),
        (lambda: Normal(mu=True, sigma=1), InvalidArgumentError, "mu must be a real number"),
        (lambda: Exponential(mean="1"), InvalidArgumentError, "mean must be a real number"),
        (lambda: QuantileEstimate.normal(0.5, 0.0, 1.0, 10, "0.9"), InvalidArgumentError,
         r"ci_level must be a real number in \(0, 1\), got '0.9'"),
        (lambda: _scenario_with(scenario_id=None), InvalidArgumentError,
         "scenario_id must be a str, got None"),
        # an unordered collection has no order of its own to keep
        (lambda: _study(targets={"t1", "t2", "t3"}), InvalidArgumentError,
         "targets must be a sequence, not set"),
        (lambda: _study(methods=frozenset({"empirical"})), InvalidArgumentError,
         "methods must be a sequence, not frozenset"),
        (lambda: _scenario_with(methods={"drm": 1}), InvalidArgumentError,
         "methods must be a sequence, not dict"),
        (lambda: _scenario_with(levels={0.5}), InvalidArgumentError,
         "levels must be a sequence, not set"),
        # a grid of k is a sequence of real numbers
        (lambda: corollary_curve(Normal(0, 1), 0.5, "25"), InvalidArgumentError,
         "k_grid must be a sequence, not str"),
        (lambda: corollary_curve(Normal(0, 1), 0.5, [True]), InvalidArgumentError,
         r"k must be a real number in \[0, inf\), got True"),
        # a level of a run names its place in the list
        (lambda: _scenario_with(levels=(0.5, "0.9")), InvalidLevelError,
         r"levels\[1\]: quantile level must be a real number in \(0, 1\), got '0.9'"),
    ] + [
        # a string, True, NaN and the nearest value outside the bounds
        (functools.partial(call, v), error,
         re.escape(f"{name} must be a real number in {bounds}, got {v!r}"))
        for _, call, name, bounds, outside, error in REAL_ARGUMENTS
        for v in ("1", True, math.nan, outside)
    ],
    ids=["empty-sample", "infinite-value", "nan-value", "empty-ecdf", "zero-bandwidth",
         "infinite-bandwidth", "nan-bandwidth", "corollary-infinite-k",
         "corollary-nan-parametric-avar", "corollary-infinite-parametric-avar",
         "corollary-infinite-density", "corollary-curve-infinite-k",
         "overflowing-density-square", "corollary-overflowing-density-square",
         "corollary-curve-overflowing-normal-variance",
         "corollary-curve-overflowing-exponential-variance",
         "empty-custom-basis", "overflowing-k", "infinite-k", "overflowing-n1", "infinite-mu",
         "nan-mu", "infinite-sigma", "infinite-mean", "empty-base-sample",
         "scenario-without-levels", "scenario-without-methods", "study-without-levels",
         "study-without-methods", "study-without-n0", "study-without-n",
         "overflowing-normal-common-tilt", "overflowing-normal-tilt",
         "overflowing-exponential-tilt", "underflowing-exponential-tilt",
         "study-targets-a-string", "scenario-methods-a-string", "study-methods-a-string",
         "scenario-levels-a-number", "study-n0-grid-a-number", "study-n-grid-a-string",
         "scenario-level-a-string", "level-a-string", "named-basis-with-transforms",
         "unknown-family-tag", "overflowing-normal-mean", "unknown-transform",
         "study-without-targets", "scenario-basis-a-name", "k-a-string", "k-true",
         "mu-a-string", "mu-true", "mean-a-string", "ci-level-a-string",
         "scenario-id-none", "study-targets-a-set", "study-methods-a-frozenset",
         "scenario-methods-a-dict", "scenario-levels-a-set", "k-grid-a-string", "k-grid-true",
         "scenario-level-a-string-at-1"]
        + [f"{case}-{probe}" for case, *_ in REAL_ARGUMENTS
           for probe in ("a-string", "true", "nan", "just-outside")],
)
def test_invalid_input_raises_a_typed_error(make, error, named):
    with pytest.raises(error, match=named) as err:
        make()
    assert isinstance(err.value, DrmError)


def test_a_closed_bound_passes_and_is_stored_as_a_float():
    assert corollary_variance(0.0, 0.5, 1.0, 1.0) == 0.25
    assert corollary_variance(1, 0.5, 1.0, 0.0) == 0.125
    tiny = KdeModel(sample=[1.0, 2.0], bandwidth=sys.float_info.min)
    assert tiny.bandwidth == sys.float_info.min
    assert type(KdeModel(sample=[1.0, 2.0], bandwidth=np.float64(0.5)).bandwidth) is float


def test_scenario_rejects_an_unknown_generator():
    with pytest.raises(InvalidArgumentError, match="unknown generator"):
        Scenario(generator0=Normal(0, 1), generator1="normal", n1=10, k=2, basis=SPEC)


def _scenario_with(**overrides):
    return Scenario(**{"generator0": Normal(0, 1), "generator1": Normal(0, 1), "n1": 10, "k": 2,
                       "basis": SPEC, **overrides})


def _study(**overrides):
    return ResampleStudy(**{"base": "a", "targets": ("b",), "n0_grid": (5,), "n_grid": (5,),
                            "levels": (0.5,), **overrides})


def _scenario_json(**overrides):
    from drmel.cli import scenario_from_json

    return scenario_from_json({"generator0": {"dist": "normal", "mu": 0, "sigma": 1},
                               "generator1": {"dist": "normal", "mu": 0, "sigma": 1},
                               "n1": 10, "k": 2, **overrides})


@pytest.mark.parametrize(
    "field, make",
    [
        ("n1", lambda: _scenario_with(n1=10.5)),
        ("reps", lambda: _scenario_with(reps=2.5)),
        ("seed", lambda: _scenario_with(seed=1.5)),
        ("n1", lambda: _scenario_with(n1=math.inf)),
        ("reps", lambda: _scenario_with(reps=math.nan)),
        ("reps", lambda: _study(reps=2.5)),
        ("seed", lambda: _study(seed=math.inf)),
        ("n0_grid", lambda: _study(n0_grid=(5.7,))),
        ("n_grid", lambda: _study(n_grid=(5, math.nan))),
        ("n1", lambda: _scenario_json(n1=10.7)),
        ("reps", lambda: _scenario_json(reps=2.9)),
        ("seed", lambda: _scenario_json(seed=1.5)),
        ("n1", lambda: _scenario_json(n1="10")),
        ("reps", lambda: _scenario_json(reps=True)),
        ("seed", lambda: _scenario_json(seed=False)),
        ("n0_grid", lambda: _study(n0_grid=(True,))),
        ("workers", lambda: run_scenario(_scenario_with(reps=2), workers=1.5)),
        ("workers", lambda: run_scenario(_scenario_with(reps=2), workers="2")),
        ("workers", lambda: run_scenario(_scenario_with(reps=2), workers=True)),
        ("workers", lambda: run_resample_study(
            _study(reps=2), {"a": np.arange(9.0), "b": np.arange(7.0)}, workers=2.5)),
    ],
    ids=["scenario-n1", "scenario-reps", "scenario-seed", "scenario-infinite-n1",
         "scenario-nan-reps", "study-reps", "study-infinite-seed", "study-n0-grid",
         "study-nan-in-n-grid", "json-n1", "json-reps", "json-seed", "json-string-n1",
         "json-true-reps", "json-false-seed", "study-true-in-n0-grid", "scenario-float-workers",
         "scenario-string-workers", "scenario-true-workers", "study-float-workers"],
)
def test_a_count_that_is_not_a_whole_number_is_rejected(field, make):
    with pytest.raises(InvalidArgumentError, match=f"{field} must be a whole number"):
        make()


@pytest.mark.parametrize(
    "message, make",
    [
        ("reps must be a whole number in [1, 2**63), got 0", lambda: _scenario_with(reps=0)),
        ("reps must be a whole number in [1, 2**63), got -3", lambda: _study(reps=-3)),
        ("n1 must be a whole number in [2, 2**63), got 1", lambda: _scenario_with(n1=1)),
        ("n1 must be a whole number in [2, 2**63), got 9223372036854775808",
         lambda: _scenario_with(n1=2**63, k=1)),
        ("n0_grid must be a whole number in [1, 2**63), got 0", lambda: _study(n0_grid=(5, 0))),
        ("n_grid must be a whole number in [1, 2**63), got -1", lambda: _study(n_grid=(-1,))),
        ("workers must be a whole number in [1, 2**63), got 0",
         lambda: run_scenario(_scenario_with(reps=2), workers=0)),
    ],
    ids=["scenario-reps", "study-reps", "n1", "huge-n1", "n0-grid", "n-grid", "workers"],
)
def test_a_count_out_of_range_names_its_field_and_bounds(message, make):
    with pytest.raises(InvalidArgumentError) as err:
        make()
    assert str(err.value) == message


def test_whole_floats_and_numpy_integers_are_stored_as_ints():
    scenario = _scenario_with(n1=10.0, reps=np.int64(3), seed=7.0)
    assert (scenario.n1, scenario.reps, scenario.seed) == (10, 3, 7)
    assert all(type(v) is int for v in (scenario.n1, scenario.reps, scenario.seed))
    study = _study(n0_grid=(np.int32(5), 6.0), n_grid=[4.0], reps=2.0)
    assert (study.n0_grid, study.n_grid, study.reps) == ((5, 6), (4,), 2)
    assert all(type(v) is int for v in (*study.n0_grid, *study.n_grid, study.reps))
    assert _scenario_json(n1=10.0, reps=3.0, seed=2.0).n1 == 10


def test_real_settings_are_stored_as_floats():
    scenario = _scenario_with(generator0=Normal(np.int64(1), 2), generator1=Exponential(3), k=2)
    values = (scenario.k, scenario.generator0.mu, scenario.generator0.sigma,
              scenario.generator1.mean)
    assert values == (2.0, 1.0, 2.0, 3.0)
    assert all(type(v) is float for v in values)
