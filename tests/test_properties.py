"""Property tests of the fitter, under the derandomized profile of conftest."""

import math
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drmel import BasisSpec, DrmError, FittedDrm, TwoSampleData, drm_quantile_estimate, fit_mele
from drmel.simulate import _ESTIMATORS

BASES = [BasisSpec.linear(), BasisSpec.quadratic(), BasisSpec.linear_log()]


@st.composite
def normal_pairs(draw):
    """Two normal samples of 2-40 points each, the target shifted and scaled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.normal(0.0, 1.0, draw(st.integers(2, 40)))
    x1 = rng.normal(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 2.0)), draw(st.integers(2, 40)))
    return x0, x1


def fit_or_reject(x0, x1, spec):
    try:
        return fit_mele(TwoSampleData(x0=x0, x1=x1), spec)
    except DrmError:
        assume(False)


@given(pair=normal_pairs(), spec=st.sampled_from(BASES[:2]))
def test_masses_and_tilted_masses_sum_to_one(pair, spec):
    x0, x1 = pair
    fit = fit_or_reject(x0, x1, spec)
    # both sums miss 1 by the constant component of the final gradient
    slack = fit.final_gradient_norm + 1e-13
    assert abs(fit.weights.sum() - 1.0) <= slack / x0.size
    assert abs(fit.tilted_weights.sum() - 1.0) <= slack / x1.size


@given(pair=normal_pairs(), spec=st.sampled_from(BASES[:2]))
def test_swapping_the_labels_negates_theta(pair, spec):
    x0, x1 = pair
    fit = fit_or_reject(x0, x1, spec)
    swapped = fit_or_reject(x1, x0, spec)
    np.testing.assert_allclose(swapped.theta_hat[1:], -fit.theta_hat[1:], rtol=1e-6, atol=1e-7)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    x0=st.lists(finite, min_size=1, max_size=30),
    x1=st.lists(finite, min_size=1, max_size=30),
    spec=st.sampled_from(BASES),
)
def test_only_typed_errors_escape_the_fitter(x0, x1, spec):
    try:
        fit = fit_mele(TwoSampleData(x0=x0, x1=x1), spec)
    except DrmError:
        return
    assert fit.converged and np.isfinite(fit.theta_hat).all() and np.isfinite(fit.weights).all()


@given(seed=st.integers(0, 2**32 - 1), n0=st.integers(5, 60), n1=st.integers(5, 40),
       spec=st.sampled_from(BASES))
def test_permuting_either_sample_changes_no_bit_of_the_fit_or_its_estimates(seed, n0, n1, spec):
    rng = np.random.default_rng(seed)
    x0, x1 = np.exp(rng.normal(0.0, 0.5, n0)), np.exp(rng.normal(0.2, 0.6, n1))
    outputs = []
    for a, b in ((x0, x1), (rng.permutation(x0), rng.permutation(x1))):
        data = TwoSampleData(x0=a, x1=b)
        try:
            model = FittedDrm(data, spec)
            estimates = [drm_quantile_estimate(model, p) for p in (0.1, 0.5, 0.9)]
        except DrmError as exc:
            outputs.append(type(exc))
            continue
        fit = model.fit
        outputs.append((fit.theta_hat.tobytes(), fit.weights.tobytes(),
                        fit.tilted_weights.tobytes(), fit.iterations, estimates))
    assume(isinstance(outputs[0], tuple))
    assert outputs[1] == outputs[0]


# drm-linear picks x0's maximum at p = 0.99, about 29 bandwidths from every
# target point: the KDE there is 1.3e-157, its square subnormal but positive,
# and the plug-in variance overflows to inf
TINY_X0 = [-1.38418460520268e-06, -4.374552188000326e-08, 1.6943448865519982e-06,
           -8.47416253681494e-07, -9.45212831440086e-07, 2.330396625844131e-06,
           -1.5767143693360586e-06]
TINY_X1 = [-5.81671898245728e-07, -4.1499565346996173e-07, -6.9034765759017e-07]


@st.composite
def small_finite_pairs(draw):
    """Samples of 1-12 points on a scale of 1e-8 to 1e8, or near the ends of
    the float range, where squares and densities overflow, with ties, an
    all-positive pair half the time and sometimes a constant x0."""
    exponent = draw(st.one_of(st.integers(-8, 8), st.sampled_from([-300, -160, 150, 200, 300])))
    scale, shift = 10.0 ** exponent, draw(st.sampled_from([0.0, 4.0]))
    cell = st.one_of(st.floats(-3.0, 3.0), st.integers(-2, 2).map(float))
    x0 = draw(st.lists(cell, min_size=1, max_size=12))
    if draw(st.integers(0, 4)) == 0:
        x0 = x0[:1] * len(x0)
    x1 = draw(st.lists(cell, min_size=1, max_size=12))
    return [scale * (v + shift) for v in x0], [scale * (v + shift) for v in x1]


@settings(max_examples=300)
@example(pair=(TINY_X0, TINY_X1), name="drm-linear", ci_level=0.9)
@given(pair=small_finite_pairs(), name=st.sampled_from(list(_ESTIMATORS)),
       ci_level=st.sampled_from([0.5, 0.9, 0.95]))
def test_every_estimate_is_finite_or_a_typed_error(pair, name, ci_level):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = _ESTIMATORS[name](TwoSampleData(x0=pair[0], x1=pair[1]))
        except DrmError:
            return
        for p in (0.01, 0.1, 0.5, 0.9, 0.99):
            assert math.isfinite(model.quantile(p))
            try:
                est = model.estimate(p, ci_level)
            except DrmError:
                continue
            assert est.std_error > 0
            assert all(map(math.isfinite, (est.point, est.std_error, est.ci_low, est.ci_high)))
