"""Property tests of the fitter, under the derandomized profile of conftest."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from drmel import BasisSpec, DrmError, FittedDrm, TwoSampleData, drm_quantile_estimate, fit_mele

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
            fit = fit_mele(data, spec)
            model = FittedDrm(data, spec, fit)
            estimates = [drm_quantile_estimate(model, data, spec, p) for p in (0.1, 0.5, 0.9)]
        except DrmError as exc:
            outputs.append(type(exc))
            continue
        outputs.append((fit.theta_hat.tobytes(), fit.weights.tobytes(),
                        fit.tilted_weights.tobytes(), fit.iterations, estimates))
    assume(isinstance(outputs[0], tuple))
    assert outputs[1] == outputs[0]
