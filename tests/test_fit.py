import math

import numpy as np
import pytest

from drmel import (
    BasisSpec,
    FittedDrm,
    NonConvergenceError,
    SingularBasisError,
    TwoSampleData,
    dual_log_el,
    evaluate_matrix,
    fit_mele,
    hessian,
    score,
)
from conftest import random_basis, random_two_sample
from test_regression import TABLE1_FITS, table1_data


def finite_difference_gradient(f, theta, step=1e-5):
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        grad[i] = (f(theta + e) - f(theta - e)) / (2 * step)
    return grad


def grid_search_mele(data, spec, lo=-5.0, hi=5.0):
    """Brute-force maximizer of the dual log-EL over a 2-d grid.

    A coarse pass at step 0.01 followed by a 1e-3 grid around the coarse
    winner; valid as a global search because the objective is concave.
    Returns the best 1e-3 grid point.
    """
    q = evaluate_matrix(spec, data.pooled())
    n0, n1 = data.n0, data.n1

    def batch_value(alphas, betas):
        # grid of (a, b) values; data dimension is small so loop over points
        total = np.zeros((alphas.size, betas.size))
        for i, row in enumerate(q):
            u = alphas[:, None] * row[0] + betas[None, :] * row[1]
            total -= np.logaddexp(math.log(n0), math.log(n1) + u)
            if i >= n0:
                total += u
        return total

    coarse_a = np.arange(lo, hi + 1e-9, 0.01)
    coarse_b = np.arange(lo, hi + 1e-9, 0.01)
    vals = batch_value(coarse_a, coarse_b)
    ia, ib = np.unravel_index(np.argmax(vals), vals.shape)
    a0, b0 = coarse_a[ia], coarse_b[ib]

    fine_a = a0 + np.arange(-0.02, 0.0200001, 1e-3)
    fine_b = b0 + np.arange(-0.02, 0.0200001, 1e-3)
    vals = batch_value(fine_a, fine_b)
    ia, ib = np.unravel_index(np.argmax(vals), vals.shape)
    return np.array([fine_a[ia], fine_b[ib]])


def test_dual_at_zero_is_minus_n_log_n(rng):
    data = random_two_sample(rng)
    spec = BasisSpec.quadratic()
    expected = -data.n * math.log(data.n)
    assert dual_log_el(data, spec, np.zeros(3)) == pytest.approx(expected, rel=1e-14)


def test_dual_hand_value():
    data = TwoSampleData(x0=[0.0], x1=[1.0])
    val = dual_log_el(data, BasisSpec.linear(), [0.0, 1.0])
    expected = -math.log(1 + math.exp(0.0)) - math.log(1 + math.exp(1.0)) + 1.0
    assert val == pytest.approx(expected, rel=1e-14)


def test_dual_concavity_property(rng):
    spec = BasisSpec.linear()
    for _ in range(200):
        data = random_two_sample(rng, max_n0=20, max_n1=20)
        ta = rng.normal(size=2)
        tb = rng.normal(size=2)
        mid = dual_log_el(data, spec, (ta + tb) / 2)
        avg = (dual_log_el(data, spec, ta) + dual_log_el(data, spec, tb)) / 2
        assert mid >= avg - 1e-12


def test_score_at_zero_closed_form(rng):
    data = random_two_sample(rng)
    spec = BasisSpec.quadratic()
    q = evaluate_matrix(spec, data.pooled())
    expected = -(data.n1 / data.n) * q.sum(axis=0) + q[data.n0:].sum(axis=0)
    np.testing.assert_allclose(score(data, spec, np.zeros(3)), expected, rtol=1e-12, atol=1e-10)


def test_score_matches_finite_differences(rng):
    for _ in range(10):
        data = random_two_sample(rng, max_n0=30, max_n1=30)
        spec = random_basis(rng)
        theta = rng.normal(scale=0.5, size=spec.dimension)
        analytic = score(data, spec, theta)
        numeric = finite_difference_gradient(
            lambda t: dual_log_el(data, spec, t), theta
        )
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_hessian_symmetric_and_matches_finite_differences(rng):
    for _ in range(10):
        data = random_two_sample(rng, max_n0=30, max_n1=30)
        spec = random_basis(rng)
        theta = rng.normal(scale=0.5, size=spec.dimension)
        h = hessian(data, spec, theta)
        assert np.array_equal(h, h.T)
        numeric = np.column_stack(
            [
                finite_difference_gradient(
                    lambda t: score(data, spec, t)[i], theta
                )
                for i in range(spec.dimension)
            ]
        )
        np.testing.assert_allclose(h, numeric, rtol=1e-5, atol=1e-7)


def test_hessian_hand_value_at_zero():
    data = TwoSampleData(x0=[-1.0, 1.0], x1=[-1.0, 1.0])
    spec = BasisSpec.linear()
    q = evaluate_matrix(spec, data.pooled())
    expected = -(1.0 / 4.0) * q.T @ q  # every tilt fraction is 1/2
    np.testing.assert_allclose(hessian(data, spec, [0.0, 0.0]), expected, rtol=1e-12)


def test_fit_identical_samples_gives_zero_tilt():
    data = TwoSampleData(x0=[-1.0, 0.0, 1.0], x1=[-1.0, 0.0, 1.0])
    spec = BasisSpec.quadratic()
    np.testing.assert_allclose(score(data, spec, np.zeros(3)), 0.0, atol=1e-12)
    fit = fit_mele(data, spec)
    np.testing.assert_allclose(fit.theta_hat, 0.0, atol=1e-9)


def test_fit_matches_grid_search_oracle():
    data = TwoSampleData(x0=[0.0, 0.5, 1.0, 1.5], x1=[0.2, 0.9, 1.7])
    spec = BasisSpec.linear()
    fit = fit_mele(data, spec)
    oracle = grid_search_mele(data, spec)
    np.testing.assert_allclose(fit.theta_hat, oracle, atol=1e-3 + 1e-4)


def test_fit_recovers_true_normal_tilt():
    gen = np.random.default_rng(7)
    data = TwoSampleData(
        x0=gen.normal(0.0, 1.0, 100_000), x1=gen.normal(1.0, 1.0, 1_000)
    )
    spec = BasisSpec.linear()
    fit = fit_mele(data, spec)
    # N(0,1) vs N(1,1): log ratio is x - 1/2, so beta = 1
    from drmel import avar_theta

    se_beta = math.sqrt(avar_theta(fit, data, spec)[1, 1] / data.n1)
    assert abs(fit.theta_hat[1] - 1.0) <= 3 * se_beta


def test_fit_weight_invariants(rng):
    for _ in range(20):
        data = random_two_sample(rng)
        spec = random_basis(rng)
        fit = fit_mele(data, spec)
        q = evaluate_matrix(spec, data.pooled())
        tilt = np.exp(q @ fit.theta_hat)
        assert np.all(fit.weights > 0)
        assert abs(fit.weights.sum() - 1.0) < 1e-8
        assert abs((fit.weights * tilt).sum() - 1.0) < 1e-8
        assert fit.final_gradient_norm <= data.n1 * 1e-10
        assert fit.converged


def test_fit_is_global_max(rng):
    data = random_two_sample(rng)
    spec = BasisSpec.linear()
    fit = fit_mele(data, spec)
    for _ in range(50):
        theta = rng.normal(scale=1.0, size=2)
        assert fit.log_el_at_max >= dual_log_el(data, spec, theta) - 1e-9


def test_label_swap_negates_theta(rng):
    data = random_two_sample(rng)
    spec = BasisSpec.quadratic()
    fit = fit_mele(data, spec)
    swapped = fit_mele(TwoSampleData(x0=data.x1, x1=data.x0), spec)
    np.testing.assert_allclose(swapped.theta_hat, -fit.theta_hat, atol=1e-6)


def test_singular_basis_error():
    data = TwoSampleData(x0=[2.0, 2.0, 2.0], x1=[2.0, 2.0])
    with pytest.raises(SingularBasisError):
        fit_mele(data, BasisSpec.linear())


def test_non_convergence_reports_diagnostics(rng, monkeypatch):
    data = random_two_sample(rng)
    monkeypatch.setattr("drmel.fit.MAX_ITER", 1)
    monkeypatch.setattr("drmel.fit.TOL_GRAD", 1e-16)
    monkeypatch.setattr("drmel.fit.TOL_STEP", 1e-16)
    with pytest.raises(NonConvergenceError) as err:
        fit_mele(data, BasisSpec.linear())
    assert err.value.iterations == 1
    assert err.value.gradient_norm is not None


@pytest.mark.parametrize(
    "x0, x1, spec",
    [
        (np.linspace(0, 1, 50), np.linspace(2, 3, 20), BasisSpec.linear()),
        # x1 between two blocks of x0: the square term separates them
        (np.r_[np.linspace(-3, -2, 30), np.linspace(2, 3, 30)], np.linspace(-0.5, 0.5, 20),
         BasisSpec.quadratic()),
    ],
    ids=["linear", "quadratic"],
)
def test_separated_samples_raise_typed_error(x0, x1, spec):
    # No finite maximizer exists; the gradient only underflows as theta grows.
    with pytest.raises(NonConvergenceError, match="separates") as err:
        fit_mele(TwoSampleData(x0=x0, x1=x1), spec)
    assert err.value.iterations > 0
    assert err.value.gradient_norm is not None


def two_branch_log_denom(u, n0, n1):
    """log(n0 + n1*exp(u)) split at u = 0 so that neither exp overflows."""
    out = np.empty_like(u)
    neg = u <= 0
    out[neg] = math.log(n0) + np.log1p((n1 / n0) * np.exp(u[neg]))
    pos = ~neg
    out[pos] = u[pos] + math.log(n1) + np.log1p((n0 / n1) * np.exp(-u[pos]))
    return out


def test_kernel_matches_two_branch_log_denominator():
    from drmel.fit import _kernel

    u = np.concatenate([np.linspace(-745.0, 745.0, 20_001), [-1e-300, 0.0, 1e-300]])
    for n0, n1 in ((100_000, 1_000), (3, 7), (1, 1)):
        value, log_den, w = _kernel(u[:, None], np.array([1.0]), n0, n1)
        expected = two_branch_log_denom(u, n0, n1)
        assert np.isfinite(log_den).all() and np.isfinite(value)
        assert np.all(np.abs(log_den - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))
        np.testing.assert_allclose(w, np.exp(math.log(n1) + u - expected), rtol=1e-12, atol=1e-300)
        assert np.all((w >= 0) & (w <= 1))


def test_fit_carries_normalized_weights_and_tilted_masses(rng):
    for _ in range(20):
        data = random_two_sample(rng)
        fit = fit_mele(data, random_basis(rng))
        # both sums miss 1 by the constant component of the final gradient
        slack = fit.final_gradient_norm + 1e-13
        assert abs(fit.weights.sum() - 1.0) <= slack / data.n0
        assert abs(fit.tilted_weights.sum() - 1.0) <= slack / data.n1


def test_exhausted_line_search_keeps_theta(monkeypatch):
    # An Armijo constant no step can meet: the search runs out at the first
    # iteration, theta stays at 0 and the gradient test there decides.
    data = TwoSampleData(x0=[0.0, 0.5, 1.0, 1.5], x1=[0.2, 0.9, 1.7])
    spec = BasisSpec.linear()
    monkeypatch.setattr("drmel.fit.ARMIJO", 1e8)
    monkeypatch.setattr("drmel.fit.TOL_STEP", 0.0)
    monkeypatch.setattr("drmel.fit.MAX_ITER", 20)
    with pytest.raises(NonConvergenceError) as err:
        fit_mele(data, spec)
    assert err.value.iterations == 1
    at_zero = float(np.max(np.abs(score(data, spec, np.zeros(2)))))
    assert err.value.gradient_norm == pytest.approx(at_zero, rel=1e-12)


def test_vanished_curvature_raises_typed_error(monkeypatch):
    # Tilt fractions that all round to 0 or 1 make every w(1-w), and so the
    # ridge, zero: the Newton system is singular even after ridging.
    import drmel.fit

    kernel = drmel.fit._kernel

    def saturated(q, theta, n0, n1):
        value, log_den, w = kernel(q, theta, n0, n1)
        return value, log_den, np.round(w)

    monkeypatch.setattr(drmel.fit, "_kernel", saturated)
    data = TwoSampleData(x0=[0.0, 1.0, 2.0, 3.0], x1=[1.5, 2.5])
    with pytest.raises(NonConvergenceError) as err:
        fit_mele(data, BasisSpec.linear())
    assert err.value.iterations == 1
    assert err.value.gradient_norm == pytest.approx(4.0)  # |sum of x1| with w = 0


@pytest.mark.parametrize("n0, n1", [(100_000, 1_000), (3, 7), (1, 1)])
def test_kernel_at_zero_matches_general_path(n0, n1):
    from drmel.fit import _kernel

    n = n0 + n1
    q = np.column_stack([np.ones(n), np.linspace(-3.0, 3.0, n)])
    value, log_den, w = _kernel(q, np.zeros(2), n0, n1)
    # rows of zeros give u = 0 with theta nonzero, so the general path runs
    ref_value, ref_log_den, ref_w = _kernel(np.zeros((n, 1)), np.ones(1), n0, n1)
    np.testing.assert_array_max_ulp(value, ref_value, maxulp=4)
    np.testing.assert_array_max_ulp(log_den, ref_log_den, maxulp=4)
    np.testing.assert_array_max_ulp(w, ref_w, maxulp=4)
    assert log_den.shape == w.shape == (n,)
    np.testing.assert_allclose(w, n1 / n, rtol=1e-15)
    np.testing.assert_allclose(log_den, math.log(n), rtol=1e-15)


def test_oracle_hessian_equals_fitter_curvature(rng):
    from drmel.fit import _kernel, _neg_hessian

    for _ in range(10):
        data = random_two_sample(rng)
        spec = random_basis(rng)
        theta = rng.normal(scale=0.3, size=spec.dimension)
        q = evaluate_matrix(spec, data.pooled())
        w = _kernel(q, theta, data.n0, data.n1)[2]
        reference = (q * (w * (1.0 - w))[:, None]).T @ q
        h = _neg_hessian(q.T, w, np.empty(data.n))
        np.testing.assert_allclose(h, reference, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(hessian(data, spec, theta), -(h + h.T) / 2.0, rtol=1e-15)


# Pins of each exit of fit_mele: a fit converges only through the gradient
# test, after any number of steps up to the budget, and a stalled step or a
# spent budget raises with the number of steps taken.


def test_identical_samples_converge_at_zero_without_a_step():
    data = TwoSampleData(x0=[-1.0, 0.0, 1.0], x1=[-1.0, 0.0, 1.0])
    fit = fit_mele(data, BasisSpec.quadratic())
    assert fit.iterations == 0
    assert np.array_equal(fit.theta_hat, np.zeros(3))
    assert fit.final_gradient_norm == 0.0
    np.testing.assert_allclose(fit.weights, 1 / data.n, rtol=1e-15)
    np.testing.assert_allclose(fit.tilted_weights, 1 / data.n, rtol=1e-15)


def test_iteration_budget_boundary_on_a_table1_fit(monkeypatch):
    data, spec = table1_data(0), BasisSpec.quadratic()
    iterations, theta = TABLE1_FITS[0]
    assert iterations == 4
    unlimited = fit_mele(data, spec)
    monkeypatch.setattr("drmel.fit.MAX_ITER", 4)
    fit = fit_mele(data, spec)
    assert fit.iterations == 4
    assert np.array_equal(fit.theta_hat, unlimited.theta_hat)
    np.testing.assert_allclose(fit.theta_hat, theta, rtol=1e-12, atol=0)
    monkeypatch.setattr("drmel.fit.MAX_ITER", 3)
    with pytest.raises(NonConvergenceError, match="after 3 iterations") as err:
        fit_mele(data, spec)
    assert err.value.iterations == 3
    assert err.value.gradient_norm == pytest.approx(4.171326963842148e-07, rel=1e-6)


@pytest.mark.parametrize(
    "tol_step, iterations, gradient_norm",
    [(0.5, 2, 0.04948136336281728), (1e-2, 4, 3.5540352882890147e-09)],
)
def test_step_below_tol_step_stalls_the_fit(tol_step, iterations, gradient_norm, monkeypatch):
    # without the step test the fit converges after 5 iterations
    data = TwoSampleData(x0=np.linspace(0, 1, 40), x1=np.linspace(0.2, 1.3, 15))
    spec = BasisSpec.linear()
    assert fit_mele(data, spec).iterations == 5
    monkeypatch.setattr("drmel.fit.TOL_STEP", tol_step)
    with pytest.raises(NonConvergenceError, match=f"after {iterations} iterations") as err:
        fit_mele(data, spec)
    assert err.value.iterations == iterations
    assert err.value.gradient_norm == pytest.approx(gradient_norm, rel=1e-9)


def test_descending_step_is_taken_when_the_ridge_is_zero(monkeypatch):
    # A negative-definite system makes the Newton step descend; with a zero
    # ridge scale the second solve returns that same step, which is taken
    # (the line search then decides), not reported as a singular system.
    import drmel.fit

    monkeypatch.setattr(drmel.fit, "RIDGE_SCALE", 0.0)
    monkeypatch.setattr(drmel.fit, "_neg_hessian", lambda qT, w, buf: -np.eye(qT.shape[0]))
    data = TwoSampleData(x0=[0.0, 0.5, 1.0, 1.5], x1=[0.2, 0.9, 1.7])
    with pytest.raises(NonConvergenceError, match="no convergence after 1 iterations") as err:
        fit_mele(data, BasisSpec.linear())
    assert err.value.iterations == 1


def test_data_copies_the_caller_arrays_and_leaves_them_writeable():
    x0, x1 = np.array([0.0, 1.0, 2.0]), np.array([1.5, 2.5])
    data = TwoSampleData(x0=x0, x1=x1)
    assert x0.flags.writeable and x1.flags.writeable
    x0[0], x1[1] = 3.0, 9.0
    assert np.array_equal(data.x0, [0.0, 1.0, 2.0]) and np.array_equal(data.x1, [1.5, 2.5])
    assert np.array_equal(data.pooled(), [0.0, 1.0, 2.0, 1.5, 2.5])
    for view in (data.x0, data.x1, data.pooled()):
        assert not view.flags.writeable


def test_a_sample_of_any_shape_is_flattened():
    x0, x1 = np.linspace(0.0, 3.0, 12), np.array([1.5, 2.5, 2.7])
    flat = TwoSampleData(x0=x0, x1=x1)
    shaped = TwoSampleData(x0=x0.reshape(6, 2), x1=x1)
    assert shaped.x0.shape == (12,) and np.array_equal(shaped.pooled(), flat.pooled())
    spec = BasisSpec.linear()
    fit = fit_mele(shaped, spec)
    assert np.array_equal(fit.theta_hat, fit_mele(flat, spec).theta_hat)
    assert np.array_equal(FittedDrm(shaped, spec, fit).support, np.sort(flat.pooled()))
