import math

import numpy as np
import pytest

from drmel import (
    BasisSpec,
    NonConvergenceError,
    SingularBasisError,
    SolverOptions,
    TwoSampleData,
    dual_log_el,
    evaluate_matrix,
    fit_mele,
    hessian,
    score,
)
from conftest import random_basis, random_two_sample


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


def test_non_convergence_reports_diagnostics(rng):
    data = random_two_sample(rng)
    with pytest.raises(NonConvergenceError) as err:
        fit_mele(data, BasisSpec.linear(), SolverOptions(max_iter=1, tol_grad=1e-16, tol_step=1e-16))
    assert err.value.iterations == 1
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


def test_exhausted_line_search_keeps_theta():
    # An Armijo constant no step can meet: the search runs out at the first
    # iteration, theta stays at 0 and the gradient test there decides.
    data = TwoSampleData(x0=[0.0, 0.5, 1.0, 1.5], x1=[0.2, 0.9, 1.7])
    spec = BasisSpec.linear()
    with pytest.raises(NonConvergenceError) as err:
        fit_mele(data, spec, SolverOptions(armijo=1e8, tol_step=0.0, max_iter=20))
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
