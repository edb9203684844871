import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from drmel import (
    BasisSpec,
    FittedDrm,
    InvalidArgumentError,
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
    model = FittedDrm(data, BasisSpec.linear())
    # N(0,1) vs N(1,1): log ratio is x - 1/2, so beta = 1
    from drmel import avar_theta

    se_beta = math.sqrt(avar_theta(model)[1, 1] / data.n1)
    assert abs(model.fit.theta_hat[1] - 1.0) <= 3 * se_beta


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


@pytest.mark.parametrize("oracle", [dual_log_el, score, hessian])
@pytest.mark.parametrize("theta", [[0.1, 0.2, 0.3], 0.0, [0.0, 0.0, 0.0], [[0.0, 0.0]]],
                         ids=["long", "scalar", "long-zero", "row"])
def test_the_oracle_rejects_a_theta_of_the_wrong_shape(oracle, theta):
    data = TwoSampleData(x0=[0.0, 1.0, 2.0, 3.0], x1=[1.5, 2.5])
    with pytest.raises(InvalidArgumentError, match=r"theta must have shape \(2,\)"):
        oracle(data, BasisSpec.linear(), theta)


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
    # ridge, zero: the Newton system is singular even after ridging. The fit
    # opens at theta = 0, whose kernel comes from the workspace's ``zero``,
    # so the stub replaces the fit's workspace rather than _kernel.
    import drmel.fit

    class Saturated(drmel.fit._Workspace):
        def __init__(self, n0, n1, d):
            super().__init__(n0, n1, d)
            value, log_den, w = self.zero
            self.zero = value, log_den, np.round(w)

    monkeypatch.setattr(drmel.fit, "_Workspace", Saturated)
    data = TwoSampleData(x0=[0.0, 1.0, 2.0, 3.0], x1=[1.5, 2.5])
    with pytest.raises(NonConvergenceError) as err:
        fit_mele(data, BasisSpec.linear())
    assert err.value.iterations == 1
    assert err.value.gradient_norm == pytest.approx(4.0)  # |sum of x1| with w = 0


@pytest.mark.parametrize("n0, n1", [(100_000, 1_000), (3, 7), (1, 1)])
def test_kernel_at_zero_matches_general_path(n0, n1):
    from drmel.fit import _kernel, _Workspace

    n = n0 + n1
    q = np.column_stack([np.ones(n), np.linspace(-3.0, 3.0, n)])
    value, log_den, w = _Workspace(n0, n1, 2).zero
    assert not (log_den.flags.writeable or w.flags.writeable)
    ref_value, ref_log_den, ref_w = _kernel(q, np.zeros(2), n0, n1)
    np.testing.assert_array_max_ulp(value, ref_value, maxulp=4)
    np.testing.assert_array_max_ulp(log_den, ref_log_den, maxulp=4)
    np.testing.assert_array_max_ulp(w, ref_w, maxulp=4)
    assert log_den.shape == w.shape == (n,)
    np.testing.assert_allclose(w, n1 / n, rtol=1e-15)
    np.testing.assert_allclose(log_den, math.log(n), rtol=1e-15)


def test_oracle_hessian_equals_fitter_curvature(rng):
    from drmel.fit import _kernel, _moments, _neg_hessian, _Workspace

    for _ in range(10):
        data = random_two_sample(rng)
        spec = random_basis(rng)
        theta = rng.normal(scale=0.3, size=spec.dimension)
        q = evaluate_matrix(spec, data.pooled())
        w = _kernel(q, theta, data.n0, data.n1)[2]
        reference = (q * (w * (1.0 - w))[:, None]).T @ q
        ws = _Workspace(data.n0, data.n1, spec.dimension)
        _moments(q.T, ws)
        h = _neg_hessian(q.T, ws, w)
        np.testing.assert_allclose(h, reference, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(hessian(data, spec, theta),
                                   -(reference + reference.T) / 2.0, rtol=1e-15)


# each basis with the number of rows of its product block, q_i q_j for 1 <= i <= j
BLOCK_BASES = {
    "linear": (BasisSpec.linear(), 1),
    "quadratic": (BasisSpec.quadratic(), 3),
    "linear-log": (BasisSpec.linear_log(), 3),
    "custom-4": (BasisSpec.custom([np.sqrt, np.log, np.square]), 6),  # scatter beyond d = 3
}


@pytest.mark.parametrize("spec, block_rows", BLOCK_BASES.values(), ids=BLOCK_BASES.keys())
def test_block_curvature_matches_the_dense_hessian(spec, block_rows, rng, monkeypatch):
    import drmel.fit
    from drmel.fit import _kernel, _moments, _neg_hessian, _Workspace

    # points above 1 keep every product positive, so no sum cancels
    data = TwoSampleData(x0=1.0 + rng.gamma(4.0, 0.5, 300), x1=1.0 + rng.gamma(5.0, 0.5, 60))
    q = evaluate_matrix(spec, data.pooled())
    ws = _Workspace(data.n0, data.n1, spec.dimension)
    gram = _moments(q.T, ws)
    assert ws.block.shape == (block_rows, data.n)
    np.testing.assert_allclose(gram, q.T @ q, rtol=1e-12)
    for _ in range(5):
        theta = rng.normal(scale=0.3, size=spec.dimension)
        w = _kernel(q, theta, data.n0, data.n1)[2]
        np.testing.assert_allclose(_neg_hessian(q.T, ws, w),
                                   -hessian(data, spec, theta), rtol=1e-12)

    # the fitter's step at theta = 0 passes over no row: c = n1 / n on every
    # row, the negative Hessian is c(1 - c) Gram
    zero = np.zeros(spec.dimension)
    c = ws.zero[2][0]
    np.testing.assert_allclose((1.0 - c) * c * gram,
                               -hessian(data, spec, zero), rtol=1e-12)
    # its constant component is n1 - c n = 0, up to the rounding of n1 and c n
    np.testing.assert_allclose(q[data.n0:].sum(axis=0) - c * gram[0],
                               score(data, spec, zero), rtol=1e-12, atol=1e-12 * data.n)

    # the fitter calls _neg_hessian for every step but that first one, each
    # time with the tilt fractions of a point away from theta = 0
    constant = []
    monkeypatch.setattr(drmel.fit, "_neg_hessian",
                        lambda *args: constant.append(np.ptp(args[-1]) == 0) or _neg_hessian(*args))
    assert fit_mele(data, spec).iterations == len(constant) + 1 >= 2
    assert constant == [False] * len(constant)
    monkeypatch.setattr(drmel.fit, "MAX_ITER", 0)
    with pytest.raises(NonConvergenceError) as err:
        fit_mele(data, spec)
    at_zero = float(np.max(np.abs(score(data, spec, zero))))
    assert err.value.gradient_norm == pytest.approx(at_zero, rel=1e-12)


def test_a_basis_whose_products_overflow_is_singular_without_a_warning():
    # x^2 near 1e160 is finite, x^4 is not
    data = TwoSampleData(x0=np.array([-1.0, -0.5, 0.3, 0.9, 1.2]) * 1e80,
                         x1=np.array([-0.7, 0.4, 1.1]) * 1e80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularBasisError, match="condition number inf"):
            fit_mele(data, BasisSpec.quadratic())


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
    # (the line search then decides), not reported as a singular system. The
    # stub first applies at the second step: the first, at theta = 0, scales
    # the Gram matrix without calling _neg_hessian.
    import drmel.fit

    monkeypatch.setattr(drmel.fit, "RIDGE_SCALE", 0.0)
    monkeypatch.setattr(drmel.fit, "_neg_hessian", lambda qT, ws, w: -np.eye(qT.shape[0]))
    data = TwoSampleData(x0=[0.0, 0.5, 1.0, 1.5], x1=[0.2, 0.9, 1.7])
    with pytest.raises(NonConvergenceError, match="no convergence after 2 iterations") as err:
        fit_mele(data, BasisSpec.linear())
    assert err.value.iterations == 2


def test_data_copies_the_caller_arrays_and_leaves_them_writeable():
    x0, x1 = np.array([0.0, 1.0, 2.0]), np.array([1.5, 2.5])
    data = TwoSampleData(x0=x0, x1=x1)
    assert x0.flags.writeable and x1.flags.writeable
    x0[0], x1[1] = 3.0, 9.0
    assert np.array_equal(data.x0, [0.0, 1.0, 2.0]) and np.array_equal(data.x1, [1.5, 2.5])
    assert np.array_equal(data.pooled(), [0.0, 1.0, 2.0, 1.5, 2.5])
    for view in (data.x0, data.x1, data.pooled()):
        assert not view.flags.writeable


def test_each_sample_is_stored_ascending_and_the_caller_arrays_are_left_alone():
    x0, x1 = np.array([2.0, -1.0, 0.5, 2.0, -3.0]), np.array([0.7, -0.2, 0.1])
    kept0, kept1 = x0.copy(), x1.copy()
    data = TwoSampleData(x0=x0, x1=x1)
    assert np.array_equal(data.x0, [-3.0, -1.0, 0.5, 2.0, 2.0])
    assert np.array_equal(data.x1, [-0.2, 0.1, 0.7])
    assert np.array_equal(data.pooled(), np.concatenate([data.x0, data.x1]))
    assert np.array_equal(x0, kept0) and np.array_equal(x1, kept1)
    assert x0.flags.writeable and x1.flags.writeable


def test_data_compares_and_hashes_by_identity():
    data = TwoSampleData(x0=[0.0, 1.0], x1=[1.5, 2.5])
    twin = TwoSampleData(x0=[0.0, 1.0], x1=[1.5, 2.5])
    assert data == data and data != twin
    assert data in [twin, data] and data not in [twin]
    assert {data: 1, twin: 2}[data] == 1


def test_a_sample_of_any_shape_is_flattened():
    x0, x1 = np.linspace(0.0, 3.0, 12), np.array([1.5, 2.5, 2.7])
    flat = TwoSampleData(x0=x0, x1=x1)
    shaped = TwoSampleData(x0=x0.reshape(6, 2), x1=x1)
    assert shaped.x0.shape == (12,) and np.array_equal(shaped.pooled(), flat.pooled())
    spec = BasisSpec.linear()
    model = FittedDrm(shaped, spec)
    assert np.array_equal(model.fit.theta_hat, fit_mele(flat, spec).theta_hat)
    assert np.array_equal(model.support, np.sort(flat.pooled()))


# The fit workspace: one block of a fit's basis and Newton rows, which every
# fit builds for itself and frees when it ends; only what depends on the shape
# alone is shared, read-only. A returned fit owns its arrays.

FIT_ARRAYS = ("theta_hat", "weights", "tilted_weights")
# the Table-1 stream at 20,000 rows, whose fit takes 1.9 MB of rows
SMALL_N0 = 19_000


def fit_bytes(fit):
    return [getattr(fit, name).tobytes() for name in FIT_ARRAYS] + [
        fit.log_el_at_max, fit.iterations, fit.final_gradient_norm]


def fit_in_new_thread(data, spec):
    """The fit of data in a thread of its own, where no fit ran before it."""
    fits = []
    thread = threading.Thread(target=lambda: fits.append(fit_mele(data, spec)))
    thread.start()
    thread.join()
    return fits[0]


@pytest.mark.parametrize("n0", [SMALL_N0, 100_000], ids=["20k-rows", "101k-rows"])
def test_a_fit_keeps_its_arrays_through_later_fits_of_its_size(n0, monkeypatch):
    import drmel.fit

    spaces, workspace = [], drmel.fit._Workspace
    monkeypatch.setattr(drmel.fit, "_Workspace",
                        lambda *shape: spaces.append(workspace(*shape)) or spaces[-1])
    spec = BasisSpec.quadratic()
    first = fit_mele(table1_data(0, n0), spec)
    kept = fit_bytes(first)
    assert fit_mele(table1_data(1, n0), spec).iterations == 3
    # a fit that raises after writing its (L, w) pair
    monkeypatch.setattr("drmel.fit.MAX_ITER", 2)
    with pytest.raises(NonConvergenceError, match="after 2 iterations"):
        fit_mele(table1_data(2, n0), spec)
    assert fit_bytes(first) == kept
    for ws in spaces:
        for name in FIT_ARRAYS:
            assert not np.may_share_memory(getattr(first, name), ws.rows)
            assert not np.may_share_memory(getattr(first, name), ws.basis)


def test_fits_in_two_threads_at_once_match_serial_fits():
    # thread 0 fits a 101 000-row pair and a 20 000-row pair in turn while
    # thread 1 fits another 101 000-row pair: the threads fit the same shape
    # and different shapes at once
    spec = BasisSpec.quadratic()
    pairs = [table1_data(0), table1_data(1), table1_data(2, SMALL_N0)]
    serial = [fit_bytes(fit_in_new_thread(data, spec)) for data in pairs]
    jobs = [[0, 2, 0, 2], [1, 1, 1, 1]]
    start, results = threading.Barrier(2), [[], []]

    def run(k):
        start.wait()
        results[k] = [fit_bytes(fit_mele(pairs[j], spec)) for j in jobs[k]]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [[serial[j] for j in job] for job in jobs]


def test_a_fit_after_a_fit_of_another_size_matches_a_fresh_fit(rng):
    x0, x1 = 1.0 + rng.gamma(4.0, 0.5, 300), 1.0 + rng.gamma(5.0, 0.5, 60)
    small = TwoSampleData(x0=x0[:200], x1=x1)
    large = TwoSampleData(x0=x0, x1=x1)
    resplit = TwoSampleData(x0=x0[:240], x1=np.concatenate([x1, x0[240:]]))  # large's n
    # each fit follows one of another n, another d, both, or only another split
    for data, spec in [(small, BasisSpec.linear()), (small, BasisSpec.quadratic()),
                       (large, BasisSpec.quadratic()), (resplit, BasisSpec.quadratic()),
                       (small, BasisSpec.linear()),
                       (large, BasisSpec.custom([np.sqrt, np.log, np.square])),
                       (small, BasisSpec.linear_log())]:
        fit = fit_mele(data, spec)
        assert fit_bytes(fit) == fit_bytes(fit_in_new_thread(data, spec))
        assert fit.weights.shape == fit.tilted_weights.shape == (data.n,)
        assert np.max(np.abs(score(data, spec, fit.theta_hat))) <= data.n1 * 1e-10


def test_an_exhausted_line_search_keeps_the_accepted_masses(monkeypatch):
    # After one accepted step every candidate is refused, so the search runs
    # out; the gradient test then reads the gradient of the accepted point,
    # not the masses of the last refused candidate, which overwrote its own.
    import drmel.fit

    kernel, candidates = drmel.fit._kernel, []

    def refuse_after_the_first_step(q, theta, n0, n1, out=None):
        value, log_den, w = kernel(q, theta, n0, n1, out)
        if out is not None:  # a candidate of the line search
            candidates.append(theta)
        return (value if len(candidates) <= 1 else -math.inf), log_den, w

    monkeypatch.setattr(drmel.fit, "_kernel", refuse_after_the_first_step)
    data = TwoSampleData(x0=np.linspace(0, 1, 40), x1=np.linspace(0.2, 1.3, 15))
    spec = BasisSpec.linear()
    with pytest.raises(NonConvergenceError, match="after 2 iterations") as err:
        fit_mele(data, spec)
    assert len(candidates) > 2
    assert err.value.gradient_norm == float(np.max(np.abs(score(data, spec, candidates[0]))))


def traced_peak(call):
    """Peak bytes traced while ``call()`` runs, above those live before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("n0", [SMALL_N0, 100_000], ids=["20k-rows", "101k-rows"])
def test_a_warm_fit_allocates_no_row_inside_the_newton_loop(n0, monkeypatch):
    data, spec = table1_data(0, n0), BasisSpec.quadratic()
    row, d = 8 * data.n, spec.dimension
    steps = fit_mele(data, spec).iterations - 1  # warms the shared values of this shape
    # the fit allocates one block of the basis, scratch and product rows, the
    # mask, and the (L, w) pair that becomes the returned masses
    allocated = (d + 2 + d * (d - 1) // 2 + 2) * row + data.n
    assert traced_peak(lambda: fit_mele(data, spec)) <= allocated + 64 * 1024

    # a fit stopped a step short allocates no more
    def stopped_fit():
        with pytest.raises(NonConvergenceError, match=f"after {steps} iterations"):
            fit_mele(data, spec)

    monkeypatch.setattr("drmel.fit.MAX_ITER", steps)
    assert traced_peak(stopped_fit) <= allocated + 64 * 1024


def test_a_table1_fit_peaks_below_11_floats_per_row_and_returns_masses_it_owns():
    # the block's 8 rows, the mask's eighth and the (L, w) pair: 10.13 floats
    # per row, where a pair per line-search role and two mass vectors made 14.13
    data, spec = table1_data(0), BasisSpec.quadratic()
    fit_mele(data, spec)  # warms the shared values of this shape
    fits = []
    assert traced_peak(lambda: fits.append(fit_mele(data, spec))) <= 11 * 8 * data.n
    fits.append(fit_mele(table1_data(1), spec))
    masses = [getattr(fit, name) for fit in fits for name in ("weights", "tilted_weights")]
    assert all(a.flags.owndata for a in masses)
    assert not any(np.may_share_memory(a, b) for i, a in enumerate(masses) for b in masses[i + 1:])


def test_a_large_fit_changes_no_bit_cold_or_between_smaller_fits():
    # a large fit gives the same bits cold (with nothing of its shape computed
    # yet, in a new thread) as after fits of another size and between them
    import drmel.fit

    spec, large, small = BasisSpec.quadratic(), table1_data(0), table1_data(0, SMALL_N0)
    drmel.fit._shared.cache_clear()
    cold = fit_bytes(fit_in_new_thread(large, spec))
    small_fit = fit_bytes(fit_mele(small, spec))
    for _ in range(2):
        assert fit_bytes(fit_mele(large, spec)) == cold
        assert fit_bytes(fit_mele(small, spec)) == small_fit
