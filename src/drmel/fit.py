"""Fitting the density-ratio tilt parameter by empirical likelihood.

The dual profile log-EL for two samples is

    l(theta) = - sum_{k,j} log[n0 + n1 * exp(theta' q(x_kj))]
               + sum_{j<=n1} theta' q(x_1j),

a smooth concave function maximized by a damped Newton iteration. With
z = theta' q(x) + log(n1/n0) and e = exp(-|z|), each row's log-denominator is
L = log n0 + max(z, 0) + log1p(e) and its tilt fraction is w = n1 exp(theta' q - L)
= (1 if z > 0 else e) / (1 + e): two transcendentals, no overflow. q is the (n, d)
view of a C-ordered (d, n) block; Hessian row i is -q.T @ (q.T[i] * w(1 - w)).

A Gram matrix q'q with condition number above ``MAX_CONDITION`` is rejected
as singular. When the Newton system is singular or gives no ascent, the step
is solved again with a ridge of ``RIDGE_SCALE`` times the trace of the
negative Hessian. The fitter has no settings: ``TOL_GRAD``, ``TOL_STEP``,
``MAX_ITER`` and ``ARMIJO`` are module constants like these two, and a
returned :class:`DrmFit` is converged and carries both sets of fitted masses.

A fit is judged in one place: the gradient sup-norm test at the top of each
Newton attempt. Passing it is the only way the loop ends without raising.
After a step that stalls (an exhausted line search, or a step below
``TOL_STEP``), or once ``MAX_ITER`` steps are spent, a failed test raises
:class:`NonConvergenceError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, evaluate_matrix
from .errors import InvalidArgumentError, NonConvergenceError, SingularBasisError

__all__ = [
    "TwoSampleData",
    "DrmFit",
    "dual_log_el",
    "score",
    "hessian",
    "fit_mele",
]


@dataclass(frozen=True)
class TwoSampleData:
    """Immutable pair of samples: x0 from the base population, x1 from the target.

    Both are read-only views into one private copy of the pooled sample, so
    the caller's arrays stay writeable and a later write to them changes
    nothing here.
    """

    x0: np.ndarray
    x1: np.ndarray
    _pooled: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x0 = np.ravel(np.asarray(self.x0, dtype=float))
        x1 = np.ravel(np.asarray(self.x1, dtype=float))
        if x0.size < 1 or x1.size < 1:
            raise InvalidArgumentError("both samples must be nonempty")
        if not (np.isfinite(x0).all() and np.isfinite(x1).all()):
            raise InvalidArgumentError("samples must contain only finite values")
        pooled = np.concatenate([x0, x1])
        pooled.setflags(write=False)
        object.__setattr__(self, "_pooled", pooled)
        object.__setattr__(self, "x0", pooled[:x0.size])
        object.__setattr__(self, "x1", pooled[x0.size:])

    @property
    def n0(self) -> int:
        return self.x0.size

    @property
    def n1(self) -> int:
        return self.x1.size

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    def pooled(self) -> np.ndarray:
        """Pooled observations, base block first then target block; read-only."""
        return self._pooled


MAX_CONDITION = 1e12  # largest Gram condition number of a usable basis
RIDGE_SCALE = 1e-10  # ridge on a singular Newton system, relative to its trace
TOL_GRAD = 1e-10  # gradient sup-norm tolerance, scaled by n1
TOL_STEP = 1e-10  # sup-norm of a step that stalls the fit
MAX_ITER = 100  # Newton steps before the fit gives up
ARMIJO = 1e-4  # sufficient-increase constant of the line search


@dataclass(frozen=True)
class DrmFit:
    """Result of maximizing the dual profile log-EL."""

    theta_hat: np.ndarray
    weights: np.ndarray        # fitted base-measure masses over the pooled sample
    log_el_at_max: float
    iterations: int
    converged: bool
    final_gradient_norm: float
    tilted_weights: np.ndarray  # fitted target masses p_kj * exp(theta' q_kj), pooled


def _kernel(q: np.ndarray, theta: np.ndarray, n0: int, n1: int) -> tuple:
    """Dual log-EL at theta and its per-point parts (value, L, w), where
    L = log(n0 + n1 exp(u)) and w = n1 exp(u - L) for u = q @ theta, by the
    module docstring's formulas. The base weights are exp(-L), the tilted
    target masses w / n1."""
    if not theta.any():  # every fit opens at theta = 0, where u = 0 on every row
        _, L, w = _kernel(np.zeros((1, 1)), np.ones(1), n0, n1)
        L, w = np.full(q.shape[0], L[0]), np.full(q.shape[0], w[0])
        return float(-np.sum(L)), L, w
    z = q @ theta
    value = float(np.sum(z[n0:]))
    z += math.log(n1 / n0)
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    w = np.where(z > 0, 1.0, e)
    w /= 1.0 + e
    np.maximum(z, 0.0, out=z)
    z += math.log(n0)
    z += np.log1p(e, out=e)
    return value - float(np.sum(z)), z, w


def _neg_hessian(qT: np.ndarray, w: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """q' diag(w(1-w)) q from the rows of qT, one row at a time through buf."""
    s = w * (1.0 - w)
    return np.array([qT @ np.multiply(row, s, out=buf) for row in qT])


def _oracle(data: TwoSampleData, spec: BasisSpec, theta) -> tuple:
    """Basis matrix of the pooled sample and the kernel at theta."""
    q = evaluate_matrix(spec, data.x0, data.x1)
    return q, _kernel(q, np.asarray(theta, dtype=float), data.n0, data.n1)


def dual_log_el(data: TwoSampleData, spec: BasisSpec, theta) -> float:
    """Value of the dual profile log-EL at theta."""
    return _oracle(data, spec, theta)[1][0]


def score(data: TwoSampleData, spec: BasisSpec, theta) -> np.ndarray:
    """Analytic gradient of :func:`dual_log_el` with respect to theta."""
    q, (_, _, w) = _oracle(data, spec, theta)
    return q[data.n0:].sum(axis=0) - q.T @ w


def hessian(data: TwoSampleData, spec: BasisSpec, theta) -> np.ndarray:
    """Analytic Hessian of :func:`dual_log_el`; symmetric negative semidefinite."""
    q, (_, _, w) = _oracle(data, spec, theta)
    h = -_neg_hessian(q.T, w, np.empty(data.n))
    return (h + h.T) / 2.0


def fit_mele(data: TwoSampleData, spec: BasisSpec) -> DrmFit:
    """Maximize the dual profile log-EL by damped Newton from theta = 0.

    Raises :class:`SingularBasisError` when the basis is collinear on the
    pooled sample and :class:`NonConvergenceError` when the gradient test
    fails after ``MAX_ITER`` steps or after a stalled step, when the Newton
    system is singular even with the ridge, or when the basis separates the
    samples. ``iterations`` counts the steps taken, or, for a singular
    system, the attempt that failed.
    """
    n0, n1 = data.n0, data.n1
    q = evaluate_matrix(spec, data.x0, data.x1)
    qT, d = q.T, q.shape[1]

    with np.errstate(over="ignore", invalid="ignore"):
        gram = qT @ q  # not finite when the basis overflows: then as good as singular
    cond = np.linalg.cond(gram) if np.isfinite(gram).all() else math.inf
    if cond > MAX_CONDITION:
        raise SingularBasisError(
            "basis components are collinear on the pooled sample "
            f"(Gram condition number {cond:.3e})"
        )

    q1_sum = q[n0:].sum(axis=0)
    theta = np.zeros(d)
    val, log_den, w = _kernel(q, theta, n0, n1)
    buf = np.empty(data.n)
    grad_tol = n1 * TOL_GRAD
    stalled = False

    # attempt ``it`` starts after ``it`` steps; the gradient test is the one
    # way out that does not raise, and the budget test bounds the loop
    for it in itertools.count():
        grad = q1_sum - qT @ w
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= grad_tol:
            break
        if stalled or it >= MAX_ITER:
            raise NonConvergenceError(
                f"no convergence after {it} iterations "
                f"(gradient sup-norm {grad_norm:.3e}, tolerance {grad_tol:.3e})",
                iterations=it,
                gradient_norm=grad_norm,
            )

        # the Newton step, or the ridged one where the system is singular or
        # the step descends; the ridged step is taken as it is, and so is a
        # NaN step, which the line search then rejects
        neg_hess = _neg_hessian(qT, w, buf)
        for ridged, ridge in enumerate((0.0, RIDGE_SCALE * np.trace(neg_hess))):
            try:
                step = np.linalg.solve(neg_hess + ridge * np.eye(d), grad)
            except np.linalg.LinAlgError:
                continue
            if ridged or not grad @ step <= 0:
                break
        else:  # every curvature weight w(1-w) underflowed, so the ridge is 0
            raise NonConvergenceError(
                f"singular Newton system at iteration {it + 1} "
                f"(gradient sup-norm {grad_norm:.3e})",
                iterations=it + 1,
                gradient_norm=grad_norm,
            )

        # backtracking line search, Armijo condition; skipped once the
        # predicted gain is below the rounding error of the objective
        slope = float(grad @ step)
        noise = 16.0 * np.finfo(float).eps * (1.0 + abs(val))
        t = 1.0
        while t >= 1e-14:
            cand = theta + t * step
            cand_parts = _kernel(q, cand, n0, n1)
            if cand_parts[0] >= val + ARMIJO * t * slope - noise:
                theta, (val, log_den, w) = cand, cand_parts
                break
            t *= 0.5
        # an exhausted search keeps theta; either way the next gradient test decides
        stalled = t < 1e-14 or float(np.max(np.abs(t * step))) <= TOL_STEP

    # l(theta) < -n0 log n0 - n1 log n1, and only theta -> infinity on samples
    # the basis separates comes this close: no finite maximizer exists
    if val >= -n0 * math.log(n0) - n1 * math.log(n1) - 1e-6 * data.n:
        raise NonConvergenceError(
            f"the basis separates the samples, so no finite maximizer exists "
            f"(log-EL {val:.6g} at its supremum after {it} iterations)",
            iterations=it,
            gradient_norm=grad_norm,
        )

    return DrmFit(
        theta_hat=theta,
        weights=np.exp(-log_den),
        log_el_at_max=val,
        iterations=it,
        converged=True,
        final_gradient_norm=grad_norm,
        tilted_weights=w / n1,
    )
