"""Fitting the density-ratio tilt parameter by empirical likelihood.

The dual profile log-EL for two samples is

    l(theta) = - sum_{k,j} log[n0 + n1 * exp(theta' q(x_kj))]
               + sum_{j<=n1} theta' q(x_1j),

a smooth concave function maximized by a damped Newton iteration with
analytic gradient and Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, evaluate_matrix
from .errors import NonConvergenceError, SingularBasisError

__all__ = [
    "TwoSampleData",
    "SolverOptions",
    "DrmFit",
    "dual_log_el",
    "score",
    "hessian",
    "fit_mele",
]


@dataclass(frozen=True)
class TwoSampleData:
    """Immutable pair of samples: x0 from the base population, x1 from the target."""

    x0: np.ndarray
    x1: np.ndarray

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        x1 = np.atleast_1d(np.asarray(self.x1, dtype=float))
        if x0.size < 1 or x1.size < 1:
            raise ValueError("both samples must be nonempty")
        if not (np.isfinite(x0).all() and np.isfinite(x1).all()):
            raise ValueError("samples must contain only finite values")
        x0.setflags(write=False)
        x1.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)

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
        """Pooled observations, base block first then target block."""
        return np.concatenate([self.x0, self.x1])


@dataclass(frozen=True)
class SolverOptions:
    tol_grad: float = 1e-10   # gradient sup-norm tolerance, scaled by n1
    tol_step: float = 1e-10
    max_iter: int = 100
    armijo: float = 1e-4
    ridge_scale: float = 1e-10
    max_condition: float = 1e12


@dataclass(frozen=True)
class DrmFit:
    """Result of maximizing the dual profile log-EL."""

    theta_hat: np.ndarray
    weights: np.ndarray        # fitted base-measure masses over the pooled sample
    log_el_at_max: float
    iterations: int
    converged: bool
    final_gradient_norm: float
    # fitted target masses p_kj * exp(theta' q_kj) over the pooled sample;
    # None on a hand-built fit, and estimators then recompute them
    tilted_weights: np.ndarray | None = None


def _kernel(q: np.ndarray, theta: np.ndarray, n0: int, n1: int) -> tuple:
    """Dual log-EL at theta and its per-point parts, in one overflow-safe pass.

    Returns (value, L, w) where L = log(n0 + n1*exp(u)) for u = q @ theta,
    computed by logaddexp so that no u overflows, and w is the tilt fraction
    n1*exp(u) / (n0 + n1*exp(u)) = exp(log n1 + u - L). The fitted base
    weights are exp(-L) and the tilted target masses w / n1.
    """
    u = q @ theta
    log_tilt = math.log(n1) + u
    log_den = np.logaddexp(math.log(n0), log_tilt)
    value = float(-np.sum(log_den) + np.sum(u[n0:]))
    return value, log_den, np.exp(log_tilt - log_den)


def _oracle(data: TwoSampleData, spec: BasisSpec, theta) -> tuple:
    """Basis matrix of the pooled sample and the kernel at theta."""
    q = evaluate_matrix(spec, data.pooled())
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
    h = -(q * (w * (1.0 - w))[:, None]).T @ q
    return (h + h.T) / 2.0


def fit_mele(
    data: TwoSampleData,
    spec: BasisSpec,
    options: SolverOptions | None = None,
) -> DrmFit:
    """Maximize the dual profile log-EL by damped Newton from theta = 0.

    Raises :class:`SingularBasisError` when the basis is collinear on the
    pooled sample and :class:`NonConvergenceError` when the gradient test
    fails after the iteration budget, a failed line search or a singular
    Newton system.
    """
    opts = options or SolverOptions()
    n0, n1 = data.n0, data.n1
    q = evaluate_matrix(spec, data.pooled())
    d = q.shape[1]

    gram = q.T @ q
    if np.linalg.cond(gram) > opts.max_condition:
        raise SingularBasisError(
            "basis components are collinear on the pooled sample "
            f"(Gram condition number {np.linalg.cond(gram):.3e})"
        )

    q1_sum = q[n0:].sum(axis=0)
    theta = np.zeros(d)
    val, log_den, w = _kernel(q, theta, n0, n1)
    grad_tol = n1 * opts.tol_grad
    converged = False
    it = 0

    for it in range(1, opts.max_iter + 1):
        grad = q1_sum - q.T @ w
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= grad_tol:
            converged = True
            it -= 1
            break

        neg_hess = (q * (w * (1.0 - w))[:, None]).T @ q
        try:
            step = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError:
            step = None
        if step is None or grad @ step <= 0:
            # ridge to restore an ascent direction
            ridge = opts.ridge_scale * np.trace(neg_hess)
            try:
                step = np.linalg.solve(neg_hess + ridge * np.eye(d), grad)
            except np.linalg.LinAlgError:
                # every curvature weight w(1-w) underflowed, so the ridge is 0
                raise NonConvergenceError(
                    f"singular Newton system at iteration {it} "
                    f"(gradient sup-norm {grad_norm:.3e})",
                    iterations=it,
                    gradient_norm=grad_norm,
                ) from None

        # backtracking line search, Armijo condition; skipped once the
        # predicted gain is below the rounding error of the objective
        slope = float(grad @ step)
        noise = 16.0 * np.finfo(float).eps * (1.0 + abs(val))
        t = 1.0
        while True:
            cand = theta + t * step
            cand_parts = _kernel(q, cand, n0, n1)
            if cand_parts[0] >= val + opts.armijo * t * slope - noise:
                break
            t *= 0.5
            if t < 1e-14:
                cand_parts = None
                break
        if cand_parts is None:
            break  # no acceptable step: keep theta, the gradient test decides
        theta, (val, log_den, w) = cand, cand_parts
        if float(np.max(np.abs(t * step))) <= opts.tol_step:
            break

    if not converged:
        grad_norm = float(np.max(np.abs(q1_sum - q.T @ w)))
        if grad_norm > grad_tol:
            raise NonConvergenceError(
                f"no convergence after {it} iterations "
                f"(gradient sup-norm {grad_norm:.3e}, tolerance {grad_tol:.3e})",
                iterations=it,
                gradient_norm=grad_norm,
            )
        converged = True

    return DrmFit(
        theta_hat=theta,
        weights=np.exp(-log_den),
        log_el_at_max=val,
        iterations=it,
        converged=converged,
        final_gradient_norm=grad_norm,
        tilted_weights=w / n1,
    )
