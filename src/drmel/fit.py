"""Fitting the density-ratio tilt parameter by empirical likelihood.

The dual profile log-EL for two samples is

    l(theta) = - sum_{k,j} log[n0 + n1 * exp(theta' q(x_kj))]
               + sum_{j<=n1} theta' q(x_1j),

a smooth concave function maximized by a damped Newton iteration. With
z = theta' q(x) + log(n1/n0) and e = exp(-|z|), each row's log-denominator is
L = log n0 + max(z, 0) + log1p(e) and its tilt fraction is w = n1 exp(theta' q - L)
= (1 if z > 0 else e) / (1 + e): two transcendentals, no overflow. q is the (n, d)
view of a C-ordered (d, n) block. Each fit also builds once a C-ordered block of
the products q_i q_j for 1 <= i <= j (x^2, x^3 and x^4 for the quadratic basis);
q's own rows serve i = 0. The entries of q' diag(s) q are then one matvec of q
and one of that block with s: the Gram matrix takes s = 1, the negative Hessian
s = w(1 - w). At theta = 0, where every fit opens, w is one value c on every
row, so :func:`fit_mele` takes its first step there over no row: the gradient
is q1_sum - c Gram[0] and the negative Hessian c(1 - c) Gram. That step is
taken only there; the kernel and the Hessian have no case for theta = 0.

Every fit evaluates its basis into a workspace of its own and writes every
Newton step there, so the loop allocates no row of n. The workspace is one
block: the d basis rows, two scratch rows (the second also holds the
Hessian's weights) and the product block, d + 2 + d(d - 1)/2 rows of n
floats, and the kernel's boolean mask, one row of n bytes. Beside it the fit
keeps one (L, w) pair of rows, which the line search writes every candidate
into; a refused candidate's rows are never read. When the fit ends the pair
becomes the returned masses in place, exp(-L) and w / n1, and the block is
freed: a returned :class:`DrmFit` owns its arrays, so no later fit touches
them. What depends on the shape (n0, n1, d) alone is computed once per
shape, kept for the last 64 shapes and shared read-only by every fit, in any
thread: the place of each Gram entry among the row sums, the index pairs of
the product block, and the kernel at theta = 0, where L and w are one value
each. A fit keeps no other state, so it computes the same bits whatever ran
before it. The ridged system and the trace it needs are built only for a
ridged step.

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

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar

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


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no boolean ==
class TwoSampleData:
    """Immutable pair of samples: x0 from the base population, x1 from the target.

    Both are read-only views into one private copy of the pooled sample, so
    the caller's arrays stay writeable and a later write to them changes
    nothing here. Each sample is stored in ascending order, not in the
    caller's: every estimator is symmetric in the order within a sample, so
    this changes no estimate, makes every fit independent of the input row
    order down to the last bit, and leaves the pooled sample two ascending
    runs, which a stable sort merges in linear time.
    """

    x0: np.ndarray
    x1: np.ndarray
    _pooled: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x0 = np.ravel(np.asarray(self.x0, dtype=float))
        x1 = np.ravel(np.asarray(self.x1, dtype=float))
        if x0.size < 1 or x1.size < 1:
            raise InvalidArgumentError("both samples must be nonempty")
        pooled = np.concatenate([x0, x1])
        if not np.isfinite(pooled).all():
            raise InvalidArgumentError("samples must contain only finite values")
        pooled[:x0.size].sort()
        pooled[x0.size:].sort()
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
        """Pooled observations, base block first then target block, each
        ascending; read-only."""
        return self._pooled


MAX_CONDITION = 1e12  # largest Gram condition number of a usable basis
RIDGE_SCALE = 1e-10  # ridge on a singular Newton system, relative to its trace
TOL_GRAD = 1e-10  # gradient sup-norm tolerance, scaled by n1
TOL_STEP = 1e-10  # sup-norm of a step that stalls the fit
MAX_ITER = 100  # Newton steps before the fit gives up
ARMIJO = 1e-4  # sufficient-increase constant of the line search


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no boolean ==
class DrmFit:
    """Result of maximizing the dual profile log-EL. :func:`fit_mele` returns
    only converged fits, so ``converged`` is a class constant, read by
    benchmarks/spans.py."""

    converged: ClassVar[bool] = True
    theta_hat: np.ndarray
    weights: np.ndarray        # fitted base-measure masses over the pooled sample
    log_el_at_max: float
    iterations: int
    final_gradient_norm: float
    tilted_weights: np.ndarray  # fitted target masses p_kj * exp(theta' q_kj), pooled


def _kernel(q: np.ndarray, theta: np.ndarray, n0: int, n1: int, out=None) -> tuple:
    """Dual log-EL at theta and its per-point parts (value, L, w), where
    L = log(n0 + n1 exp(u)) and w = n1 exp(u - L) for u = q @ theta, by the
    module docstring's formulas. The base weights are exp(-L), the tilted
    target masses w / n1. L and w are written to the first two rows of
    ``out = (L, w, e, t, mask)``, and two scratch rows and a boolean mask of
    q's length go in the rest; without ``out`` the call allocates them. The
    fitter's start at theta = 0 is :attr:`_Workspace.zero`, not this."""
    if out is None:
        out = (*np.empty((4, q.shape[0])), np.empty(q.shape[0], dtype=bool))
    z, w, e, t, mask = out
    np.matmul(q, theta, out=z)
    value = float(z[n0:].sum())
    z += math.log(n1 / n0)
    np.abs(z, out=e)
    np.exp(np.negative(e, out=e), out=e)
    np.copyto(w, e)
    np.copyto(w, 1.0, where=np.greater(z, 0, out=mask))
    w /= np.add(1.0, e, out=t)
    np.maximum(z, 0.0, out=z)
    z += math.log(n0)
    z += np.log1p(e, out=e)
    return value - float(z.sum()), z, w


@functools.lru_cache(maxsize=64)
def _shared(n0: int, n1: int, d: int) -> tuple:
    """What a workspace of that shape holds that depends on the shape alone,
    read-only and shared by every fit of that shape: ``(place, products,
    zero)``. ``place`` is the symmetric (d, d) array of the place of each
    q' diag(s) q entry among the s-weighted row sums of q (places 0 to d - 1)
    and of the product block, ``products`` the (i, j) pairs of the products
    q_i q_j, 1 <= i <= j, in the row-major order of the upper triangle, and
    ``zero`` :func:`_kernel` at theta = 0, whose L and w are views of the one
    value each that a row of u = 0 gives."""
    rows, cols = np.triu_indices(d)
    place = np.empty((d, d), dtype=np.intp)
    place[rows, cols] = place[cols, rows] = np.arange(rows.size)
    place.setflags(write=False)
    _, L, w = _kernel(np.zeros((1, 1)), np.ones(1), n0, n1)
    L, w = np.broadcast_to(L, n0 + n1), np.broadcast_to(w, n0 + n1)
    return place, tuple(zip(rows[d:].tolist(), cols[d:].tolist())), (float(-np.sum(L)), L, w)


class _Workspace:
    """What a fit of n0 + n1 points on a basis of dimension d reads and
    writes besides its (L, w) pair: one block of d + 2 + d(d - 1)/2 rows of
    n floats and a row of n bytes, with views of them by role. ``basis`` is
    the block's first d rows, which the fit evaluates its basis into, and
    ``rows`` the rest.

    ``scratch`` is the kernel's two scratch rows and its mask; ``s`` (the
    second scratch row) takes the Hessian's weights; ``block`` is the
    C-ordered block of the products q_i q_j; ``place``, ``products`` and
    ``zero``, the kernel at theta = 0, are :func:`_shared` of the shape."""

    def __init__(self, n0: int, n1: int, d: int):
        n = n0 + n1
        block = np.empty((d + 2 + d * (d - 1) // 2, n))
        self.basis, self.rows = block[:d], block[d:]
        self.scratch = (self.rows[0], self.rows[1], np.empty(n, dtype=bool))
        self.s, self.block = self.rows[1], self.rows[2:]
        self.place, self.products, self.zero = _shared(n0, n1, d)


def _moments(qT: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Fill the workspace's product block from the basis rows qT and return the
    Gram matrix q'q from the row sums of qT and of the block; it is not finite
    where the basis overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        for row, (i, j) in zip(ws.block, ws.products):
            np.multiply(qT[i], qT[j], out=row)
        return np.concatenate([qT.sum(axis=1), ws.block.sum(axis=1)])[ws.place]


def _neg_hessian(qT: np.ndarray, ws: _Workspace, w: np.ndarray) -> np.ndarray:
    """q' diag(w(1-w)) q, from one matvec of qT and one of the workspace's
    product block. The fitter's first step, at theta = 0, scales the Gram
    matrix instead."""
    s = np.subtract(1.0, w, out=ws.s)
    s *= w
    return np.concatenate([qT @ s, ws.block @ s])[ws.place]


def _oracle(data: TwoSampleData, spec: BasisSpec, theta) -> tuple:
    """Basis matrix of the pooled sample and the kernel at theta, which must
    have one entry per basis component."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.dimension,):
        raise InvalidArgumentError(f"theta must have shape ({spec.dimension},), got {theta.shape}")
    q = evaluate_matrix(spec, data.pooled())
    return q, _kernel(q, theta, data.n0, data.n1)


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
    h = (q * (w * (1.0 - w))[:, None]).T @ q
    return -(h + h.T) / 2.0


def fit_mele(data: TwoSampleData, spec: BasisSpec) -> DrmFit:
    """Maximize the dual profile log-EL by damped Newton from theta = 0.

    Raises :class:`SingularBasisError` when the basis is collinear on the
    pooled sample and :class:`NonConvergenceError` when the gradient test
    fails after ``MAX_ITER`` steps or after a stalled step, when the Newton
    system is singular even with the ridge, or when the basis separates the
    samples. ``iterations`` counts the steps taken, or, for a singular
    system, the attempt that failed.
    """
    n0, n1, d = data.n0, data.n1, spec.dimension
    ws = _Workspace(n0, n1, d)
    q = evaluate_matrix(spec, data.pooled(), out=ws.basis)
    qT = q.T
    pair = np.empty(data.n), np.empty(data.n)  # (L, w) of every candidate; the returned masses
    gram = _moments(qT, ws)  # not finite when the basis overflows: then as good as singular
    cond = np.linalg.cond(gram) if np.isfinite(gram).all() else math.inf
    if cond > MAX_CONDITION:
        raise SingularBasisError(
            "basis components are collinear on the pooled sample "
            f"(Gram condition number {cond:.3e})"
        )

    # every fit opens at theta = 0, where w is one value c on every row: its
    # gradient and its curvature c(1 - c) Gram pass over no row
    q1_sum = q[n0:].sum(axis=0)
    theta = np.zeros(d)
    val, log_den, w = ws.zero
    c = w[0]
    grad = q1_sum - c * gram[0]
    grad_tol = n1 * TOL_GRAD
    stalled = False

    # attempt ``it`` starts after ``it`` steps; the gradient test is the one
    # way out that does not raise, and the budget test bounds the loop
    for it in itertools.count():
        grad_norm = max(map(abs, grad.tolist()))
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
        neg_hess = (1.0 - c) * c * gram if it == 0 else _neg_hessian(qT, ws, w)
        try:
            step = np.linalg.solve(neg_hess, grad)
            slope = float(grad @ step)
        except np.linalg.LinAlgError:
            slope = -math.inf  # singular: the ridged step
        if slope <= 0:
            try:
                step = np.linalg.solve(neg_hess + RIDGE_SCALE * np.trace(neg_hess) * np.eye(d), grad)
            except np.linalg.LinAlgError:  # every curvature weight w(1-w) underflowed: no ridge
                raise NonConvergenceError(
                    f"singular Newton system at iteration {it + 1} "
                    f"(gradient sup-norm {grad_norm:.3e})",
                    iterations=it + 1,
                    gradient_norm=grad_norm,
                ) from None
            slope = float(grad @ step)

        # backtracking line search, Armijo condition; skipped once the
        # predicted gain is below the rounding error of the objective
        noise = 16.0 * math.ulp(1.0) * (1.0 + abs(val))  # 16 machine epsilons
        t = 1.0
        while t >= 1e-14:
            dx = t * step
            cand = theta + dx
            cand_parts = _kernel(q, cand, n0, n1, pair + ws.scratch)
            if cand_parts[0] >= val + ARMIJO * t * slope - noise:
                theta, (val, log_den, w) = cand, cand_parts
                grad = q1_sum - qT @ w
                break
            t *= 0.5
        # an exhausted search keeps theta and the gradient but leaves the last
        # refused candidate in the pair; that gradient failed its test, so the
        # next test fails again and the loop raises before a row is read
        stalled = t < 1e-14 or max(map(abs, dx.tolist())) <= TOL_STEP

    # l(theta) < -n0 log n0 - n1 log n1, and only theta -> infinity on samples
    # the basis separates comes this close: no finite maximizer exists
    if val >= -n0 * math.log(n0) - n1 * math.log(n1) - 1e-6 * data.n:
        raise NonConvergenceError(
            f"the basis separates the samples, so no finite maximizer exists "
            f"(log-EL {val:.6g} at its supremum after {it} iterations)",
            iterations=it,
            gradient_norm=grad_norm,
        )

    # in place: log_den and w are the pair's rows, or the read-only rows of
    # theta = 0 when the fit converged there without a step
    weights, tilted = np.negative(log_den, out=pair[0]), np.divide(w, n1, out=pair[1])
    return DrmFit(
        theta_hat=theta,
        weights=np.exp(weights, out=weights),
        log_el_at_max=val,
        iterations=it,
        final_gradient_norm=grad_norm,
        tilted_weights=tilted,
    )
