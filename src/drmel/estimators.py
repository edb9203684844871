"""Distribution and quantile estimators built on a fitted density ratio model.

The fitted base-measure masses p_kj over the pooled sample give the
estimated base CDF; multiplying them by the fitted tilt exp(theta' q) gives
the target masses, which the fit carries as ``DrmFit.tilted_weights`` and
which give the target CDF. Both come from the fit alone: nothing here
recomputes a mass, and a fit whose mass vectors do not match the data is
rejected. Quantiles use the left-continuous generalized inverse, and the
asymptotic variances are plug-in versions of the limiting-normal variances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .basis import BasisSpec, evaluate_matrix
from .errors import (
    DegenerateVarianceError,
    InvalidArgumentError,
    SingularMomentError,
    check_density,
    check_level,
)
from .fit import DrmFit, TwoSampleData
from .nonparametric import Ecdf, KdeModel, empirical_quantile, empirical_quantile_avar, kde_density

__all__ = [
    "WeightedCdf",
    "QuantileEstimate",
    "FittedDrm",
    "EmpiricalModel",
    "estimate_g0",
    "estimate_g1",
    "drm_quantile",
    "avar_theta",
    "avar_theta_inverse_form",
    "avar_g1_at",
    "avar_quantile",
    "corollary_variance",
    "drm_quantile_estimate",
]


@dataclass(frozen=True)
class WeightedCdf:
    """A discrete CDF: sorted support with aligned nonnegative masses."""

    support: np.ndarray
    mass: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def from_points(cls, points: np.ndarray, mass: np.ndarray) -> "WeightedCdf":
        order = np.argsort(points, kind="stable")
        support = np.asarray(points, dtype=float)[order]
        mass = np.asarray(mass, dtype=float)[order]
        return cls(support=support, mass=mass, cumulative=np.cumsum(mass))

    def evaluate(self, x: float) -> float:
        """Total mass at or below x."""
        idx = int(np.searchsorted(self.support, x, side="right"))
        return 0.0 if idx == 0 else float(self.cumulative[idx - 1])

    def total_mass(self) -> float:
        return float(self.cumulative[-1])


@dataclass(frozen=True)
class QuantileEstimate:
    level: float
    point: float
    std_error: float
    ci_low: float
    ci_high: float

    @classmethod
    def normal(cls, level: float, point: float, avar: float, n: int,
               ci_level: float) -> "QuantileEstimate":
        """``point`` with standard error sqrt(avar / n) and the normal confidence
        interval of coverage ``ci_level``, which must lie strictly between 0 and 1.
        Raises :class:`DegenerateVarianceError` unless avar is positive and finite:
        every estimate is built here, so none reports an infinite, zero or NaN error."""
        if not 0.0 < ci_level < 1.0:
            raise InvalidArgumentError(f"ci_level must be strictly between 0 and 1, got {ci_level}")
        if not 0.0 < avar < np.inf:
            raise DegenerateVarianceError(f"plug-in variance {avar} is not positive and finite")
        se = float(np.sqrt(avar / n))
        z = float(ndtri(0.5 + ci_level / 2.0))
        return cls(level, point, se, point - z * se, point + z * se)


class FittedDrm:
    """A converged fit together with its data and basis, caching what the
    estimators share.

    The pooled sort order, the support, both CDFs, the basis matrix, the
    plug-in target moments of q and the KDE of the target sample are each
    computed on first use and then kept. Every estimator below accepts a
    FittedDrm in place of its ``fit`` argument, so estimates at any number
    of levels cost one sort. Like every model a method name fits, it has
    ``quantile(p)`` and ``estimate(p, ci_level)``. :class:`TwoSampleData` keeps each sample ascending, so the
    pooled sample is two ascending runs and the stable sort is one linear
    merge of them; tied points keep their pooled order, as in
    :meth:`WeightedCdf.from_points`.
    """

    def __init__(self, data: TwoSampleData, spec: BasisSpec, fit: DrmFit):
        if not fit.converged:
            raise InvalidArgumentError("fit did not converge; estimators unavailable")
        for masses in (fit.weights, fit.tilted_weights):
            if masses.size != data.n:
                raise InvalidArgumentError(f"fit has {masses.size} masses for {data.n} points")
        self.data, self.spec, self.fit = data, spec, fit

    @cached_property
    def _order(self) -> np.ndarray:
        return np.argsort(self.data.pooled(), kind="stable")

    @cached_property
    def support(self) -> np.ndarray:
        return self.data.pooled()[self._order]

    @cached_property
    def q(self) -> np.ndarray:
        """Basis matrix of the pooled sample, in pooled (not sorted) order."""
        return evaluate_matrix(self.spec, self.data.pooled())

    def _cdf(self, mass: np.ndarray) -> WeightedCdf:
        mass = mass[self._order]
        return WeightedCdf(support=self.support, mass=mass, cumulative=np.cumsum(mass))

    @cached_property
    def g0(self) -> WeightedCdf:
        return self._cdf(self.fit.weights)

    @cached_property
    def g1(self) -> WeightedCdf:
        return self._cdf(self.fit.tilted_weights)

    @cached_property
    def target_moments(self) -> tuple:
        """Plug-in target moments of q: (support-ordered q_minus rows,
        E1[q_minus], inverse of Var1[q_minus])."""
        mass = self.g1.mass
        q_minus = self.q[self._order, 1:]
        mean_q = mass @ q_minus
        second = (q_minus * mass[:, None]).T @ q_minus
        var_q = second - np.outer(mean_q, mean_q)
        var_q = (var_q + var_q.T) / 2.0
        try:
            np.linalg.cholesky(var_q)
        except np.linalg.LinAlgError:
            raise SingularMomentError(
                "plug-in variance of the non-constant basis components "
                "is not positive definite"
            ) from None
        return q_minus, mean_q, np.linalg.inv(var_q)

    @cached_property
    def kde(self) -> KdeModel:
        """Silverman KDE of the target sample, for the density plug-in."""
        return KdeModel.silverman(self.data.x1)

    def quantile(self, p: float) -> float:
        return drm_quantile(estimate_g1(self, self.data, self.spec), p)

    def estimate(self, p: float, ci_level: float = 0.95) -> QuantileEstimate:
        return drm_quantile_estimate(self, self.data, self.spec, p, ci_level)

    def _bracket_at(self, x: float) -> tuple[np.ndarray, float]:
        """Partial moment Q_hat(x) = sum mass*q_minus*1(support<=x) and G1_hat(x)."""
        mass, q_minus = self.g1.mass, self.target_moments[0]
        idx = int(np.searchsorted(self.support, x, side="right"))
        return mass[:idx] @ q_minus[:idx], float(np.sum(mass[:idx]))


def _fitted(fit: DrmFit | FittedDrm, data: TwoSampleData, spec: BasisSpec) -> FittedDrm:
    """``fit`` itself when it is a FittedDrm of this data and basis, else a new one."""
    if isinstance(fit, FittedDrm):
        if fit.data is data and fit.spec == spec:
            return fit
        fit = fit.fit
    return FittedDrm(data, spec, fit)


def estimate_g1(fit: DrmFit, data: TwoSampleData, spec: BasisSpec) -> WeightedCdf:
    """Estimated target CDF: mass p_kj * exp(theta' q(x_kj)) at each pooled point."""
    return _fitted(fit, data, spec).g1


def estimate_g0(fit: DrmFit, data: TwoSampleData, spec: BasisSpec) -> WeightedCdf:
    """Estimated base CDF: mass p_kj at each pooled point."""
    return _fitted(fit, data, spec).g0


def drm_quantile(cdf: WeightedCdf, p: float) -> float:
    """Smallest support point whose cumulative mass reaches p."""
    idx = int(cdf.cumulative.searchsorted(check_level(p), side="left"))
    idx = min(idx, cdf.support.size - 1)
    return float(cdf.support[idx])


def avar_theta(fit: DrmFit, data: TwoSampleData, spec: BasisSpec) -> np.ndarray:
    """Plug-in asymptotic variance matrix of sqrt(n1)*(theta_hat - theta).

    Computed in the block form built from E1[q_minus] and Var1[q_minus];
    algebraically identical to :func:`avar_theta_inverse_form`.
    """
    _, mean_q, var_inv = _fitted(fit, data, spec).target_moments
    m = np.vstack([-mean_q, np.eye(mean_q.size)])
    return m @ var_inv @ m.T


def avar_theta_inverse_form(fit: DrmFit, data: TwoSampleData, spec: BasisSpec) -> np.ndarray:
    """Same matrix as :func:`avar_theta`, via inv(E1[q q']) minus the (1,1) unit."""
    model = _fitted(fit, data, spec)
    q = model.q
    second = (q * model.fit.tilted_weights[:, None]).T @ q
    try:
        inv = np.linalg.inv(second)
    except np.linalg.LinAlgError:
        raise SingularMomentError("plug-in second moment of q is singular") from None
    inv[0, 0] -= 1.0
    return inv


def avar_g1_at(fit: DrmFit, data: TwoSampleData, spec: BasisSpec, x: float) -> float:
    """Plug-in asymptotic variance of sqrt(n1)*(G1_hat(x) - G1(x))."""
    model = _fitted(fit, data, spec)
    _, mean_q, var_inv = model.target_moments
    partial, g1_at = model._bracket_at(x)
    bracket = partial - mean_q * g1_at
    return float(bracket @ var_inv @ bracket)


def avar_quantile(
    fit: DrmFit,
    data: TwoSampleData,
    spec: BasisSpec,
    p: float,
    density_at: float,
) -> float:
    """Plug-in asymptotic variance of the DRM quantile estimator at level p,
    the variance of sqrt(n1) * (estimate - truth).

    ``density_at`` is an estimate of the target density at the estimated
    quantile, typically from a kernel density estimator.
    """
    model = _fitted(fit, data, spec)
    p = check_level(p)
    square = check_density(density_at)
    _, mean_q, var_inv = model.target_moments
    xi = drm_quantile(model.g1, p)
    partial = model._bracket_at(xi)[0]
    bracket = partial - p * mean_q
    return float(bracket @ var_inv @ bracket) / square


def corollary_variance(k: float, p: float, density_at: float, parametric_avar: float) -> float:
    """Limiting variance of the DRM quantile estimator with identical populations.

    A weighted average of the empirical-quantile variance p(1-p)/g^2
    (weight 1/(k+1)) and the parametric-MLE variance (weight k/(k+1)),
    where k is the base-to-target sample size ratio.
    """
    if not 0 <= k < np.inf:
        raise InvalidArgumentError(f"sample size ratio k must be finite and nonnegative, got {k}")
    if not 0 <= parametric_avar < np.inf:
        raise InvalidArgumentError("parametric variance must be finite and nonnegative")
    empirical = empirical_quantile_avar(p, density_at)
    return empirical / (k + 1.0) + parametric_avar * k / (k + 1.0)


def drm_quantile_estimate(fit: DrmFit, data: TwoSampleData, spec: BasisSpec, p: float,
                          ci_level: float = 0.95) -> QuantileEstimate:
    """Point estimate, standard error and normal CI for the target p-quantile.

    The density plug-in for the variance is a Gaussian KDE on the target
    sample with Silverman's rule-of-thumb bandwidth. For several levels,
    pass one :class:`FittedDrm` as ``fit`` to every call.
    """
    model = _fitted(fit, data, spec)
    point = model.quantile(p)
    g_hat = kde_density(model.kde, point)
    avar = avar_quantile(model, data, spec, p, g_hat)
    return QuantileEstimate.normal(p, point, avar, data.n1, ci_level)


class EmpiricalModel:
    """The type-1 empirical quantiles of the target sample, with plug-in
    standard errors p(1-p)/g^2 from the Silverman KDE of that sample, which
    is computed on first use."""

    def __init__(self, data: TwoSampleData):
        self.data, self.ecdf = data, Ecdf.from_sample(data.x1)

    @cached_property
    def kde(self) -> KdeModel:
        return KdeModel.silverman(self.data.x1)

    def quantile(self, p: float) -> float:
        return empirical_quantile(self.ecdf, p)

    def estimate(self, p: float, ci_level: float = 0.95) -> QuantileEstimate:
        point = self.quantile(p)
        avar = empirical_quantile_avar(p, kde_density(self.kde, point))
        return QuantileEstimate.normal(p, point, avar, self.data.n1, ci_level)
