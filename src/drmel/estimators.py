"""Distribution and quantile estimators built on a fitted density ratio model.

Every DRM estimand is a function of one :class:`FittedDrm`, the fit of
one sample pair on one basis, and of its own level or point, if it has one.
The fitted base-measure masses p_kj over the pooled sample give the
estimated base CDF; multiplying them by the fitted tilt exp(theta' q) gives
the target masses, which the fit carries as ``DrmFit.tilted_weights`` and
which give the target CDF. Each CDF is :meth:`WeightedCdf.from_points` of
the pooled sample and the fit's masses: nothing here recomputes a mass.
Quantiles use the left-continuous generalized inverse, and the asymptotic
variances are plug-in versions of the limiting-normal variances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import BasisSpec, evaluate_matrix
from .errors import (
    DegenerateVarianceError,
    SingularMomentError,
    check_density,
    check_level,
    check_real,
)
from .fit import TwoSampleData, fit_mele
from .nonparametric import (Ecdf, KdeModel, _ndtri, empirical_quantile, empirical_quantile_avar,
                            kde_density)

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


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no boolean ==
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
        interval of coverage ``ci_level``, a real number strictly between 0 and 1.
        Raises :class:`DegenerateVarianceError` unless avar is positive and finite
        and avar / n does not underflow to 0: every estimate is built here, so
        none reports an infinite, zero or NaN error."""
        ci_level = check_real(ci_level, "ci_level", 0, 1)
        if not 0.0 < avar < np.inf:
            raise DegenerateVarianceError(f"plug-in variance {avar} is not positive and finite")
        se = float(np.sqrt(avar / n))
        if se == 0.0:
            raise DegenerateVarianceError(f"plug-in variance {avar} over n={n} underflows to 0")
        z = _ndtri(0.5 + ci_level / 2.0)
        return cls(level, point, se, point - z * se, point + z * se)


class FittedDrm:
    """The fit of ``data`` on the basis ``spec``, made on construction by
    :func:`~drmel.fit.fit_mele` and kept as ``fit``, together with its data
    and basis: the one argument of every DRM estimand below, caching what
    they share. A fit that fails raises its :class:`DrmError` here.

    Each CDF, :meth:`WeightedCdf.from_points` of the pooled sample and one
    set of the fit's masses, the plug-in target moments of q and the KDE of
    the target sample are each computed on first use and then kept, so
    estimates at any number of levels cost one sort; ``support`` is the
    target CDF's. Like every model a method name fits, it has
    ``quantile(p)`` and ``estimate(p, ci_level)``, which read
    :func:`estimate_g1`, :func:`drm_quantile_estimate` and
    :func:`avar_quantile` by this module's names, and the constructor calls
    ``fit_mele`` by this module's name, so that a tracer that swaps module
    attributes (benchmarks/spans.py) sees the calls.
    :class:`TwoSampleData` keeps each sample ascending, so the pooled
    sample is two ascending runs, and the stable sort of
    :meth:`WeightedCdf.from_points` is one linear merge of them.
    """

    def __init__(self, data: TwoSampleData, spec: BasisSpec):
        self.data, self.spec, self.fit = data, spec, fit_mele(data, spec)

    @cached_property
    def _g0(self) -> WeightedCdf:
        return WeightedCdf.from_points(self.data.pooled(), self.fit.weights)

    @cached_property
    def _g1(self) -> WeightedCdf:
        return WeightedCdf.from_points(self.data.pooled(), self.fit.tilted_weights)

    @property
    def support(self) -> np.ndarray:
        return self._g1.support

    @cached_property
    def target_moments(self) -> tuple:
        """Plug-in target moments of q: (support-ordered q_minus rows,
        E1[q_minus], inverse of Var1[q_minus])."""
        mass = self._g1.mass
        # a C-ordered copy: products with the strided column slice give other bits
        q_minus = np.ascontiguousarray(evaluate_matrix(self.spec, self.support)[:, 1:])
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
        return drm_quantile(estimate_g1(self), p)

    def estimate(self, p: float, ci_level: float = 0.95) -> QuantileEstimate:
        return drm_quantile_estimate(self, p, ci_level)

    def _bracket_at(self, x: float) -> tuple[np.ndarray, float]:
        """Partial moment Q_hat(x) = sum mass*q_minus*1(support<=x) and G1_hat(x)."""
        mass, q_minus = self._g1.mass, self.target_moments[0]
        idx = int(np.searchsorted(self.support, x, side="right"))
        return mass[:idx] @ q_minus[:idx], float(np.sum(mass[:idx]))


def estimate_g1(model: FittedDrm) -> WeightedCdf:
    """Estimated target CDF: mass p_kj * exp(theta' q(x_kj)) at each pooled point."""
    return model._g1


def estimate_g0(model: FittedDrm) -> WeightedCdf:
    """Estimated base CDF: mass p_kj at each pooled point."""
    return model._g0


def drm_quantile(cdf: WeightedCdf, p: float) -> float:
    """Smallest support point whose cumulative mass reaches p."""
    idx = int(cdf.cumulative.searchsorted(check_level(p), side="left"))
    idx = min(idx, cdf.support.size - 1)
    return float(cdf.support[idx])


def avar_theta(model: FittedDrm) -> np.ndarray:
    """Plug-in asymptotic variance matrix of sqrt(n1)*(theta_hat - theta).

    Computed in the block form built from E1[q_minus] and Var1[q_minus];
    algebraically identical to :func:`avar_theta_inverse_form`.
    """
    _, mean_q, var_inv = model.target_moments
    m = np.vstack([-mean_q, np.eye(mean_q.size)])
    return m @ var_inv @ m.T


def avar_theta_inverse_form(model: FittedDrm) -> np.ndarray:
    """Same matrix as :func:`avar_theta`, via inv(E1[q q']) minus the (1,1) unit."""
    q = evaluate_matrix(model.spec, model.data.pooled())
    second = (q * model.fit.tilted_weights[:, None]).T @ q
    try:
        inv = np.linalg.inv(second)
    except np.linalg.LinAlgError:
        raise SingularMomentError("plug-in second moment of q is singular") from None
    inv[0, 0] -= 1.0
    return inv


def avar_g1_at(model: FittedDrm, x: float) -> float:
    """Plug-in asymptotic variance of sqrt(n1)*(G1_hat(x) - G1(x))."""
    _, mean_q, var_inv = model.target_moments
    partial, g1_at = model._bracket_at(x)
    bracket = partial - mean_q * g1_at
    return float(bracket @ var_inv @ bracket)


def avar_quantile(model: FittedDrm, p: float, density_at: float) -> float:
    """Plug-in asymptotic variance of the DRM quantile estimator at level p,
    the variance of sqrt(n1) * (estimate - truth).

    ``density_at`` is an estimate of the target density at the estimated
    quantile, typically from a kernel density estimator.
    """
    p = check_level(p)
    square = check_density(density_at)
    _, mean_q, var_inv = model.target_moments
    xi = drm_quantile(model._g1, p)
    partial = model._bracket_at(xi)[0]
    bracket = partial - p * mean_q
    return float(bracket @ var_inv @ bracket) / square


def corollary_variance(k: float, p: float, density_at: float, parametric_avar: float) -> float:
    """Limiting variance of the DRM quantile estimator with identical populations.

    A weighted average of the empirical-quantile variance p(1-p)/g^2
    (weight 1/(k+1)) and the parametric-MLE variance (weight k/(k+1)),
    where k is the base-to-target sample size ratio.
    """
    k = check_real(k, "k", 0, closed=True)
    parametric_avar = check_real(parametric_avar, "parametric_avar", 0, closed=True)
    empirical = empirical_quantile_avar(p, density_at)
    return empirical / (k + 1.0) + parametric_avar * k / (k + 1.0)


def drm_quantile_estimate(model: FittedDrm, p: float, ci_level: float = 0.95) -> QuantileEstimate:
    """Point estimate, standard error and normal CI for the target p-quantile.

    The density plug-in for the variance is a Gaussian KDE on the target
    sample with Silverman's rule-of-thumb bandwidth.
    """
    point = model.quantile(p)
    g_hat = kde_density(model.kde, point)
    avar = avar_quantile(model, p, g_hat)
    return QuantileEstimate.normal(p, point, avar, model.data.n1, ci_level)


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
