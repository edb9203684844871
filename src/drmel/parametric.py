"""Parametric maximum-likelihood baselines for the two-sample problem.

Three families with closed-form MLEs and quantile variances: normal with
free per-sample variances, normal with a common variance, and exponential.
These are the efficiency benchmarks the density-ratio estimators are
compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import expon, norm

from .errors import (
    DegenerateSampleError,
    DomainError,
    InvalidLevelError,
    UnsupportedCombinationError,
)
from .estimators import QuantileEstimate
from .fit import TwoSampleData

__all__ = [
    "NORMAL_FREE",
    "NORMAL_COMMON",
    "EXPONENTIAL",
    "ParametricFamily",
    "fit_parametric",
    "parametric_quantile",
    "parametric_quantile_avar",
    "parametric_cdf",
    "theta_from_submodel",
]

NORMAL_FREE = "normal"
NORMAL_COMMON = "normal-common"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class ParametricFamily:
    """Fitted two-sample parametric model.

    For the normal tags sigma0/sigma1 are MLE standard deviations
    (common tag stores the pooled value in both); for the exponential
    tag they are None and mu0/mu1 are the sample means.
    """

    tag: str
    mu0: float
    mu1: float
    sigma0: float | None
    sigma1: float | None
    n0: int
    n1: int


def fit_parametric(data: TwoSampleData, family_tag: str) -> ParametricFamily:
    """Closed-form MLEs; variance estimates use divisor n_k, not n_k - 1."""
    x0, x1 = data.x0, data.x1
    mu0, mu1 = float(np.mean(x0)), float(np.mean(x1))

    if family_tag == EXPONENTIAL:
        if np.any(x0 <= 0) or np.any(x1 <= 0):
            raise DomainError("exponential family requires strictly positive data")
        return ParametricFamily(EXPONENTIAL, mu0, mu1, None, None, data.n0, data.n1)

    if family_tag == NORMAL_FREE:
        if data.n0 < 2 or data.n1 < 2:
            raise DegenerateSampleError("need at least two points per sample")
        v0 = float(np.mean((x0 - mu0) ** 2))
        v1 = float(np.mean((x1 - mu1) ** 2))
        if v0 <= 0 or v1 <= 0:
            raise DegenerateSampleError("zero sample variance")
        return ParametricFamily(
            NORMAL_FREE, mu0, mu1, math.sqrt(v0), math.sqrt(v1), data.n0, data.n1
        )

    if family_tag == NORMAL_COMMON:
        if data.n0 < 2 or data.n1 < 2:
            raise DegenerateSampleError("need at least two points per sample")
        pooled = (np.sum((x0 - mu0) ** 2) + np.sum((x1 - mu1) ** 2)) / data.n
        if pooled <= 0:
            raise DegenerateSampleError("zero pooled variance")
        s = math.sqrt(float(pooled))
        return ParametricFamily(NORMAL_COMMON, mu0, mu1, s, s, data.n0, data.n1)

    raise UnsupportedCombinationError(f"unknown family tag {family_tag!r}")


def _target_quantile(family: ParametricFamily, p: float) -> float:
    if family.tag == EXPONENTIAL:
        return -family.mu1 * math.log1p(-p)
    return family.mu1 + float(ndtri(p)) * family.sigma1


def parametric_quantile_avar(family: ParametricFamily, p: float) -> float:
    """Variance of sqrt(n1)*(quantile MLE - truth) at the fitted parameters.

    Normal (free variance): sigma1^2 * (1 + z_p^2 / 2).
    Exponential: mu1^2 * log^2(1-p).
    Normal (common variance): the z_p^2/2 term shrinks by n1/n because the
    pooled variance estimate uses both samples.
    """
    if not 0.0 < p < 1.0:
        raise InvalidLevelError(f"quantile level must be in (0,1), got {p}")
    if family.tag == EXPONENTIAL:
        return family.mu1**2 * math.log1p(-p) ** 2
    z = float(ndtri(p))
    if family.tag == NORMAL_FREE:
        return family.sigma1**2 * (1.0 + z**2 / 2.0)
    n = family.n0 + family.n1
    return family.sigma1**2 * (1.0 + (family.n1 / n) * z**2 / 2.0)


def parametric_quantile(
    family: ParametricFamily, p: float, ci_level: float = 0.95
) -> QuantileEstimate:
    """Closed-form quantile MLE with its plug-in standard error and CI."""
    if not 0.0 < p < 1.0:
        raise InvalidLevelError(f"quantile level must be in (0,1), got {p}")
    point = _target_quantile(family, p)
    se = math.sqrt(parametric_quantile_avar(family, p) / family.n1)
    z = float(ndtri(0.5 + ci_level / 2.0))
    return QuantileEstimate(
        level=p,
        point=point,
        std_error=se,
        ci_low=point - z * se,
        ci_high=point + z * se,
        method=f"parametric-{family.tag}",
    )


def parametric_cdf(family: ParametricFamily, x: float) -> float:
    """Fitted CDF of the target population at x."""
    if family.tag == EXPONENTIAL:
        return float(expon.cdf(x, scale=family.mu1))
    return float(norm.cdf(x, loc=family.mu1, scale=family.sigma1))


def theta_from_submodel(family: ParametricFamily) -> np.ndarray:
    """Tilt parameter implied by the fitted family.

    Expanding log(g1/g0) for the fitted densities gives theta for the
    basis containing that family: exponential and common-variance normal
    fit the linear basis (1, x); free-variance normal fits the quadratic
    basis (1, x, x^2).
    """
    if family.tag == EXPONENTIAL:
        alpha = math.log(family.mu0 / family.mu1)
        beta = 1.0 / family.mu0 - 1.0 / family.mu1
        return np.array([alpha, beta])
    if family.tag == NORMAL_COMMON:
        v = family.sigma1**2
        beta = (family.mu1 - family.mu0) / v
        alpha = (family.mu0**2 - family.mu1**2) / (2.0 * v)
        return np.array([alpha, beta])
    if family.tag == NORMAL_FREE:
        v0, v1 = family.sigma0**2, family.sigma1**2
        alpha = (
            math.log(family.sigma0 / family.sigma1)
            + family.mu0**2 / (2.0 * v0)
            - family.mu1**2 / (2.0 * v1)
        )
        beta1 = family.mu1 / v1 - family.mu0 / v0
        beta2 = 1.0 / (2.0 * v0) - 1.0 / (2.0 * v1)
        return np.array([alpha, beta1, beta2])
    raise UnsupportedCombinationError(f"unknown family tag {family.tag!r}")
