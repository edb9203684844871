"""Parametric populations and maximum-likelihood baselines for the two-sample problem.

``Normal`` and ``Exponential`` carry their closed forms: ``ppf`` (inverse CDF
of an array of uniforms), ``quantile``, ``cdf``, ``density_at_quantile`` and
``quantile_avar``. Like every population the replicate engine samples, each
has ``draw(n, rng)``, here the inverse-CDF transform of ``n`` uniforms, and
``quantile(p)``, the truth its estimates are scored against. Three families
with closed-form MLEs, normal with free per-sample variances, normal with a
common variance, and exponential, are the efficiency benchmarks the
density-ratio estimators are compared against; :attr:`ParametricFamily.target`
is the fitted target population.

``cdf`` and ``density_at_quantile`` write out the expressions that
``scipy.stats.norm`` and ``scipy.stats.expon`` evaluate, on the ``ndtr``,
``ndtri`` and ``expm1`` of ``scipy.special``: they keep scipy's bits (the sign
of a NaN aside), at ±0 and ±inf too, without the start-up cost of importing
``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expm1, ndtr, ndtri

from .errors import (
    DegenerateSampleError,
    DomainError,
    InvalidArgumentError,
    check_level,
    check_real,
    square,
)
from .estimators import QuantileEstimate
from .fit import TwoSampleData
from .nonparametric import _norm_pdf

__all__ = [
    "Normal",
    "Exponential",
    "NORMAL_FREE",
    "NORMAL_COMMON",
    "EXPONENTIAL",
    "FAMILY_TAGS",
    "ParametricFamily",
    "fit_parametric",
    "parametric_quantile_avar",
    "theta_from_submodel",
]

NORMAL_FREE = "normal"
NORMAL_COMMON = "normal-common"
EXPONENTIAL = "exponential"
FAMILY_TAGS = (NORMAL_FREE, NORMAL_COMMON, EXPONENTIAL)  # every tag fit_parametric takes


@dataclass(frozen=True)
class Normal:
    """Normal population with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", check_real(self.mu, "mu"))
        object.__setattr__(self, "sigma", check_real(self.sigma, "sigma", 0))

    def ppf(self, u: np.ndarray) -> np.ndarray:
        x = ndtri(u)  # mu + sigma * ndtri(u), written into the one array it returns
        x *= self.sigma
        x += self.mu
        return x

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.ppf(rng.random(n))

    def quantile(self, p: float) -> float:
        return self.mu + self.sigma * float(ndtri(check_level(p)))

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def density_at_quantile(self, p: float) -> float:
        return float(_norm_pdf(ndtri(check_level(p)))) / self.sigma

    def quantile_avar(self, p: float, share: float = 1.0) -> float:
        """sigma^2 * (1 + share * z_p^2 / 2), where ``share`` is the target's
        share of the data sigma was fitted on: n1/n for a pooled variance."""
        z = float(ndtri(check_level(p)))
        return square(self.sigma) * (1.0 + share * z**2 / 2.0)


@dataclass(frozen=True)
class Exponential:
    """Exponential population with mean ``mean``."""

    mean: float

    def __post_init__(self):
        object.__setattr__(self, "mean", check_real(self.mean, "mean", 0))

    # np.log1p (ppf) and math.log1p (scalars) can differ in the last bit; each keeps its outputs
    def ppf(self, u: np.ndarray) -> np.ndarray:
        x = np.negative(u)  # -mean * log1p(-u), written into the one array it returns
        np.log1p(x, out=x)
        x *= -self.mean
        return x

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.ppf(rng.random(n))

    def quantile(self, p: float) -> float:
        return -self.mean * math.log1p(-check_level(p))

    def cdf(self, x):
        z = np.asarray(x, dtype=float) / self.mean
        # -expm1(-z) on the support z > 0, so 0 below it (-0.0 and -inf too); NaN stays NaN
        return -expm1(-np.where(z <= 0, 0.0, z))

    def density_at_quantile(self, p: float) -> float:
        return (1.0 - check_level(p)) / self.mean

    def quantile_avar(self, p: float) -> float:
        """mean^2 * log^2(1 - p)."""
        return square(self.mean) * math.log1p(-check_level(p)) ** 2


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

    @cached_property
    def target(self) -> Normal | Exponential:
        """The fitted target population, built on first use."""
        if self.tag == EXPONENTIAL:
            return Exponential(self.mu1)
        return Normal(self.mu1, self.sigma1)

    def quantile(self, p: float) -> float:
        return self.target.quantile(p)

    def estimate(self, p: float, ci_level: float = 0.95) -> QuantileEstimate:
        """Closed-form quantile MLE with its plug-in standard error and CI."""
        avar = parametric_quantile_avar(self, p)
        return QuantileEstimate.normal(p, self.target.quantile(p), avar, self.n1, ci_level)


def fit_parametric(data: TwoSampleData, family_tag: str) -> ParametricFamily:
    """Closed-form MLEs; variance estimates use divisor n_k, not n_k - 1."""
    if family_tag not in FAMILY_TAGS:
        raise InvalidArgumentError(
            f"unknown family tag {family_tag!r}; known: {', '.join(FAMILY_TAGS)}"
        )
    x0, x1 = data.x0, data.x1
    with np.errstate(over="ignore"):  # a sum that overflows is caught below
        mu0, mu1 = float(x0.mean()), float(x1.mean())
    if not (math.isfinite(mu0) and math.isfinite(mu1)):
        raise DegenerateSampleError("sample mean overflows")

    if family_tag == EXPONENTIAL:
        if x0[0] <= 0 or x1[0] <= 0:  # each sample is ascending
            raise DomainError("exponential family requires strictly positive data")
        return ParametricFamily(EXPONENTIAL, mu0, mu1, None, None, data.n0, data.n1)

    if data.n0 < 2 or data.n1 < 2:
        raise DegenerateSampleError("need at least two points per sample")
    with np.errstate(over="ignore"):  # a square that overflows is caught below
        if family_tag == NORMAL_FREE:
            v0 = float(np.square(x0 - mu0).mean())
            v1 = float(np.square(x1 - mu1).mean())
        else:
            v0 = v1 = float((np.square(x0 - mu0).sum() + np.square(x1 - mu1).sum()) / data.n)
    if not (0 < v0 < math.inf and 0 < v1 < math.inf):
        raise DegenerateSampleError("zero or overflowing sample variance")
    return ParametricFamily(family_tag, mu0, mu1, math.sqrt(v0), math.sqrt(v1), data.n0, data.n1)


def parametric_quantile_avar(family: ParametricFamily, p: float) -> float:
    """Variance of sqrt(n1)*(quantile MLE - truth) at the fitted parameters.

    Normal (free variance): sigma1^2 * (1 + z_p^2 / 2).
    Exponential: mu1^2 * log^2(1-p).
    Normal (common variance): the z_p^2/2 term shrinks by n1/n because the
    pooled variance estimate uses both samples.
    """
    if family.tag == NORMAL_COMMON:
        return family.target.quantile_avar(p, family.n1 / (family.n0 + family.n1))
    return family.target.quantile_avar(p)


def theta_from_submodel(family: ParametricFamily) -> np.ndarray:
    """Tilt parameter implied by the fitted family.

    Expanding log(g1/g0) for the fitted densities gives theta for the
    basis containing that family: exponential and common-variance normal
    fit the linear basis (1, x); free-variance normal fits the quadratic
    basis (1, x, x^2). Raises :class:`DegenerateSampleError` when theta
    overflows, as it does for normal means near 1e154 and up or for an
    exponential mean ratio outside the float range.
    """
    if family.tag == EXPONENTIAL:
        ratio = family.mu0 / family.mu1  # 0 or inf where it under- or overflows
        alpha = math.log(ratio) if ratio > 0 else -math.inf
        beta = 1.0 / family.mu0 - 1.0 / family.mu1
        theta = np.array([alpha, beta])
    elif family.tag == NORMAL_COMMON:
        v = square(family.sigma1)
        beta = (family.mu1 - family.mu0) / v
        alpha = (square(family.mu0) - square(family.mu1)) / (2.0 * v)
        theta = np.array([alpha, beta])
    elif family.tag == NORMAL_FREE:
        v0, v1 = square(family.sigma0), square(family.sigma1)
        alpha = (
            math.log(family.sigma0 / family.sigma1)
            + square(family.mu0) / (2.0 * v0)
            - square(family.mu1) / (2.0 * v1)
        )
        beta1 = family.mu1 / v1 - family.mu0 / v0
        beta2 = 1.0 / (2.0 * v0) - 1.0 / (2.0 * v1)
        theta = np.array([alpha, beta1, beta2])
    else:
        raise InvalidArgumentError(f"unknown family tag {family.tag!r}")
    if not np.isfinite(theta).all():
        raise DegenerateSampleError(f"the tilt of the fitted {family.tag} family overflows")
    return theta
