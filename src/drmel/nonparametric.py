"""Empirical CDF/quantile baseline and Gaussian kernel density estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import DegenerateSampleError, InvalidArgumentError, NonpositiveDensityError, check_level

__all__ = [
    "Ecdf",
    "KdeModel",
    "empirical_quantile",
    "empirical_quantile_avar",
    "kde_density",
    "silverman_bandwidth",
]


@dataclass(frozen=True)
class Ecdf:
    """Empirical distribution of a sample; right-continuous step function."""

    sorted_sample: np.ndarray
    n: int

    @classmethod
    def from_sample(cls, sample) -> "Ecdf":
        s = np.sort(np.asarray(sample, dtype=float))
        if s.size < 1:
            raise InvalidArgumentError("sample must be nonempty")
        return cls(sorted_sample=s, n=s.size)

    def evaluate(self, x: float) -> float:
        return float(np.searchsorted(self.sorted_sample, x, side="right")) / self.n


def empirical_quantile(ecdf: Ecdf, p: float) -> float:
    """Type-1 (left-continuous inverse) sample quantile: x_(ceil(n*p))."""
    idx = int(math.ceil(ecdf.n * check_level(p))) - 1
    idx = max(idx, 0)
    return float(ecdf.sorted_sample[idx])


def empirical_quantile_avar(p: float, density_at: float) -> float:
    """Asymptotic variance p(1-p)/g^2 of the sample quantile."""
    p = check_level(p)
    # below about 1.5e-162 a positive density's square underflows to 0
    if not (density_at > 0 and density_at**2 > 0):
        raise NonpositiveDensityError(f"density {density_at} or its square is not positive")
    return p * (1.0 - p) / density_at**2


@dataclass(frozen=True)
class KdeModel:
    sample: np.ndarray
    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise InvalidArgumentError(f"bandwidth must be positive, got {self.bandwidth}")
        object.__setattr__(self, "sample", np.asarray(self.sample, dtype=float))

    @classmethod
    def silverman(cls, sample) -> "KdeModel":
        """The KDE of ``sample`` with :func:`silverman_bandwidth`."""
        return cls(sample=sample, bandwidth=silverman_bandwidth(sample))


def kde_density(model: KdeModel, x) -> float | np.ndarray:
    """Gaussian-kernel density estimate at x (scalar or array)."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    z = (np.atleast_1d(x_arr)[:, None] - model.sample[None, :]) / model.bandwidth
    dens = norm.pdf(z).mean(axis=1) / model.bandwidth
    return float(dens[0]) if scalar else dens


def silverman_bandwidth(sample) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    sd uses divisor n-1; the IQR uses type-1 sample quantiles.
    """
    s = np.asarray(sample, dtype=float)
    if s.size < 2:
        raise DegenerateSampleError("need at least two points for a bandwidth")
    sd = float(np.std(s, ddof=1))
    ecdf = Ecdf.from_sample(s)
    iqr = empirical_quantile(ecdf, 0.75) - empirical_quantile(ecdf, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if not spread > 0:
        raise DegenerateSampleError("sample has zero spread")
    return 0.9 * spread * s.size ** (-0.2)
