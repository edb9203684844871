"""Empirical CDF/quantile baseline and Gaussian kernel density estimation.

The Gaussian kernel is the standard normal density written out, the same
expression ``scipy.stats.norm.pdf`` evaluates, so drmel needs only
``scipy.special`` and its estimates keep scipy's bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSampleError, InvalidArgumentError, check_density, check_level,
                     check_real)

__all__ = [
    "Ecdf",
    "KdeModel",
    "empirical_quantile",
    "empirical_quantile_avar",
    "kde_density",
    "silverman_bandwidth",
]

# kde_density evaluates this many (point, sample) cells at a time: 8 MiB per temporary
_KDE_BLOCK_CELLS = 1 << 20


def _norm_pdf(z):
    """Standard normal density exp(-z^2/2)/sqrt(2 pi), as scipy.stats.norm.pdf
    evaluates it. ``np.square`` is the ufunc an array's ``z**2`` calls; a
    numpy scalar's ``z**2`` calls C ``pow``, which can differ in the last bit."""
    return np.exp(-np.square(z) / 2.0) / np.sqrt(2 * np.pi)


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no boolean ==
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
    return p * (1.0 - p) / check_density(density_at)


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no boolean ==
class KdeModel:
    sample: np.ndarray
    bandwidth: float

    def __post_init__(self):
        # from the smallest normal float up, dividing a kernel value by it stays finite
        object.__setattr__(self, "bandwidth", check_real(self.bandwidth, "bandwidth",
                                                         sys.float_info.min, closed=True))
        object.__setattr__(self, "sample", np.asarray(self.sample, dtype=float))
        if self.sample.size < 1 or not np.isfinite(self.sample).all():
            raise InvalidArgumentError("a KDE sample must be nonempty and finite")

    @classmethod
    def silverman(cls, sample) -> "KdeModel":
        """The KDE of ``sample`` with :func:`silverman_bandwidth`."""
        return cls(sample=sample, bandwidth=silverman_bandwidth(sample))


def kde_density(model: KdeModel, x) -> float | np.ndarray:
    """Gaussian-kernel density estimate at x (scalar or array).

    The points are taken in blocks of at most ``_KDE_BLOCK_CELLS`` kernel
    values; each point's density is the mean of its own row, so the blocks
    do not change its bits. A kernel argument that overflows is infinite, and
    its kernel value exactly 0.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    points = np.atleast_1d(x_arr)
    dens = np.empty(len(points))
    rows = max(1, _KDE_BLOCK_CELLS // max(1, model.sample.size))
    with np.errstate(over="ignore"):
        for i in range(0, len(points), rows):
            z = (points[i:i + rows, None] - model.sample[None, :]) / model.bandwidth
            dens[i:i + rows] = _norm_pdf(z).mean(axis=1)
    dens /= model.bandwidth
    return float(dens[0]) if scalar else dens


def silverman_bandwidth(sample) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    sd uses divisor n-1; the IQR uses type-1 sample quantiles.
    """
    s = np.asarray(sample, dtype=float)
    if s.size < 2:
        raise DegenerateSampleError("need at least two points for a bandwidth")
    if not np.isfinite(s).all():
        raise InvalidArgumentError("a bandwidth sample must be finite")
    with np.errstate(over="ignore"):  # an sd that overflows is caught below
        sd = float(np.std(s, ddof=1))
    ecdf = Ecdf.from_sample(s)
    iqr = empirical_quantile(ecdf, 0.75) - empirical_quantile(ecdf, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if not 0 < spread < math.inf:
        raise DegenerateSampleError("sample has zero or overflowing spread")
    return 0.9 * spread * s.size ** (-0.2)
