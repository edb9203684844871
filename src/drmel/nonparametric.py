"""Empirical CDF/quantile baseline and Gaussian kernel density estimation.

The Gaussian kernel is the standard normal density written out, the same
expression ``scipy.stats.norm.pdf`` evaluates, and the normal quantile of
one level is cephes ``ndtri`` ported to Python, as ``scipy.special.ndtri``
evaluates it: estimates keep scipy's bits, and importing drmel loads no
scipy module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSampleError, check_density, check_level, check_real,
                     check_sample)

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


# cephes ndtri's rational approximations, highest power first; a Q table's
# leading 1 is cephes' implicit one
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coefs) -> float:
    """The polynomial of ``coefs``, highest power first, at x by Horner's rule."""
    value = 0.0
    for c in coefs:
        value = value * x + c
    return value


def _ndtri(y: float) -> float:
    """Standard normal quantile of a float y in [0, 1]: cephes ``ndtri``,
    operation for operation, as ``scipy.special.ndtri`` evaluates it for one
    value, so it keeps scipy's bits without importing scipy."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:  # |y - 0.5| < 3/8
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242E0  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)  # 8: y = exp(-32)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q)
    return x if upper else -x


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no boolean ==
class Ecdf:
    """Empirical distribution of a sample; right-continuous step function."""

    sorted_sample: np.ndarray
    n: int

    @classmethod
    def from_sample(cls, sample) -> "Ecdf":
        s = np.sort(check_sample(sample, "sample"))
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
        object.__setattr__(self, "sample", check_sample(self.sample, "sample"))

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
    s = check_sample(sample, "sample")
    if s.size < 2:
        raise DegenerateSampleError("need at least two points for a bandwidth")
    with np.errstate(over="ignore"):  # an sd that overflows is caught below
        sd = float(np.std(s, ddof=1))
    ecdf = Ecdf.from_sample(s)
    iqr = empirical_quantile(ecdf, 0.75) - empirical_quantile(ecdf, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if not 0 < spread < math.inf:
        raise DegenerateSampleError("sample has zero or overflowing spread")
    return 0.9 * spread * s.size ** (-0.2)
