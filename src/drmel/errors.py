"""Exception hierarchy shared across the package."""

import math
import numbers


class DrmError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DrmError):
    """A basis transform was evaluated outside its domain, or a parametric
    family was fitted to data outside its support."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SingularBasisError(DrmError):
    """The basis components are (numerically) collinear on the pooled data."""


class NonConvergenceError(DrmError):
    """The tilt-parameter solver exhausted its iteration budget."""

    def __init__(self, message, iterations=None, gradient_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.gradient_norm = gradient_norm


class InvalidArgumentError(DrmError, ValueError):
    """An argument is outside its valid range."""


class InvalidLevelError(InvalidArgumentError):
    """A quantile level is outside the open interval (0, 1)."""


def check_level(p) -> float:
    """``p`` as a float; raises :class:`InvalidLevelError` unless 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise InvalidLevelError(f"quantile level must be in (0,1), got {p}")
    return float(p)


def check_integer(value, name: str) -> int:
    """``value`` as an int; raises :class:`InvalidArgumentError` naming ``name``
    unless it is an integer or a float with no fractional part."""
    if isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise InvalidArgumentError(f"{name} must be a whole number, got {value!r}")


def square(x) -> float:
    """``x**2`` by C ``pow``, whose bits the variances keep, or inf where it
    overflows, about 1.3e154 and up, where ``**`` raises OverflowError."""
    try:
        return float(x) ** 2
    except OverflowError:
        return math.inf


def check_density(density_at) -> float:
    """``density_at**2``, the divisor of a quantile's asymptotic variance;
    raises :class:`NonpositiveDensityError` unless the density is finite and
    positive and its square is positive and finite. Below about 1.5e-162 the
    square underflows to 0; an overflowing square, like an infinite density,
    would make the variance 0."""
    squared = square(density_at) if 0 < density_at < math.inf else 0.0
    if not 0 < squared < math.inf:
        raise NonpositiveDensityError(f"density plug-in {density_at} is not finite and positive, "
                                      "or its square underflows to 0 or overflows")
    return squared


class SingularMomentError(DrmError):
    """A plug-in moment matrix is not positive definite."""


class NonpositiveDensityError(InvalidArgumentError):
    """A density plug-in value must be strictly positive."""


class DegenerateVarianceError(DrmError):
    """A plug-in asymptotic variance is not positive and finite, so the
    estimate has no standard error."""


class DegenerateSampleError(DrmError):
    """A sample has zero spread where positive spread is required, or a mean,
    variance or spread that overflows."""


class CsvParseError(DrmError):
    """A CSV cell could not be parsed; carries the 1-based row number."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptyGroupError(DrmError):
    """A requested population/group has no usable rows."""
