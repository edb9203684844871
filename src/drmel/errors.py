"""Exception hierarchy shared across the package."""

import contextlib
import math
import numbers
from collections.abc import Mapping, Set


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
    """A quantile level is not a real number in the open interval (0, 1)."""


def check_level(p, name: str = "quantile level") -> float:
    """``p`` as a float: :func:`check_real` on (0, 1), raising
    :class:`InvalidLevelError` naming ``name``."""
    return check_real(p, name, 0, 1, error=InvalidLevelError)


def check_sequence(value, name: str) -> tuple:
    """``value`` as a tuple, in its own order: the one rule for a list of
    levels, methods, targets or sizes.

    A string, a value that is not iterable and an unordered collection (a
    set, a frozenset or any mapping, whose order can change with the hash
    seed) raise :class:`InvalidArgumentError` naming ``name``:
    ``methods must be a sequence, not dict``.
    """
    with contextlib.suppress(TypeError):  # not iterable, a 0-d array among them
        if not isinstance(value, (str, Set, Mapping)):
            return tuple(value)
    raise InvalidArgumentError(f"{name} must be a sequence, not {type(value).__name__}")


def check_real(value, name: str, low=-math.inf, high=math.inf, *, closed=False,
               error=InvalidArgumentError) -> float:
    """``value`` as a float: the one rule for a real-valued argument.

    A real number other than a bool that lies strictly inside (low, high),
    or with ``closed`` in [low, high), passes, so NaN and an infinity never
    do; anything else, a string among it, raises ``error``, a
    :class:`DrmError` class, naming ``name``:
    ``k must be a real number in [0, inf), got '5'``.
    """
    # float first: an exact type test, where numbers.Real is a much slower ABC lookup
    real = isinstance(value, (float, numbers.Real)) and not isinstance(value, bool)
    if real and (low <= value if closed else low < value) and value < high:
        with contextlib.suppress(OverflowError):  # an int beyond the largest float
            return float(value)
    raise error(f"{name} must be a real number in {'[' if closed else '('}{low}, {high}), "
                f"got {value!r}")


def check_integer(value, name: str, low=None) -> int:
    """``value`` as an int: the one rule for a count, a size or a seed.

    A whole number is an integer other than a bool, or a float with no
    fractional part; with ``low``, it must also lie in [low, 2**63), a size
    numpy can index. Anything else raises :class:`InvalidArgumentError`
    naming ``name``: ``reps must be a whole number in [1, 2**63), got 0``.
    """
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if whole and not isinstance(value, bool) and (low is None or low <= value < 2**63):
        return int(value)
    bound = "" if low is None else f" in [{low}, 2**63)"
    raise InvalidArgumentError(f"{name} must be a whole number{bound}, got {value!r}")


def square(x) -> float:
    """``x**2`` by C ``pow``, whose bits the variances keep, or inf where it
    overflows, about 1.3e154 and up, where ``**`` raises OverflowError."""
    try:
        return float(x) ** 2
    except OverflowError:
        return math.inf


def check_density(density_at) -> float:
    """``density_at**2``, the divisor of a quantile's asymptotic variance:
    :func:`check_real` on (0, inf), raising :class:`NonpositiveDensityError`,
    which is also raised when the square underflows to 0, below about
    1.5e-162, or overflows, which would make the variance 0."""
    squared = square(check_real(density_at, "density_at", 0, error=NonpositiveDensityError))
    if not 0 < squared < math.inf:
        raise NonpositiveDensityError(f"density_at {density_at} squared underflows or overflows")
    return squared


class SingularMomentError(DrmError):
    """A plug-in moment matrix is not positive definite."""


class NonpositiveDensityError(InvalidArgumentError):
    """A density plug-in is not a real number in (0, inf), or its square
    underflows to 0 or overflows."""


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
