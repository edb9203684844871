"""Exception hierarchy shared across the package."""

import numbers


class DrmError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DrmError):
    """A basis transform was evaluated outside its domain."""

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


class NotConvergedError(DrmError):
    """An estimator was requested from a fit that did not converge."""


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


class SingularMomentError(DrmError):
    """A plug-in moment matrix is not positive definite."""


class NonpositiveDensityError(InvalidArgumentError):
    """A density plug-in value must be strictly positive."""


class DegenerateSampleError(DrmError):
    """A sample has zero spread where positive spread is required."""


class UnsupportedCombinationError(DrmError):
    """Requested parametric family / basis combination is not supported."""


class CsvParseError(DrmError):
    """A CSV cell could not be parsed; carries the 1-based row number."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptyGroupError(DrmError):
    """A requested population/group has no usable rows."""
