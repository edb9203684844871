"""Basis functions for the density ratio model.

The density ratio between the two populations is modelled as
exp(theta' q(x)) where q(x) is a prespecified vector of transforms whose
first component is always the constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InvalidArgumentError

__all__ = ["BASIS_NAMES", "BasisSpec", "evaluate_matrix"]

BASIS_NAMES = ("linear", "quadratic", "linear-log")  # BasisSpec.custom builds the others


@dataclass(frozen=True)
class BasisSpec:
    """A basis q(x) = (1, t_1(x), ..., t_{d-1}(x)).

    Use the factory methods (:meth:`linear`, :meth:`quadratic`,
    :meth:`linear_log`, :meth:`custom`) rather than the constructor.
    """

    kind: str
    transforms: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.kind == "custom":
            if not self.transforms:
                raise InvalidArgumentError("custom basis needs at least one transform")
        elif self.kind not in BASIS_NAMES:
            raise InvalidArgumentError(
                f"unknown basis kind {self.kind!r}; known: {', '.join(BASIS_NAMES)}"
            )

    @classmethod
    def linear(cls) -> "BasisSpec":
        """q(x) = (1, x)."""
        return cls(kind="linear")

    @classmethod
    def quadratic(cls) -> "BasisSpec":
        """q(x) = (1, x, x^2)."""
        return cls(kind="quadratic")

    @classmethod
    def linear_log(cls) -> "BasisSpec":
        """q(x) = (1, x, log x); requires x > 0."""
        return cls(kind="linear-log")

    @classmethod
    def custom(cls, transforms: Sequence[Callable[[np.ndarray], np.ndarray]]) -> "BasisSpec":
        """q(x) = (1, t_1(x), ...) for user-supplied vectorized transforms."""
        return cls(kind="custom", transforms=tuple(transforms))

    @classmethod
    def from_name(cls, name: str) -> "BasisSpec":
        """The basis named ``name``, one of :data:`BASIS_NAMES`."""
        return cls(kind=name)

    @property
    def dimension(self) -> int:
        """Total length of q(x), constant included."""
        if self.kind == "linear":
            return 2
        if self.kind == "custom":
            return 1 + len(self.transforms)
        return 3


def evaluate_matrix(spec: BasisSpec, x, out=None) -> np.ndarray:
    """Row i is q(x_i) for the points of ``x``; shape (n, spec.dimension), the
    transpose of a C-ordered (d, n) block. That block is ``out`` when given,
    a C-ordered float array of shape (spec.dimension, n) whose rows the call
    overwrites, and a new array otherwise. A custom transform receives a copy
    of ``x`` of its own. Raises :class:`DomainError` naming the first point
    where a transform is undefined, by its value and its index in ``x``; in a
    fit ``x`` is the pooled sample, the base sample first, each sample
    ascending.
    """
    x = np.ravel(np.asarray(x, dtype=float))
    block = np.empty((spec.dimension, x.size)) if out is None else out
    block[0] = 1.0
    if spec.kind != "custom":
        block[1] = x
    if spec.kind == "quadratic":
        with np.errstate(over="ignore"):  # an infinite x^2 makes fit_mele's Gram check fail
            np.multiply(x, x, out=block[2])
    elif spec.kind == "linear-log":
        bad = np.flatnonzero(~(x > 0))
        if bad.size:
            raise _undefined("log", x, int(bad[0]))
        np.log(x, out=block[2])
    elif spec.kind == "custom":
        for row, t in zip(block[1:], spec.transforms):
            with np.errstate(all="ignore"):
                row[:] = np.asarray(t(x.copy()), dtype=float)
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                raise _undefined("custom transform", x, int(bad[0]))
    return block.T


def _undefined(transform: str, x: np.ndarray, i: int) -> DomainError:
    """The error of ``transform`` undefined at ``x[i]``; in a fit, x is the
    pooled sample."""
    return DomainError(f"{transform} undefined at x={float(x[i])}, index {i} of the pooled "
                       "sample (the base sample first, each sample ascending)", index=i)
