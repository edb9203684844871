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


def evaluate_matrix(spec: BasisSpec, *xs) -> np.ndarray:
    """Row i is q(x_i) for the points of ``xs`` (one array, or several pooled
    in order); shape (n, spec.dimension), the transpose of a C-ordered (d, n)
    block. Raises :class:`DomainError` naming the first offending index when
    a transform is undefined at some point.
    """
    parts = [np.ravel(np.asarray(x, dtype=float)) for x in xs]
    n = sum(x.size for x in parts)
    block = np.empty((spec.dimension, n))
    block[0] = 1.0
    x = np.concatenate(parts, out=np.empty(n) if spec.kind == "custom" else block[1])
    if spec.kind == "quadratic":
        with np.errstate(over="ignore"):  # an infinite x^2 makes fit_mele's Gram check fail
            np.multiply(x, x, out=block[2])
    elif spec.kind == "linear-log":
        bad = np.flatnonzero(~(x > 0))
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"log undefined at index {i} (x={x[i]!r})", index=i)
        np.log(x, out=block[2])
    elif spec.kind == "custom":
        for row, t in zip(block[1:], spec.transforms):
            with np.errstate(all="ignore"):
                row[:] = np.asarray(t(x), dtype=float)
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                i = int(bad[0])
                raise DomainError(
                    f"custom transform undefined at index {i} (x={x[i]!r})", index=i
                )
    return block.T
