import os
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import settings

from drmel import BasisSpec, Normal, TwoSampleData

# property tests draw the same examples on every run, and few of them
settings.register_profile("drmel", derandomize=True, max_examples=50, deadline=None, database=None)
settings.load_profile("drmel")


@pytest.fixture
def rng():
    return np.random.default_rng(20240819)


def random_two_sample(rng, max_n0=50, max_n1=50, positive=False):
    n0 = int(rng.integers(2, max_n0 + 1))
    n1 = int(rng.integers(2, max_n1 + 1))
    if positive:
        x0 = rng.exponential(1.0, n0)
        x1 = rng.exponential(1.5, n1)
    else:
        x0 = rng.normal(0.0, 1.0, n0)
        x1 = rng.normal(0.3, 1.2, n1)
    return TwoSampleData(x0=x0, x1=x1)


def random_basis(rng):
    return BasisSpec.linear() if rng.random() < 0.5 else BasisSpec.quadratic()


@dataclass(frozen=True)
class DiesInAChild(Normal):
    """A normal population whose draw ends any process but the one that made
    it, at once and with no cleanup, as the kernel's OOM killer ends one."""

    parent: int = field(default_factory=os.getpid)

    def draw(self, n, rng):
        if os.getpid() != self.parent:
            os._exit(9)
        return super().draw(n, rng)
