"""Deterministic Monte Carlo engine for quantile-estimator efficiency studies.

Each replicate draws fresh samples from a counter-based RNG substream
derived from the scenario seed and the replicate index, so results are
bit-identical regardless of how replicates are scheduled across workers.
Sampling uses inverse-CDF transforms of uniforms for cross-platform
reproducibility.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri
from scipy.stats import norm

from .basis import BasisSpec
from .errors import DrmError, InvalidArgumentError, InvalidLevelError
from .estimators import corollary_variance, drm_quantile, estimate_g1
from .fit import SolverOptions, TwoSampleData, fit_mele
from .nonparametric import Ecdf, empirical_quantile
from .parametric import EXPONENTIAL, NORMAL_COMMON, NORMAL_FREE, fit_parametric, _target_quantile

__all__ = [
    "Normal",
    "Exponential",
    "Scenario",
    "SimulationRow",
    "SimulationTable",
    "run_scenario",
    "true_quantile",
    "quantile_density",
    "parametric_avar",
    "corollary_curve",
    "METHOD_DRM",
    "METHOD_NORMAL",
    "METHOD_NORMAL_COMMON",
    "METHOD_EXPONENTIAL",
    "METHOD_EMPIRICAL",
]

METHOD_DRM = "drm"
METHOD_NORMAL = "parametric-normal"
METHOD_NORMAL_COMMON = "parametric-normal-common"
METHOD_EXPONENTIAL = "parametric-exponential"
METHOD_EMPIRICAL = "empirical"

_PARAMETRIC_TAGS = {
    METHOD_NORMAL: NORMAL_FREE,
    METHOD_NORMAL_COMMON: NORMAL_COMMON,
    METHOD_EXPONENTIAL: EXPONENTIAL,
}


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidArgumentError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class Exponential:
    mean: float

    def __post_init__(self):
        if not self.mean > 0:
            raise InvalidArgumentError(f"mean must be positive, got {self.mean}")


def sample(gen, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling from a uniform stream."""
    u = rng.random(size)
    if isinstance(gen, Normal):
        return gen.mu + gen.sigma * ndtri(u)
    if isinstance(gen, Exponential):
        return -gen.mean * np.log1p(-u)
    raise InvalidArgumentError(f"unknown generator {gen!r}")


def true_quantile(gen, p: float) -> float:
    """Analytic population quantile of the generator."""
    if not 0.0 < p < 1.0:
        raise InvalidLevelError(f"quantile level must be in (0,1), got {p}")
    if isinstance(gen, Normal):
        return gen.mu + gen.sigma * float(ndtri(p))
    if isinstance(gen, Exponential):
        return -gen.mean * math.log1p(-p)
    raise InvalidArgumentError(f"unknown generator {gen!r}")


def quantile_density(gen, p: float) -> float:
    """Population density evaluated at the p-quantile."""
    if isinstance(gen, Normal):
        return float(norm.pdf(ndtri(p))) / gen.sigma
    if isinstance(gen, Exponential):
        return (1.0 - p) / gen.mean
    raise InvalidArgumentError(f"unknown generator {gen!r}")


def parametric_avar(gen, p: float) -> float:
    """Closed-form asymptotic variance of the quantile MLE under the generator."""
    if not 0.0 < p < 1.0:
        raise InvalidLevelError(f"quantile level must be in (0,1), got {p}")
    if isinstance(gen, Normal):
        z = float(ndtri(p))
        return gen.sigma**2 * (1.0 + z**2 / 2.0)
    if isinstance(gen, Exponential):
        return gen.mean**2 * math.log1p(-p) ** 2
    raise InvalidArgumentError(f"unknown generator {gen!r}")


def corollary_curve(gen, p: float, k_grid) -> np.ndarray:
    """Limiting DRM quantile variance as a function of the size ratio k,
    for identical populations."""
    g = quantile_density(gen, p)
    avar = parametric_avar(gen, p)
    return np.array([corollary_variance(float(k), p, g, avar) for k in k_grid])


@dataclass(frozen=True)
class Scenario:
    generator0: Normal | Exponential
    generator1: Normal | Exponential
    n1: int
    k: float
    basis: BasisSpec
    levels: tuple = (0.5,)
    reps: int = 1000
    seed: int = 0
    methods: tuple = (METHOD_DRM, METHOD_EMPIRICAL)
    scenario_id: str = "scenario"
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.reps < 1:
            raise InvalidArgumentError("reps must be >= 1")
        if self.n1 < 2:
            raise InvalidArgumentError("n1 must be >= 2")
        if not self.k > 0:
            raise InvalidArgumentError("k must be positive")
        n0 = self.k * self.n1
        if abs(n0 - round(n0)) > 1e-9:
            raise InvalidArgumentError("k * n1 must be an integer")
        for p in self.levels:
            if not 0.0 < p < 1.0:
                raise InvalidLevelError(f"quantile level must be in (0,1), got {p}")
        if METHOD_EXPONENTIAL in self.methods:
            for gen in (self.generator0, self.generator1):
                if not isinstance(gen, Exponential):
                    raise InvalidArgumentError(
                        "the exponential MLE method needs exponential generators"
                    )
        object.__setattr__(self, "levels", tuple(float(p) for p in self.levels))
        object.__setattr__(self, "methods", tuple(self.methods))

    @property
    def n0(self) -> int:
        return int(round(self.k * self.n1))


@dataclass(frozen=True)
class SimulationRow:
    scenario_id: str
    p: float
    method: str
    scaled_bias: float
    abs_bias: float
    scaled_var: float
    scaled_mse: float
    fail_frac: float


@dataclass(frozen=True)
class SimulationTable:
    rows: tuple

    def row(self, p: float, method: str, scenario_id: str | None = None) -> SimulationRow:
        for r in self.rows:
            if (
                abs(r.p - p) < 1e-12
                and r.method == method
                and (scenario_id is None or r.scenario_id == scenario_id)
            ):
                return r
        raise KeyError((p, method, scenario_id))

    def to_csv(self, stream, include_abs_bias: bool = False) -> None:
        cols = ["scenario_id", "p", "method", "scaled_bias"]
        if include_abs_bias:
            cols.append("abs_bias")
        cols += ["scaled_var", "scaled_mse", "fail_frac"]
        stream.write(",".join(cols) + "\n")
        for r in self.rows:
            vals = [r.scenario_id, f"{r.p:.12g}", r.method, f"{r.scaled_bias:.12g}"]
            if include_abs_bias:
                vals.append(f"{r.abs_bias:.12g}")
            vals += [f"{r.scaled_var:.12g}", f"{r.scaled_mse:.12g}", f"{r.fail_frac:.12g}"]
            stream.write(",".join(vals) + "\n")


_MIX_MULT = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def mix_seed(seed: int, index: int) -> int:
    """64-bit splitmix-style finalizer of (seed, index); substream key."""
    z = (seed + (index + 1) * _MIX_MULT) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one replicate."""
    return np.random.Generator(np.random.Philox(key=mix_seed(seed, index)))


def scaled_errors(estimates, truth: float, n: int, fail_frac: float) -> tuple:
    """(bias, mean |error|, variance, MSE, fail_frac) of estimates of truth, scaled
    by sqrt(n) or n; NaNs and a fail_frac of 1 when there are no estimates."""
    err = np.asarray(estimates, dtype=float) - truth
    if err.size == 0:
        return (math.nan,) * 4 + (1.0,)
    return (
        math.sqrt(n) * float(np.mean(err)),
        math.sqrt(n) * float(np.mean(np.abs(err))),
        n * float(np.var(err)),
        n * float(np.mean(err**2)),
        fail_frac,
    )


def method_estimates(method: str, x0, x1, levels, basis: BasisSpec | None,
                     solver: SolverOptions | None = None) -> dict[float, float]:
    """Quantile estimates {level: estimate} of one method on one sample pair;
    ``basis`` and ``solver`` serve the DRM method."""
    if method == METHOD_DRM:
        data = TwoSampleData(x0=x0, x1=x1)
        cdf = estimate_g1(fit_mele(data, basis, solver), data, basis)
        return {p: drm_quantile(cdf, p) for p in levels}
    if method in _PARAMETRIC_TAGS:
        family = fit_parametric(TwoSampleData(x0=x0, x1=x1), _PARAMETRIC_TAGS[method])
        return {p: _target_quantile(family, p) for p in levels}
    if method == METHOD_EMPIRICAL:
        ecdf = Ecdf.from_sample(x1)
        return {p: empirical_quantile(ecdf, p) for p in levels}
    raise InvalidArgumentError(f"unknown method {method!r}")


def _replicate_estimates(scenario: Scenario, r: int):
    """One replicate: returns ({(p, method): estimate}, {failed methods})."""
    rng = replicate_rng(scenario.seed, r)
    x0 = sample(scenario.generator0, scenario.n0, rng)
    x1 = sample(scenario.generator1, scenario.n1, rng)
    estimates: dict[tuple[float, str], float] = {}
    failed: set[str] = set()
    for method in scenario.methods:
        try:
            found = method_estimates(
                method, x0, x1, scenario.levels, scenario.basis, scenario.solver
            )
            estimates.update(((p, method), est) for p, est in found.items())
        except DrmError:
            failed.add(method)
    return estimates, failed


def _replicate_batch(scenario: Scenario, indices):
    return [_replicate_estimates(scenario, r) for r in indices]


def run_scenario(scenario: Scenario, workers: int = 1) -> SimulationTable:
    """Run all replicates and aggregate scaled bias/variance/MSE per
    (level, method).

    The output is identical for any worker count: replicate substreams
    depend only on (seed, replicate index) and aggregation is ordered by
    replicate index.
    """
    indices = list(range(scenario.reps))
    if workers <= 1:
        results = _replicate_batch(scenario, indices)
    else:
        chunks = [indices[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_replicate_batch, [scenario] * len(chunks), chunks))
        merged: dict[int, tuple] = {}
        for chunk, part in zip(chunks, parts):
            for r, res in zip(chunk, part):
                merged[r] = res
        results = [merged[r] for r in indices]

    fail_counts = {m: 0 for m in scenario.methods}
    values: dict[tuple[float, str], list[float]] = {
        (p, m): [] for p in scenario.levels for m in scenario.methods
    }
    for estimates, failed in results:
        for m in failed:
            fail_counts[m] += 1
        for key, v in estimates.items():
            values[key].append(v)

    rows = []
    for p in scenario.levels:
        truth = true_quantile(scenario.generator1, p)
        for m in scenario.methods:
            rows.append(SimulationRow(
                scenario.scenario_id, p, m,
                *scaled_errors(values[(p, m)], truth, scenario.n1, fail_counts[m] / scenario.reps),
            ))
    return SimulationTable(rows=tuple(rows))
