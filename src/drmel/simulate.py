"""Deterministic Monte Carlo engine for quantile-estimator efficiency studies.

Each replicate draws fresh samples from a counter-based RNG substream
derived from the scenario seed and the replicate index, so results are
bit-identical regardless of how replicates are scheduled across workers.
Sampling uses inverse-CDF transforms of uniforms for cross-platform
reproducibility.
"""

from __future__ import annotations

import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .basis import BasisSpec
from .errors import DrmError, InvalidArgumentError, check_level
from .estimators import corollary_variance, drm_quantile, estimate_g1
from .fit import SolverOptions, TwoSampleData, fit_mele
from .nonparametric import Ecdf, empirical_quantile
from .parametric import EXPONENTIAL, NORMAL_COMMON, NORMAL_FREE, Exponential, Normal, fit_parametric

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
# the DRM basis of each method name, None for the others; "drm" alone takes
# the basis of its scenario
_METHOD_BASES = {
    **{f"drm-{b}": BasisSpec.from_name(b) for b in ("linear", "quadratic", "linear-log")},
    **dict.fromkeys(_PARAMETRIC_TAGS),
    METHOD_EMPIRICAL: None,
}


def _resolve_methods(names, drm_basis: BasisSpec | None = None) -> tuple:
    """(name, DRM basis or None) per method name; ``drm`` is known only with
    a ``drm_basis``. Raises :class:`InvalidArgumentError` on an unknown name."""
    bases = _METHOD_BASES if drm_basis is None else {METHOD_DRM: drm_basis, **_METHOD_BASES}
    for name in names:
        if not isinstance(name, str) or name not in bases:
            raise InvalidArgumentError(f"unknown method {name!r}")
    return tuple((name, bases[name]) for name in names)


def sample(gen: Normal | Exponential, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling from a uniform stream."""
    return gen.ppf(rng.random(size))


def true_quantile(gen: Normal | Exponential, p: float) -> float:
    """Analytic population quantile of the generator."""
    return gen.quantile(p)


def quantile_density(gen: Normal | Exponential, p: float) -> float:
    """Population density evaluated at the p-quantile."""
    return gen.density_at_quantile(p)


def parametric_avar(gen: Normal | Exponential, p: float) -> float:
    """Closed-form asymptotic variance of the quantile MLE under the generator."""
    return gen.quantile_avar(p)


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
        object.__setattr__(self, "levels", tuple(check_level(p) for p in self.levels))
        _resolve_methods(self.methods, self.basis)
        for gen in (self.generator0, self.generator1):
            if not isinstance(gen, (Normal, Exponential)):
                raise InvalidArgumentError(f"unknown generator {gen!r}")
            if METHOD_EXPONENTIAL in self.methods and not isinstance(gen, Exponential):
                raise InvalidArgumentError("the exponential MLE method needs exponential generators")
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
    a method with a ``basis`` is a DRM fit, which ``solver`` serves."""
    if basis is not None:
        data = TwoSampleData(x0=x0, x1=x1)
        cdf = estimate_g1(fit_mele(data, basis, solver), data, basis)
        return {p: drm_quantile(cdf, p) for p in levels}
    if method in _PARAMETRIC_TAGS:
        target = fit_parametric(TwoSampleData(x0=x0, x1=x1), _PARAMETRIC_TAGS[method]).target
        return {p: target.quantile(p) for p in levels}
    if method == METHOD_EMPIRICAL:
        ecdf = Ecdf.from_sample(x1)
        return {p: empirical_quantile(ecdf, p) for p in levels}
    raise InvalidArgumentError(f"unknown method {method!r}")


def _replicate(state, key):
    """One replicate: ({(target, p, method): estimate}, {(target, method) failed})."""
    sampler, methods, levels, solver = state
    x0, samples = sampler(key)
    estimates: dict[tuple[str, float, str], float] = {}
    failed: set[tuple[str, str]] = set()
    for target, x1 in samples.items():
        for method, basis in methods:
            try:
                found = method_estimates(method, x0, x1, levels, basis, solver)
            except DrmError:
                failed.add((target, method))
            else:
                estimates.update(((target, p, method), est) for p, est in found.items())
    return estimates, failed


_worker_state = None  # in a pool worker, the state of the run it serves


def _init_worker(blob: bytes) -> None:
    global _worker_state
    _worker_state = pickle.loads(blob)


def _worker_replicate(key):
    return _replicate(_worker_state, key)


def _run_replicates(sampler, cells, reps: int, methods, truths, levels,
                    solver: SolverOptions | None, workers: int) -> SimulationTable:
    """The replicate engine: rows of scaled errors per cell, level and method.

    ``sampler((cell, r))`` draws replicate r of cell number ``cell`` as
    ``(x0, {target: x1})``; ``cells`` holds each cell's ``(scenario_id, n)``,
    ``methods`` the ``(name, DRM basis or None)`` pairs and ``truths`` the
    ``{target: {level: true quantile}}``. A row averages the scaled errors
    of the targets, unweighted. Results are collected in key order, so the
    table does not depend on the worker count.
    """
    state = (sampler, methods, levels, solver)
    keys = [(c, r) for c in range(len(cells)) for r in range(reps)]
    if workers <= 1:
        results = [_replicate(state, key) for key in keys]
    else:
        try:  # pickled once, so each worker receives it once
            blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise InvalidArgumentError(
                f"cannot send the run to worker processes ({exc}); use workers=1"
            ) from None
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(blob,)) as pool:
            results = list(pool.map(_worker_replicate, keys,
                                    chunksize=max(1, len(keys) // (4 * workers))))
    rows = []
    for c, (scenario_id, n) in enumerate(cells):
        cell = results[c * reps:(c + 1) * reps]
        for p in levels:
            for m, _ in methods:
                per_target = [
                    scaled_errors([est[(t, p, m)] for est, _ in cell if (t, p, m) in est],
                                  truth[p], n, sum((t, m) in failed for _, failed in cell) / reps)
                    for t, truth in truths.items()
                ]
                agg = [float(np.mean(col)) for col in zip(*per_target)]
                rows.append(SimulationRow(scenario_id, p, m, *agg))
    return SimulationTable(rows=tuple(rows))


def _draw_scenario(scenario: Scenario, key):
    rng = replicate_rng(scenario.seed, key[1])
    x0 = sample(scenario.generator0, scenario.n0, rng)
    return x0, {scenario.scenario_id: sample(scenario.generator1, scenario.n1, rng)}


def run_scenario(scenario: Scenario, workers: int = 1) -> SimulationTable:
    """Run all replicates and aggregate scaled bias/variance/MSE per
    (level, method).

    The output is identical for any worker count: replicate substreams
    depend only on (seed, replicate index) and aggregation is ordered by
    replicate index.
    """
    truths = {scenario.scenario_id: {p: true_quantile(scenario.generator1, p)
                                     for p in scenario.levels}}
    return _run_replicates(
        partial(_draw_scenario, scenario), [(scenario.scenario_id, scenario.n1)], scenario.reps,
        _resolve_methods(scenario.methods, scenario.basis), truths, scenario.levels,
        scenario.solver, workers,
    )
