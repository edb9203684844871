"""Deterministic Monte Carlo engine for quantile-estimator efficiency studies.

One replicate engine serves both front ends. It samples populations, each
of which has ``draw(n, rng)`` and ``quantile(p)``: the parametric
``Normal`` and ``Exponential`` of a :class:`Scenario`, which draw by
inverse-CDF transforms of uniforms for cross-platform reproducibility, and
the finite populations of a resampling study. A run is a list of cells,
each with its own sample sizes; a scenario is a run of one cell. Replicate
r of cell c draws x0, then each target, from a counter-based RNG substream
keyed by the seed and ``c * reps + r``, so results are bit-identical
regardless of how replicates are scheduled across workers.

A method name resolves in one step, through the table ``_ESTIMATORS``, to
a fitter ``(data) -> model`` of one :class:`~drmel.fit.TwoSampleData`:
``drm-<basis>`` for each of :data:`~drmel.basis.BASIS_NAMES`, a
:class:`~drmel.estimators.FittedDrm` on that basis, which makes its own
fit; ``parametric-<tag>`` for each of
:data:`~drmel.parametric.FAMILY_TAGS`, fitting a
:class:`~drmel.parametric.ParametricFamily`; and ``empirical``, an
:class:`~drmel.estimators.EmpiricalModel`. A scenario and ``drmel
estimate`` add ``drm``, the DRM under their own basis. Every model has
``quantile(p)``, the point the engine reads at each level, and
``estimate(p, ci_level)``, that point with its standard error and interval,
which ``drmel estimate`` prints. Fitters are picklable, so they cross the
process pool with the run. A replicate returns one (target, method, level)
array of estimates, NaN where the method raised a :class:`DrmError`: an
estimate from finite samples is finite, so NaN marks a failure and nothing
else. Estimates are scored against each target's ``quantile(p)``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import signal
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .basis import BASIS_NAMES, BasisSpec
from .errors import (DegenerateSampleError, DrmError, InvalidArgumentError, check_integer,
                     check_level, check_real, check_sequence)
from .estimators import EmpiricalModel, FittedDrm, corollary_variance
from .fit import TwoSampleData
from .parametric import EXPONENTIAL, FAMILY_TAGS, Exponential, Normal, ParametricFamily, fit_parametric

__all__ = [
    "Normal",
    "Exponential",
    "Scenario",
    "SimulationRow",
    "SimulationTable",
    "run_scenario",
    "corollary_curve",
    "METHOD_DRM",
    "METHOD_EXPONENTIAL",
    "METHOD_EMPIRICAL",
]

METHOD_DRM = "drm"
METHOD_EXPONENTIAL = f"parametric-{EXPONENTIAL}"
METHOD_EMPIRICAL = "empirical"


# fit_parametric is called by this module's name, so that a tracer that swaps
# module attributes (benchmarks/spans.py) sees the calls; FittedDrm calls
# fit_mele by the estimators module's name
def _parametric(tag: str, data: TwoSampleData) -> ParametricFamily:
    return fit_parametric(data, tag)


# the fitter of each method name: the model of one sample pair, a
# TwoSampleData, with quantile(p) and estimate(p, ci_level)
_ESTIMATORS = {
    **{f"drm-{b}": partial(FittedDrm, spec=BasisSpec.from_name(b)) for b in BASIS_NAMES},
    **{f"parametric-{tag}": partial(_parametric, tag) for tag in FAMILY_TAGS},
    METHOD_EMPIRICAL: EmpiricalModel,
}


def _resolve_methods(names, drm_basis: BasisSpec | None = None) -> tuple:
    """(name, fitter) per method name; ``drm`` is known only with a
    ``drm_basis``. Raises :class:`InvalidArgumentError`, naming the known
    methods, on an unknown name."""
    fitters = _ESTIMATORS if drm_basis is None else {
        METHOD_DRM: partial(FittedDrm, spec=drm_basis), **_ESTIMATORS}
    for name in names:
        if not isinstance(name, str) or name not in fitters:
            raise InvalidArgumentError(f"unknown method {name!r}; known: {', '.join(fitters)}")
    return tuple((name, fitters[name]) for name in names)


def sample(gen, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws from the population ``gen`` on the stream ``rng``."""
    return gen.draw(size, rng)


def corollary_curve(gen, p: float, k_grid) -> np.ndarray:
    """Limiting DRM quantile variance as a function of the size ratio k,
    for identical populations, at each k of the sequence ``k_grid``."""
    g, avar = gen.density_at_quantile(p), gen.quantile_avar(p)
    return np.array([corollary_variance(k, p, g, avar) for k in check_sequence(k_grid, "k_grid")])


def _check_run(run, drm_basis: BasisSpec | None = None) -> None:
    """The checks a scenario and a study share: whole reps >= 1 and seed;
    levels and methods each a sequence (not a string, a set or a mapping) of
    one entry or more; every level in (0, 1) and every method known. Stores
    reps and seed as ints and the levels and methods as tuples."""
    object.__setattr__(run, "reps", check_integer(run.reps, "reps", 1))
    object.__setattr__(run, "seed", check_integer(run.seed, "seed"))
    levels = check_sequence(run.levels, "levels")
    object.__setattr__(run, "levels", tuple(check_level(p, f"levels[{i}]: quantile level")
                                            for i, p in enumerate(levels)))
    object.__setattr__(run, "methods", check_sequence(run.methods, "methods"))
    _resolve_methods(run.methods, drm_basis)
    if not run.levels or not run.methods:
        raise InvalidArgumentError("a run needs at least one level and one method")


@dataclass(frozen=True)
class Scenario:
    generator0: Normal | Exponential
    generator1: Normal | Exponential
    n1: int
    k: float
    basis: BasisSpec = BasisSpec.quadratic()
    levels: tuple = (0.5,)
    reps: int = 1000
    seed: int = 0
    methods: tuple = (METHOD_DRM, METHOD_EMPIRICAL)
    scenario_id: str = "scenario"

    def __post_init__(self):
        if not isinstance(self.scenario_id, str):  # the table's first column
            raise InvalidArgumentError(f"scenario_id must be a str, got {self.scenario_id!r}")
        if not isinstance(self.basis, BasisSpec):  # the JSON names a basis; a Scenario takes one
            raise InvalidArgumentError(f"basis must be a BasisSpec, got {self.basis!r}")
        _check_run(self, self.basis)
        object.__setattr__(self, "n1", check_integer(self.n1, "n1", 2))
        object.__setattr__(self, "k", check_real(self.k, "k", 0))
        n0 = self.k * self.n1
        if not n0 < 2**63 or abs(n0 - round(n0)) > 1e-9 or round(n0) < 1:
            raise InvalidArgumentError(f"k * n1 must be an integer in [1, 2**63), got {n0}")
        for gen in (self.generator0, self.generator1):
            if not isinstance(gen, (Normal, Exponential)):
                raise InvalidArgumentError(f"unknown generator {gen!r}")
            if METHOD_EXPONENTIAL in self.methods and not isinstance(gen, Exponential):
                raise InvalidArgumentError("the exponential MLE method needs exponential generators")

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
        """Write a header and one line per row: strings as they are, numbers
        as ``.12g``; the ``abs_bias`` column only with ``include_abs_bias``."""
        cols = [c.name for c in fields(SimulationRow) if include_abs_bias or c.name != "abs_bias"]
        stream.write(",".join(cols) + "\n")
        for r in self.rows:
            vals = (getattr(r, c) for c in cols)
            stream.write(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in vals) + "\n")


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


def scaled_errors(estimates, truth: float, n: int) -> tuple:
    """(bias, mean |error|, variance, MSE) of estimates of truth, scaled by
    sqrt(n) or n; NaNs when there are no estimates."""
    err = np.asarray(estimates, dtype=float) - truth
    if err.size == 0:
        return (math.nan,) * 4
    return (
        math.sqrt(n) * float(err.mean()),
        math.sqrt(n) * float(np.abs(err).mean()),
        n * float(err.var()),
        n * float(np.square(err).mean()),
    )


def _too_large(n0: int, n: int) -> InvalidArgumentError:
    return InvalidArgumentError(f"cannot hold a base sample of {n0} points and target "
                                f"samples of {n} points in memory")


def _replicate(state, key) -> np.ndarray:
    """Replicate r of cell ``cell``, for ``key = (cell, r)``: x0 is drawn
    first, then each target in order, and each (x0, target sample) pair is
    one TwoSampleData shared by every method. Returns the (target, method,
    level) array of estimates, NaN where the method raised a DrmError, and
    NaN for every method of a target whose pair is not valid data. A sample
    or a pair too large to allocate raises :class:`InvalidArgumentError`
    naming the sample sizes."""
    seed, base, targets, cells, reps, methods, levels = state
    cell, r = key
    _, n0, n = cells[cell]
    rng = replicate_rng(seed, cell * reps + r)
    try:
        x0 = sample(base, n0, rng)
    except (MemoryError, ValueError):  # ValueError: more elements than numpy can index
        raise _too_large(n0, n) from None
    estimates = np.full((len(targets), len(methods), len(levels)), math.nan)
    for t, population in enumerate(targets.values()):
        try:
            x1 = sample(population, n, rng)
            data = TwoSampleData(x0=x0, x1=x1)
        except DrmError:  # every method of this target keeps its NaNs
            continue
        except (MemoryError, ValueError):  # a DrmError is caught above
            raise _too_large(n0, n) from None
        for m, (_, fitter) in enumerate(methods):
            with contextlib.suppress(DrmError):  # a failed method keeps its NaNs
                model = fitter(data)
                estimates[t, m] = [model.quantile(p) for p in levels]
    return estimates


_worker_state = None  # in a pool worker: the state of the run it serves, and the run's stop event


def _init_worker(blob: bytes, stop) -> None:
    """A worker ignores SIGINT: a Ctrl-C stops the parent, which sets ``stop``
    and cancels the chunks not yet sent, and a worker never breaks the pool
    under it."""
    global _worker_state
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_state = pickle.loads(blob), stop


def _worker_replicate(key):
    """The replicate of ``key``, or None once the run's stop event is set."""
    state, stop = _worker_state
    return None if stop.is_set() else _replicate(state, key)


def _run_replicates(seed: int, base, targets: dict, cells, reps: int, methods, levels,
                    workers: int) -> SimulationTable:
    """The replicate engine: rows of scaled errors per cell, level and method.

    Each replicate draws x0 from the population ``base`` and a sample from
    each population of ``targets``, a ``{target: population}`` dict; the
    truth of a target at level p is its ``quantile(p)``. ``cells`` holds
    each cell's ``(scenario_id, n0, n)`` and ``methods`` the ``(name,
    fitter)`` pairs of :func:`_resolve_methods`. A row averages the
    scaled errors of the targets, unweighted. Every estimate goes into one
    (cell, rep, target, method, level) array, allocated before the first
    replicate runs: a run too large for it raises
    :class:`InvalidArgumentError` naming its sizes, and nothing else of
    size reps is built. Results are stored in key order, so the table does
    not depend on the worker count. A pool opens no more workers than there
    are replicates or CPUs, and a worker count that is not a whole number
    of 1 or more raises :class:`InvalidArgumentError`. A pool worker that
    dies, as one killed for want of memory does, raises :class:`DrmError`.
    When a pool run ends early, by a Ctrl-C or an error, each worker
    finishes the replicate it is on and skips every one it has not begun,
    so the wait does not grow with the number of replicates. A row whose
    scaled errors overflow the float range raises
    :class:`DegenerateSampleError` naming its method, level and cell; a
    row is NaN only where a target has no estimate.
    """
    workers = check_integer(workers, "workers", 1)
    shape = (len(cells), reps, len(targets), len(methods), len(levels))
    try:
        results = np.empty(shape)
    except (MemoryError, ValueError):  # ValueError: more elements than numpy can index
        raise InvalidArgumentError(
            "cannot hold the estimates of {} cells x {} reps x {} targets x {} methods x "
            "{} levels in memory".format(*shape)
        ) from None
    state = (seed, base, targets, cells, reps, methods, levels)
    keys = itertools.product(range(len(cells)), range(reps))
    flat = results.reshape(len(cells) * reps, *shape[2:])  # a view: one block per key
    workers = min(workers, len(flat), os.cpu_count() or 1)
    if workers <= 1:  # also a run of no replicates
        for i, key in enumerate(keys):
            flat[i] = _replicate(state, key)
    else:
        try:  # pickled once, so each worker receives it once
            blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise InvalidArgumentError(
                f"cannot send the run to worker processes ({exc}); use workers=1"
            ) from None
        import multiprocessing  # the pool machinery loads only when a pool opens
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        stop = multiprocessing.Event()  # set on every way out of the run
        pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(blob, stop))
        try:
            chunksize = max(1, len(flat) // (32 * workers))
            for i, block in enumerate(pool.map(_worker_replicate, keys, chunksize=chunksize)):
                flat[i] = block
        except BrokenProcessPool:
            raise DrmError("a worker of the process pool died before the run ended; workers=1 "
                           "(--workers 1) runs every replicate in this process") from None
        finally:  # a Ctrl-C while map still submits too: cancel the chunks not yet sent
            stop.set()
            pool.shutdown(cancel_futures=True)
    # one truth per target and level: FinitePopulation.quantile sorts the whole group
    truths = [[population.quantile(p) for population in targets.values()] for p in levels]
    rows = []
    for (scenario_id, _, n), cell in zip(cells, results):  # cell: (rep, target, method, level)
        for j, p in enumerate(levels):
            for m, (method, _) in enumerate(methods):
                with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
                    per_target = [
                        (*scaled_errors(col[~np.isnan(col)], truth, n),
                         float(np.isnan(col).mean()))
                        for col, truth in zip(cell[:, :, m, j].T, truths[j])
                    ]
                    agg = [float(np.mean(col)) for col in zip(*per_target)]
                # every target has an estimate, so each measure is finite unless it overflows
                if all(t[-1] < 1 for t in per_target) and not all(map(math.isfinite, agg)):
                    raise DegenerateSampleError(
                        f"the scaled errors of {method} at level {p:g} overflow in {scenario_id}")
                rows.append(SimulationRow(scenario_id, p, method, *agg))
    return SimulationTable(rows=tuple(rows))


def run_scenario(scenario: Scenario, workers: int = 1) -> SimulationTable:
    """Run all replicates and aggregate scaled bias/variance/MSE per
    (level, method).

    The output is identical for any worker count: replicate substreams
    depend only on (seed, replicate index) and aggregation is ordered by
    replicate index.
    """
    return _run_replicates(
        scenario.seed, scenario.generator0, {scenario.scenario_id: scenario.generator1},
        [(scenario.scenario_id, scenario.n0, scenario.n1)], scenario.reps,
        _resolve_methods(scenario.methods, scenario.basis), scenario.levels, workers,
    )
