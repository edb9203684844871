"""CSV ingestion and with-replacement resampling studies on real data.

Yearly (or otherwise grouped) observations are read from a CSV file,
optionally log-transformed, and treated as fixed populations. Repeated
subsamples drawn with replacement feed the same estimators as the
synthetic Monte Carlo engine, with the full-data empirical quantiles of
each target population taken as the truth.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec
from .errors import (
    CsvParseError,
    DrmError,
    EmptyGroupError,
    InvalidArgumentError,
    InvalidLevelError,
)
from .nonparametric import Ecdf, empirical_quantile
from .simulate import (
    _PARAMETRIC_TAGS,
    METHOD_DRM,
    METHOD_EMPIRICAL,
    SimulationRow,
    SimulationTable,
    method_estimates,
    replicate_rng,
    scaled_errors,
)

__all__ = [
    "ColumnSpec",
    "IngestReport",
    "ResampleStudy",
    "ingest_csv",
    "run_resample_study",
    "STUDY_METHODS",
]

# DRM study methods by name, each with its basis
_DRM_METHODS = {f"drm-{b}": BasisSpec.from_name(b) for b in ("linear", "quadratic", "linear-log")}
STUDY_METHODS = tuple(_DRM_METHODS) + tuple(_PARAMETRIC_TAGS) + (METHOD_EMPIRICAL,)


@dataclass(frozen=True)
class ColumnSpec:
    value_column: str
    group_column: str
    transform: str = "none"  # "none" | "log"

    def __post_init__(self):
        if self.transform not in ("none", "log"):
            raise InvalidArgumentError(f"unknown transform {self.transform!r}")


@dataclass(frozen=True)
class IngestReport:
    rows_in: int
    rows_used: int
    rows_dropped: int


def _column_index(header, name: str) -> int:
    """Index of the last header cell named ``name``: the cell a csv.DictReader
    row would hold under that key."""
    found = [i for i, cell in enumerate(header or ()) if cell == name]
    if not found:
        raise CsvParseError(f"missing column {name!r}")
    return found[-1]


def ingest_csv(path, spec: ColumnSpec):
    """Read per-group value vectors from a CSV file.

    Blank lines are skipped and not numbered; a short row reads its missing
    cells as empty. Rows with an empty value cell, or a nonpositive value
    under the log transform, are dropped and counted. A malformed (nonempty,
    non-numeric) cell raises :class:`CsvParseError` with its row number.

    Returns (populations, report) where populations maps group label to a
    float array.
    """
    groups: dict[str, list[float]] = {}
    rows_in = dropped = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        vi = _column_index(header, spec.value_column)
        gi = _column_index(header, spec.group_column)
        for row in reader:
            if not row:  # blank line: neither counted nor numbered
                continue
            rows_in += 1
            raw = row[vi].strip() if vi < len(row) else ""
            try:
                value = float(raw) if raw else math.nan
            except ValueError:
                i = rows_in + 1  # row 1 is the header
                raise CsvParseError(
                    f"malformed numeric value {raw!r} in row {i}", row=i
                ) from None
            if spec.transform == "log":
                value = math.log(value) if value > 0 else math.nan
            if not math.isfinite(value):
                dropped += 1
                continue
            label = row[gi].strip() if gi < len(row) else ""
            groups.setdefault(label, []).append(value)

    populations = {g: np.asarray(v, dtype=float) for g, v in groups.items() if v}
    if not populations:
        raise EmptyGroupError("no usable rows in any group")
    return populations, IngestReport(rows_in, rows_in - dropped, dropped)


@dataclass(frozen=True)
class ResampleStudy:
    base: str
    targets: tuple
    n0_grid: tuple
    n_grid: tuple
    levels: tuple
    methods: tuple = ("drm-quadratic", "parametric-normal", "empirical")
    reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise InvalidArgumentError("reps must be >= 1")
        if not self.targets:
            raise InvalidArgumentError("at least one target population required")
        for p in self.levels:
            if not 0.0 < p < 1.0:
                raise InvalidLevelError(f"quantile level must be in (0,1), got {p}")
        for m in self.methods:
            if m not in STUDY_METHODS:
                raise InvalidArgumentError(f"unknown method {m!r}")
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "n0_grid", tuple(int(v) for v in self.n0_grid))
        object.__setattr__(self, "n_grid", tuple(int(v) for v in self.n_grid))
        object.__setattr__(self, "levels", tuple(float(p) for p in self.levels))
        object.__setattr__(self, "methods", tuple(self.methods))


def _study_replicate(args):
    """One replicate of one (n0, n) combination across all targets."""
    study, base_pop, target_pops, n0, n, stream_index, r = args
    rng = replicate_rng(study.seed, stream_index * study.reps + r)
    x0 = base_pop[rng.integers(0, base_pop.size, n0)]
    out: dict[tuple[str, float, str], float] = {}
    failed: set[tuple[str, str]] = set()
    for target, pop in target_pops.items():
        x1 = pop[rng.integers(0, pop.size, n)]
        for method in study.methods:
            basis = _DRM_METHODS.get(method)
            try:
                found = method_estimates(
                    METHOD_DRM if basis is not None else method, x0, x1, study.levels, basis
                )
                out.update(((target, p, method), est) for p, est in found.items())
            except DrmError:
                failed.add((target, method))
    return out, failed


def run_resample_study(
    study: ResampleStudy, populations: dict, workers: int = 1
) -> SimulationTable:
    """Resampling study over every (n0, n) grid combination.

    Scaled measures use the target sample size n, and each (level, method)
    row averages the per-target aggregates unweighted. Output is
    deterministic in the seed regardless of worker count.
    """
    for label in (study.base, *study.targets):
        if label not in populations:
            raise EmptyGroupError(f"population {label!r} not found in the data")
    base_pop = populations[study.base]
    target_pops = {t: populations[t] for t in study.targets}
    truths = {
        (t, p): empirical_quantile(Ecdf.from_sample(pop), p)
        for t, pop in target_pops.items()
        for p in study.levels
    }

    rows = []
    for stream_index, (n0, n) in enumerate(
        (a, b) for a in study.n0_grid for b in study.n_grid
    ):
        tasks = [
            (study, base_pop, target_pops, n0, n, stream_index, r)
            for r in range(study.reps)
        ]
        if workers <= 1:
            results = [_study_replicate(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_study_replicate, tasks, chunksize=8))

        values: dict[tuple[str, float, str], list[float]] = {
            (t, p, m): []
            for t in study.targets
            for p in study.levels
            for m in study.methods
        }
        fail_counts = {(t, m): 0 for t in study.targets for m in study.methods}
        for out, failed in results:
            for key in failed:
                fail_counts[key] += 1
            for key, v in out.items():
                values[key].append(v)

        scenario_id = f"n0={n0},n={n}"
        for p in study.levels:
            for m in study.methods:
                per_target = [
                    scaled_errors(values[(t, p, m)], truths[(t, p)], n,
                                  fail_counts[(t, m)] / study.reps)
                    for t in study.targets
                ]
                agg = [float(np.mean(col)) for col in zip(*per_target)]
                rows.append(SimulationRow(scenario_id, p, m, *agg))
    return SimulationTable(rows=tuple(rows))
