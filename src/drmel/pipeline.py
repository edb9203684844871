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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    CsvParseError,
    EmptyGroupError,
    InvalidArgumentError,
    check_level,
)
from .nonparametric import Ecdf, empirical_quantile
from .simulate import (
    _METHOD_BASES,
    SimulationTable,
    _resolve_methods,
    _run_replicates,
    replicate_rng,
)

__all__ = [
    "ColumnSpec",
    "IngestReport",
    "ResampleStudy",
    "ingest_csv",
    "run_resample_study",
    "STUDY_METHODS",
]

STUDY_METHODS = tuple(_METHOD_BASES)


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
        object.__setattr__(self, "levels", tuple(check_level(p) for p in self.levels))
        _resolve_methods(self.methods)
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "n0_grid", tuple(int(v) for v in self.n0_grid))
        object.__setattr__(self, "n_grid", tuple(int(v) for v in self.n_grid))
        for n in (*self.n0_grid, *self.n_grid):
            if n < 1:
                raise InvalidArgumentError(f"grid sample sizes must be >= 1, got {n}")
        object.__setattr__(self, "methods", tuple(self.methods))


def _draw_study(seed: int, reps: int, cells, base_pop, target_pops, key):
    """Replicate r of grid cell ``cell``: x0 first, then each target in order."""
    cell, r = key
    n0, n = cells[cell]
    rng = replicate_rng(seed, cell * reps + r)
    x0 = base_pop[rng.integers(0, base_pop.size, n0)]
    return x0, {t: pop[rng.integers(0, pop.size, n)] for t, pop in target_pops.items()}


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
    truths = {t: {p: empirical_quantile(Ecdf.from_sample(populations[t]), p) for p in study.levels}
              for t in study.targets}
    cells = [(n0, n) for n0 in study.n0_grid for n in study.n_grid]
    sampler = partial(_draw_study, study.seed, study.reps, cells, populations[study.base],
                      {t: populations[t] for t in study.targets})
    return _run_replicates(
        sampler, [(f"n0={n0},n={n}", n) for n0, n in cells], study.reps,
        _resolve_methods(study.methods), truths, study.levels, None, workers,
    )
