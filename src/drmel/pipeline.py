"""CSV ingestion and with-replacement resampling studies on real data.

Yearly (or otherwise grouped) observations are read from a CSV file,
optionally log-transformed, and treated as fixed populations. A study runs
on the replicate engine of :mod:`drmel.simulate`, the one that runs
scenarios: each group becomes a :class:`FinitePopulation`, which draws
with replacement and whose truth is its full-data empirical quantile, and
each (n0, n) grid combination is one cell of the run.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (CsvParseError, EmptyGroupError, InvalidArgumentError, check_integer,
                     check_sequence)
from .nonparametric import Ecdf, empirical_quantile
from .simulate import SimulationTable, _check_run, _resolve_methods, _run_replicates

__all__ = [
    "ColumnSpec",
    "IngestReport",
    "ResampleStudy",
    "ingest_csv",
    "run_resample_study",
]


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


class _GroupCodes(dict):
    """Group cell -> the number of its stripped label. A cell seen first gets
    the number of its label, a new label the next number; ``labels`` maps
    each label to its number, in order of first sight."""

    def __init__(self):
        super().__init__()
        self.labels = {}

    def __missing__(self, cell: str) -> int:
        code = self[cell] = self.labels.setdefault(cell.strip(), len(self.labels))
        return code


def _column_index(header, name: str) -> int:
    """Index of the last header cell named ``name``: the cell a csv.DictReader
    row would hold under that key."""
    found = [i for i, cell in enumerate(header or ()) if cell == name]
    if not found:
        raise CsvParseError(f"missing column {name!r}")
    return found[-1]


def _parse_stripped(value_cells: list) -> np.ndarray:
    """The values of cells that float() does not all accept as they are: each
    cell stripped and read by float(), an empty one as nan, so that its row is
    dropped and counted. The first cell that still does not parse raises
    :class:`CsvParseError` with its row number."""
    values = []
    for row, cell in enumerate(value_cells, 2):  # row 1 is the header
        text = cell.strip()
        try:
            values.append(float(text or "nan"))
        except ValueError:
            raise CsvParseError(
                f"malformed numeric value {text!r} in row {row}", row=row) from None
    return np.array(values)


def _split_columns(text: str, spec: ColumnSpec) -> list:
    """The value cells and the group cells of the nonblank data rows of ``text``;
    a cell may carry whitespace around it, which the caller strips.

    A regular file has more than one header field, no quote character,
    ``\\n`` or ``\\r\\n`` line ends and the header's field count on every
    line, so no blank line but at its end. It is split by one ``str.split``
    over its text, with a comma put before each line break, so the header's
    cells come first and a row's first cell starts with the line break before
    it. Any other file, a one-field file among them, is read by
    ``csv.reader``, which skips blank lines.
    """
    body = text.replace("\r\n", "\n") if "\r" in text else text
    joined = body.replace("\n", ",\n")
    cells = joined.split(",")
    newline = body.find("\n")
    step = body.count(",", 0, newline if newline >= 0 else len(body)) + 1
    end = len(cells)
    while cells[end - 1] == "\n":  # the end of the last line, or a blank line after it
        end -= 1
    # a data row per line break, but for the blank lines at the end
    n = len(joined) - len(body) - (len(cells) - end)
    names = (spec.value_column, spec.group_column)
    # the n cells that start a row fall every ``step`` cells exactly when
    # every row has ``step`` fields
    regular = step > 1 and '"' not in body and "\r" not in body and end - step == step * n
    if regular and "".join(cells[step:end:step]).count("\n") == n:
        header = cells[:step]
        return [cells[step + _column_index(header, name):end:step] for name in names]
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    indices = [_column_index(header, name) for name in names]
    rows = list(filter(None, reader))
    return [[row[i] if i < len(row) else "" for row in rows] for i in indices]


# np.linspace(*_LOG_PROBE): contiguous np.log differs from the C library's
# log on 18 of these values with numpy 2.4.6's AVX-512 loop
_LOG_PROBE = (0.5, 2.0, 4096)


def _reversed_log(values: np.ndarray) -> np.ndarray:
    """np.log of ``values`` read backwards into a new array, then read
    backwards again. numpy's SIMD log loop, which differs from the C
    library's log in the last bit on some inputs, takes no negatively
    strided input; its scalar loop calls the C library's log per element.
    ``values`` must not be negatively strided itself: reversing such a view
    makes it contiguous again, and numpy then takes its SIMD loop. No numpy
    API promises which loop runs, so :func:`ingest_csv` uses this only where
    :func:`_reversed_log_is_libm` holds."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(values[::-1])[::-1]


def _libm_log(values: np.ndarray) -> np.ndarray:
    """``math.log``, the C library's log, of each value, and nan for a value
    that is not positive."""
    positive = np.where(values > 0, values, math.nan).tolist()
    return np.fromiter(map(math.log, positive), float, len(positive))


@functools.cache
def _reversed_log_is_libm() -> bool:
    """Whether :func:`_reversed_log` gives :func:`_libm_log`'s bits on the
    ``_LOG_PROBE`` values: checked once per process, on the first log
    transform, in about 0.5 ms."""
    probe = np.linspace(*_LOG_PROBE)
    return _reversed_log(probe).tobytes() == _libm_log(probe).tobytes()


def ingest_csv(path, spec: ColumnSpec):
    """Read per-group value vectors from a CSV file.

    The file is UTF-8, with or without a byte-order mark, in the csv
    module's default dialect; a file that is not UTF-8 raises
    :class:`CsvParseError` with the offset of its first bad byte. Blank
    lines are skipped and not numbered; a short row reads its missing cells
    as empty. Cells are stripped of surrounding whitespace. Rows with an
    empty, ``nan`` or infinite value, or a nonpositive value under the log
    transform, are dropped and counted. A malformed (nonempty, non-numeric)
    cell raises :class:`CsvParseError` with its row number.

    Returns (populations, report) where populations maps group label to a
    float array, in order of each label's first kept row.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        text = raw[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path} is not UTF-8: invalid byte at offset {start + exc.start}"
                            ) from None
    del raw
    value_cells, group_cells = _split_columns(text, spec)
    rows_in = len(value_cells)
    try:
        # numpy converts each str with float(), which ignores the whitespace
        # around a number; str.strip also removes U+001C-U+001F, which
        # float() rejects, so such a cell is read again stripped, as an
        # empty cell is
        values = np.array(value_cells, dtype=float)
    except ValueError:
        values = _parse_stripped(value_cells)
    if spec.transform == "log":
        # the C library's log, whose bits estimates keep; a value that is
        # not positive becomes -inf or nan, and its row is dropped
        values = _reversed_log(values) if _reversed_log_is_libm() else _libm_log(values)
    keep = np.isfinite(values)
    if keep.all():
        kept = group_cells
    else:
        kept = list(compress(group_cells, keep.tolist()))
        values = values[keep]
    if not kept:
        raise EmptyGroupError("no usable rows in any group")
    codes = _GroupCodes()
    group = np.fromiter(map(codes.__getitem__, kept), np.intp, len(kept))
    # numpy's stable sort is a radix sort on 8- and 16-bit keys
    keys = group.astype(np.min_scalar_type(len(codes.labels)))
    grouped = values[np.argsort(keys, kind="stable")]
    populations = dict(zip(codes.labels,
                           np.split(grouped, np.cumsum(np.bincount(group))[:-1])))
    return populations, IngestReport(rows_in, len(kept), rows_in - len(kept))


@dataclass(frozen=True)
class ResampleStudy:
    base: str
    targets: tuple
    n0_grid: tuple
    n_grid: tuple
    levels: tuple = (0.01, 0.05, 0.5, 0.95)
    methods: tuple = ("drm-quadratic", "parametric-normal", "parametric-normal-common",
                      "empirical")
    reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_run(self)
        object.__setattr__(self, "targets", check_sequence(self.targets, "targets"))
        for name in ("n0_grid", "n_grid"):
            sizes = check_sequence(getattr(self, name), name)
            object.__setattr__(self, name, tuple(check_integer(v, name, 1) for v in sizes))
        if not (self.targets and self.n0_grid and self.n_grid):
            raise InvalidArgumentError("a study needs at least one target, n0 size and n size")


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no boolean ==
class FinitePopulation:
    """The values of a group, drawn from with replacement; its quantile is
    the type-1 empirical quantile of all its values."""

    values: np.ndarray

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.values[rng.integers(0, self.values.size, n)]

    def quantile(self, p: float) -> float:
        return empirical_quantile(Ecdf.from_sample(self.values), p)


def _finite_population(populations: dict, label) -> FinitePopulation:
    """The group ``label`` of ``populations`` as a :class:`FinitePopulation`
    of a float array. A group that is missing or empty raises
    :class:`EmptyGroupError`; one that is not 1-D, not numeric or not finite
    raises :class:`InvalidArgumentError`. Each message names the group."""
    if label not in populations:
        raise EmptyGroupError(f"population {label!r} not found in the data")
    try:
        values = np.asarray(populations[label])
    except ValueError:  # a ragged nest of sequences
        raise InvalidArgumentError(f"population {label!r} must be 1-D, not ragged") from None
    if values.dtype.kind not in "iuf":
        raise InvalidArgumentError(
            f"population {label!r} must hold real numbers, not {values.dtype} values")
    if values.ndim != 1:
        raise InvalidArgumentError(
            f"population {label!r} must be 1-D, not of shape {values.shape}")
    if values.size == 0:
        raise EmptyGroupError(f"population {label!r} is empty")
    values = values.astype(float, copy=False)
    if not np.isfinite(values).all():
        raise InvalidArgumentError(f"population {label!r} must be finite")
    return FinitePopulation(values)


def run_resample_study(
    study: ResampleStudy, populations: dict, workers: int = 1
) -> SimulationTable:
    """Resampling study over every (n0, n) grid combination.

    Scaled measures use the target sample size n, and each (level, method)
    row averages the per-target aggregates unweighted. Output is
    deterministic in the seed regardless of worker count. Each group the
    study names is checked by :func:`_finite_population` before any
    replicate runs.
    """
    base = _finite_population(populations, study.base)
    targets = {t: _finite_population(populations, t) for t in study.targets}
    return _run_replicates(
        study.seed, base, targets,
        [(f"n0={n0},n={n}", n0, n) for n0 in study.n0_grid for n in study.n_grid], study.reps,
        _resolve_methods(study.methods), study.levels, workers,
    )
