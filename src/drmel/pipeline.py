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
import io
from dataclasses import dataclass
from itertools import compress

import numpy as np
from scipy import special

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


_EMPTY_AS_NAN = {"": "nan"}


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
    cell stripped, an empty one read as nan, so that its row is dropped and
    counted. A cell that still does not parse raises :class:`CsvParseError`
    with its row number."""
    texts = list(map(str.strip, value_cells))
    if "" in texts:
        texts = list(map(_EMPTY_AS_NAN.get, texts, texts))
    try:
        return np.array(texts, dtype=float)
    except ValueError:
        # row 1 is the header
        row = next(i for i, text in enumerate(texts, 2) if not _parses(text))
        raise CsvParseError(
            f"malformed numeric value {texts[row - 2]!r} in row {row}", row=row
        ) from None


def _parses(text: str) -> bool:
    """Whether float() accepts ``text``."""
    try:
        float(text)
    except ValueError:
        return False
    return True


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
        # xlogy(1, x) is the C library's log(x), as math.log is; numpy's
        # SIMD np.log differs from it in the last bit on some inputs. A
        # nonpositive x gives -inf or nan, so its row is dropped
        values = special.xlogy(1.0, values)
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
        if not self.targets:
            raise InvalidArgumentError("at least one target population required")
        for name in ("n0_grid", "n_grid"):
            grid = tuple(check_integer(v, name) for v in check_sequence(getattr(self, name), name))
            if not grid or min(grid) < 1:
                raise InvalidArgumentError(f"{name} needs one or more sample sizes >= 1, "
                                           f"got {grid}")
            object.__setattr__(self, name, grid)


@dataclass(frozen=True)
class FinitePopulation:
    """The values of a group, drawn from with replacement; its quantile is
    the type-1 empirical quantile of all its values."""

    values: np.ndarray

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.values[rng.integers(0, self.values.size, n)]

    def quantile(self, p: float) -> float:
        return empirical_quantile(Ecdf.from_sample(self.values), p)


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
    return _run_replicates(
        study.seed, FinitePopulation(populations[study.base]),
        {t: FinitePopulation(populations[t]) for t in study.targets},
        [(f"n0={n0},n={n}", n0, n) for n0 in study.n0_grid for n in study.n_grid], study.reps,
        _resolve_methods(study.methods), study.levels, workers,
    )
