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
import re
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (CsvParseError, EmptyGroupError, InvalidArgumentError, check_integer,
                     check_sample, check_sequence)
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
    # the labels of the groups whose every row was dropped, in order of
    # each one's first row; the populations leave them out
    dropped_groups: tuple = ()


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


def _parse_stripped(value_cells: list, first_row: int) -> np.ndarray:
    """The values of cells that float() does not all accept as they are: each
    cell stripped and read by float(), an empty one as nan, so that its row is
    dropped and counted. The first cell that still does not parse raises
    :class:`CsvParseError` with its row number, the cells' rows being
    numbered from ``first_row``."""
    values = []
    for row, cell in enumerate(value_cells, first_row):
        text = cell.strip()
        try:
            values.append(float(text or "nan"))
        except ValueError:
            raise CsvParseError(
                f"malformed numeric value {text!r} in row {row}", row=row) from None
    return np.array(values)


# about this many characters of a file's text are split and parsed at a
# time; blocks of 32 and 64 KiB read the benchmark CSV equally fast
_BLOCK = 1 << 15
_LINE_END = re.compile(r"\r\n?|\n")


def _cells(rows: list, indices: list) -> list:
    """The cells at ``indices`` of each of ``rows``; a short row reads its
    missing cells as empty."""
    return [[row[i] if i < len(row) else "" for row in rows] for i in indices]


def _split_lines(lines: str, width: int, indices: list) -> list:
    """The cells at ``indices`` of the nonblank rows of ``lines``, whole lines
    of a file without a quote character whose header has ``width`` fields; a
    cell may carry whitespace around it, which the caller strips.

    Lines with ``\\n`` or ``\\r\\n`` ends, more than one field and the
    header's field count each, so no blank line but at their end, are split
    by one ``str.split``, with a comma put after each line break, so that a
    row's last cell ends with the line break after it. Any other lines are
    read by ``csv.reader``, which skips blank lines; in a one-field file a
    blank line would split as a row of one empty cell. Without a quote
    character both give the same cells.
    """
    body = lines.replace("\r\n", "\n") if "\r" in lines else lines
    body = body.rstrip("\n")  # the last line break, and the blank lines before it
    joined = body.replace("\n", "\n,")
    cells = joined.split(",")
    breaks = len(joined) - len(body)
    # the line breaks end every width-th cell exactly when each of the
    # breaks + 1 lines has width fields
    if (width > 1 and "\r" not in body and len(cells) == width * (breaks + 1)
            and "".join(cells[width - 1::width]).count("\n") == breaks):
        return [cells[i::width] for i in indices]
    return _cells(list(filter(None, csv.reader(io.StringIO(lines, newline="")))), indices)


def _split_columns(text: str, names: tuple):
    """The cells of the columns ``names`` of the nonblank data rows of
    ``text``, yielded one block of rows at a time as a list of each column's
    cells.

    A file without a quote character has a row on each line. After its
    header line, its text is cut into blocks of whole lines, each running to
    the first ``\\n`` at least ``_BLOCK`` characters on, and each block is
    split by :func:`_split_lines`. A file with a quote character, where a
    quoted cell may span lines, is read by one ``csv.reader`` over its whole
    text, and its rows are taken in blocks of about ``_BLOCK`` characters.

    Each cell is a Python string, and the cells of a file of short rows take
    about 200 bytes a row, 9 times its size. Beside the text (and the
    reader's own copy of it, for a file with a quote character), this holds
    the cells of one block at a time: about 0.3 MB for a block of two-column
    rows, whatever the size of the file.
    """
    if '"' in text:
        stream = io.StringIO(text, newline="")
        reader = csv.reader(stream)
        header = next(reader, None)
        indices = [_column_index(header, name) for name in names]
        rows, end = [], stream.tell() + _BLOCK
        for row in filter(None, reader):
            rows.append(row)
            if stream.tell() >= end:
                yield _cells(rows, indices)
                rows, end = [], stream.tell() + _BLOCK
        yield _cells(rows, indices)
        return
    line_end = _LINE_END.search(text)
    header_end, start = line_end.span() if line_end else (len(text), len(text))
    header = text[:header_end].split(",") if header_end else []  # csv.reader's [] for ""
    indices = [_column_index(header, name) for name in names]
    while start < len(text):
        end = text.find("\n", start + _BLOCK - 1) + 1 or len(text)  # find gives -1 for none
        yield _split_lines(text[start:end], len(header), indices)
        start = end


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
    float array, in order of each label's first kept row; the report names
    the groups whose every row was dropped.

    The rows are split, parsed and coded in blocks (:func:`_split_columns`),
    and only each block's values and group codes, 16 bytes a row, are kept
    from one block to the next. So the most a call holds is the file's
    bytes and their text while the text is decoded: about twice the size of
    a file without quote characters, whose text has one byte a character.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        text = str(memoryview(raw)[start:], "utf-8")
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path} is not UTF-8: invalid byte at offset {start + exc.start}"
                            ) from None
    del raw
    codes = _GroupCodes()
    rows_in, values, groups, dropped = 0, [], [], {}
    for value_cells, group_cells in _split_columns(text, (spec.value_column, spec.group_column)):
        try:
            # numpy converts each str with float(), which ignores the
            # whitespace around a number; str.strip also removes
            # U+001C-U+001F, which float() rejects, so such a cell is read
            # again stripped, as an empty cell is
            block = np.array(value_cells, dtype=float)
        except ValueError:
            block = _parse_stripped(value_cells, rows_in + 2)  # row 1 is the header
        rows_in += len(value_cells)
        if spec.transform == "log":
            # the C library's log, whose bits estimates keep; a value that is
            # not positive becomes -inf or nan, and its row is dropped
            block = _reversed_log(block) if _reversed_log_is_libm() else _libm_log(block)
        keep = np.isfinite(block)
        if not keep.all():
            dropped.update(dict.fromkeys(map(str.strip, compress(group_cells, (~keep).tolist()))))
            group_cells = list(compress(group_cells, keep.tolist()))
            block = block[keep]
        values.append(block)
        groups.append(np.fromiter(map(codes.__getitem__, group_cells), np.intp, len(group_cells)))
    del text
    if not codes.labels:
        raise EmptyGroupError("no usable rows in any group")
    values, groups = np.concatenate(values), np.concatenate(groups)
    # numpy's stable sort is a radix sort on 8- and 16-bit keys
    keys = groups.astype(np.min_scalar_type(len(codes.labels)))
    grouped = values[np.argsort(keys, kind="stable")]
    populations = dict(zip(codes.labels,
                           np.split(grouped, np.cumsum(np.bincount(groups))[:-1])))
    return populations, IngestReport(rows_in, groups.size, rows_in - groups.size,
                                     tuple(g for g in dropped if g not in codes.labels))


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
        for i, target in enumerate(self.targets):
            if target in self.targets[:i]:  # the study keys its targets by label
                raise InvalidArgumentError(f"target {target!r} is repeated")
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
    of :func:`~drmel.errors.check_sample`'s flat float array, whose errors
    name the group. A missing group raises :class:`EmptyGroupError`."""
    if label not in populations:
        raise EmptyGroupError(f"population {label!r} not found in the data")
    return FinitePopulation(check_sample(populations[label], f"population {label!r}"))


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
