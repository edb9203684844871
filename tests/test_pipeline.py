import codecs
import csv
import math
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drmel import (
    ColumnSpec,
    CsvParseError,
    DrmError,
    Ecdf,
    EmptyGroupError,
    InvalidArgumentError,
    ResampleStudy,
    empirical_quantile,
    ingest_csv,
    run_resample_study,
)
from drmel import pipeline
from drmel.pipeline import FinitePopulation, IngestReport


@pytest.fixture
def csv_file(tmp_path):
    def write(rows, header="year,revenue"):
        path = tmp_path / "data.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    return write


def test_ingest_groups(csv_file):
    path = csv_file(["2015,1.0", "2015,2.0", "2016,3.0"])
    pops, report = ingest_csv(path, ColumnSpec("revenue", "year"))
    assert sorted(pops) == ["2015", "2016"]
    np.testing.assert_array_equal(pops["2015"], [1.0, 2.0])
    assert report.rows_in == 3 and report.rows_used == 3 and report.rows_dropped == 0


def test_ingest_reads_a_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes("year,revenue\r\n2015,1.0\r\n2016,2.0\r\n".encode("utf-8-sig"))
    pops, report = ingest_csv(path, ColumnSpec("revenue", "year"))
    assert list(pops) == ["2015", "2016"] and report.rows_used == 2


def test_ingest_reads_quoted_labels(csv_file):
    path = csv_file(['"Big Ten, East",1.5', '"Big Ten, East",2.5', 'SEC,"3"', '"say ""hi""",4'])
    pops, report = ingest_csv(path, ColumnSpec("revenue", "year"))
    assert list(pops) == ["Big Ten, East", "SEC", 'say "hi"']
    np.testing.assert_array_equal(pops["Big Ten, East"], [1.5, 2.5])
    assert report.rows_in == 4 and report.rows_dropped == 0


def _row_loop_ingest(path, spec):
    """The per-row loop ingest_csv ran before its columnar rewrite, kept as the
    reference; it now opens the file as utf-8-sig, like ingest_csv."""
    groups = {}
    rows_in = dropped = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        columns = {name: [i for i, cell in enumerate(header or ()) if cell == name]
                   for name in (spec.value_column, spec.group_column)}
        for name, found in columns.items():
            if not found:
                raise CsvParseError(f"missing column {name!r}")
        vi, gi = columns[spec.value_column][-1], columns[spec.group_column][-1]
        for row in reader:
            if not row:
                continue
            rows_in += 1
            raw = row[vi].strip() if vi < len(row) else ""
            try:
                value = float(raw) if raw else math.nan
            except ValueError:
                i = rows_in + 1
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
    return populations, (rows_in, rows_in - dropped, dropped)


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(1e-3, 1e6).map(lambda v: f"{v:.6g}"),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1_000", "+1", "-0.0", "0", "-3",
                     " 2.5 ", "\xa07\xa0", "", "  "]),
    # logs that numpy's AVX-512 log rounds differently from math.log
    st.sampled_from(["1.00024", "0.9999999999999998"]),
    # Unicode spaces and digits, which float() reads as they stand, and
    # U+001F, which str.strip removes and float() rejects
    st.sampled_from(["\u20032.5\u2003", "\u30003\u3000", "\u0661\u0662\u0663", "\x1f4\x1f"]),
)
MALFORMED_CELLS = st.sampled_from(["abc", "1e400x", "1__0", "--1", "1,5"])
PLAIN_LABELS = ["2015", "2016", " 2016 ", "Zürich", "東京", ""]
QUOTED_LABELS = ["Big Ten, East", 'say "hi"', "two\nlines"]


@st.composite
def csv_texts(draw):
    """A CSV text over the columns v, g and x; a long row's extra cells are x
    cells. Two texts in five need no quoting and have no ragged or
    whitespace-only rows, so that the bulk split reads them."""
    header = draw(st.permutations(["v", "g", *draw(st.lists(st.sampled_from("vgx"), max_size=2))]))
    kind = draw(st.sampled_from(["regular", "regular", "ragged", "quoted", "mixed"]))
    quoted, ragged = kind in ("quoted", "mixed"), kind in ("ragged", "mixed")
    quote_all = quoted and draw(st.booleans())
    labels = PLAIN_LABELS + QUOTED_LABELS if quoted else PLAIN_LABELS
    values = draw(st.sampled_from([NUMBER_CELLS, st.one_of(NUMBER_CELLS, MALFORMED_CELLS)]))
    cells = {"v": values, "g": st.sampled_from(labels), "x": st.sampled_from(labels)}
    blanks = ["", " ", "\t"] if ragged else [""]
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 7)) == 0:  # a blank or whitespace-only line
            lines.append(draw(st.sampled_from(blanks)))
            continue
        width = len(header) + (draw(st.integers(-len(header), 1)) if ragged else 0)
        lines.append([draw(cells[name]) for name in (header + ["x"] * width)[:width]])

    def field(cell):
        if quote_all or any(c in cell for c in ',"\r\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(ln if isinstance(ln, str) else ",".join(map(field, ln)) for ln in lines)
    return text + (eol if draw(st.booleans()) else "")


def _ingest_outcome(ingest, path, spec):
    try:
        pops, report = ingest(path, spec)
    except DrmError as exc:
        return type(exc).__name__, getattr(exc, "row", None), str(exc)
    if not isinstance(report, tuple):
        report = (report.rows_in, report.rows_used, report.rows_dropped)
    return [(label, v.dtype.str, v.tobytes()) for label, v in pops.items()], report


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=300)
@given(text=csv_texts(), bom=st.booleans(), transform=st.sampled_from(["none", "log"]))
def test_ingest_matches_the_row_loop(tmp_path, text, bom, transform):
    path = tmp_path / "generated.csv"
    path.write_bytes(text.encode("utf-8-sig" if bom else "utf-8"))
    spec = ColumnSpec("v", "g", transform)
    assert _ingest_outcome(ingest_csv, path, spec) == _ingest_outcome(_row_loop_ingest, path, spec)


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_ingest_names_the_first_byte_that_is_not_utf8(tmp_path, bom):
    body = "year,revenue\n2015,1.5\nMünchen,2.5\n".encode("latin-1")
    path = tmp_path / "latin1.csv"
    path.write_bytes(bom + body)
    with pytest.raises(CsvParseError) as err:
        ingest_csv(path, ColumnSpec("revenue", "year"))
    offset = len(bom) + body.index("ü".encode("latin-1"))
    assert str(path) in str(err.value) and f"offset {offset}" in str(err.value)


def test_ingest_log_transform_drops_nonpositive(csv_file):
    path = csv_file(["2015,1.0", "2015,0.0", "2015,-3.0", "2016,7.389056"])
    pops, report = ingest_csv(path, ColumnSpec("revenue", "year", transform="log"))
    np.testing.assert_allclose(pops["2015"], [0.0])
    np.testing.assert_allclose(pops["2016"], [2.0], rtol=1e-6)
    assert report.rows_dropped == 2
    assert report.rows_in == report.rows_used + report.rows_dropped


# logs that numpy's SIMD loop rounds differently from math.log, subnormals,
# signed zeros, negatives and non-finite cells
_LOG_EDGE_ROWS = ["a,1.00024", "a,0.9999999999999998", "a,5e-324", "a,1e-310",
                  "a,2.2250738585072014e-308", "a,-0.0", "a,0", "a,-3", "a,nan", "a,inf",
                  "b,-inf", "b,1.7976931348623157e308", "b,1.5", "b,-1e-300", "b,2.0", "b,"]


def test_ingest_log_fallback_gives_the_fast_paths_bytes(csv_file, monkeypatch):
    path = csv_file(_LOG_EDGE_ROWS, header="group,value")
    spec = ColumnSpec("value", "group", transform="log")
    fast, fast_report = ingest_csv(path, spec)
    monkeypatch.setattr(pipeline, "_reversed_log_is_libm", lambda: False)
    slow, slow_report = ingest_csv(path, spec)
    assert fast_report == slow_report == IngestReport(16, 8, 8)
    assert list(fast) == list(slow) == ["a", "b"]
    for label in fast:
        assert fast[label].tobytes() == slow[label].tobytes()


def _libm_logs(values):
    return np.fromiter(map(math.log, values.tolist()), float, values.size)


def test_the_reversed_log_is_math_log_bit_for_bit():
    if not pipeline._reversed_log_is_libm():
        pytest.skip("the reversed log does not match libm here, so ingest_csv uses math.log")
    gen = np.random.default_rng(32)
    values = np.concatenate([
        gen.uniform(0, 2, 500_000)[1:],
        1 + gen.uniform(-1e-3, 1e-3, 300_000),
        10 ** gen.uniform(-300, 300, 300_000),
        [5e-324, 1e-310, 2.2250738585072014e-308, 1.00024, 0.9999999999999998,
         1.7976931348623157e308],
    ])
    assert values.size >= 10**6 and (values > 0).all()
    assert pipeline._reversed_log(values).tobytes() == _libm_logs(values).tobytes()


def test_the_log_probe_has_teeth(monkeypatch):
    probe = np.linspace(*pipeline._LOG_PROBE)
    if np.log(probe).tobytes() == _libm_logs(probe).tobytes():
        pytest.skip("contiguous np.log matches libm on the probe here")
    # a loop that rounds as contiguous np.log does fails the check
    monkeypatch.setattr(pipeline, "_reversed_log", np.log)
    assert not pipeline._reversed_log_is_libm.__wrapped__()


def test_ingest_missing_cells_dropped(csv_file):
    path = csv_file(["2015,1.0", "2015,", "2016,2.0"])
    pops, report = ingest_csv(path, ColumnSpec("revenue", "year"))
    assert report.rows_dropped == 1
    assert pops["2015"].size == 1


def test_ingest_malformed_cell_names_row(csv_file):
    path = csv_file(["2015,1.0", "2015,abc"])
    with pytest.raises(CsvParseError) as err:
        ingest_csv(path, ColumnSpec("revenue", "year"))
    assert err.value.row == 3  # header is row 1


def test_ingest_missing_column(csv_file):
    path = csv_file(["2015,1.0"])
    with pytest.raises(CsvParseError):
        ingest_csv(path, ColumnSpec("price", "year"))


def test_ingest_empty(csv_file):
    path = csv_file(["2015,"])
    with pytest.raises(EmptyGroupError):
        ingest_csv(path, ColumnSpec("revenue", "year"))


def test_ingest_blank_lines_are_skipped_and_not_numbered(csv_file):
    path = csv_file(["2015,1.0", "", "2016,2.0", "", ""])
    pops, report = ingest_csv(path, ColumnSpec("revenue", "year"))
    assert report.rows_in == 2 and report.rows_dropped == 0
    path = csv_file(["", "2015,1.0", "", "2015,x"])
    with pytest.raises(CsvParseError) as err:
        ingest_csv(path, ColumnSpec("revenue", "year"))
    assert err.value.row == 3
    # in a one-field file a blank line has the header's field count
    path = csv_file(["1.0", "", "2.0", "", "x"], header="revenue")
    with pytest.raises(CsvParseError) as err:
        ingest_csv(path, ColumnSpec("revenue", "revenue"))
    assert err.value.row == 4
    path = csv_file(["1.0", "", "2.0", ""], header="revenue")
    pops, report = ingest_csv(path, ColumnSpec("revenue", "revenue"))
    assert report.rows_in == 2 and list(pops) == ["1.0", "2.0"]


def test_ingest_short_rows_read_empty_cells(csv_file):
    path = csv_file(["2015,1.0,a", "2015", "2016,2.0", " 2016 ,3.0,b,extra"], header="year,revenue,note")
    pops, report = ingest_csv(path, ColumnSpec("revenue", "year"))
    assert report.rows_in == 4 and report.rows_dropped == 1
    np.testing.assert_array_equal(pops["2016"], [2.0, 3.0])
    path = csv_file(["1.0", "2.0,2016"], header="revenue,year")
    pops, _ = ingest_csv(path, ColumnSpec("revenue", "year"))
    np.testing.assert_array_equal(pops[""], [1.0])


def test_ingest_malformed_row_number_counts_dropped_rows(csv_file):
    path = csv_file(["2015,", "2015,0", "2015,nan", "2015,1e400x"])
    with pytest.raises(CsvParseError) as err:
        ingest_csv(path, ColumnSpec("revenue", "year", transform="log"))
    assert err.value.row == 5


def test_ingest_ragged_rows_that_add_up_to_whole_rows(csv_file):
    path = csv_file(["2015,1.0,a", "2016", "2017,3.0"])
    pops, report = ingest_csv(path, ColumnSpec("revenue", "year"))
    assert list(pops) == ["2015", "2017"] and report.rows_dropped == 1


@pytest.mark.parametrize("dropped, transform", [(None, "none"), ("", "none"), ("nan", "none"),
                                                ("0", "log")],
                         ids=["none-dropped", "empty", "nan", "log-nonpositive"])
def test_ingest_orders_labels_by_their_first_kept_row(csv_file, dropped, transform):
    # 2016's first row is dropped, and every row of 2017
    rows = ["2015,1.0", " 2016 ,2.0", "2015,4.0"]
    if dropped is not None:
        rows = [f"2016,{dropped}", f"2017,{dropped}", *rows, "2017,"]
    pops, report = ingest_csv(csv_file(rows), ColumnSpec("revenue", "year", transform))
    assert list(pops) == ["2015", "2016"]
    read = math.log if transform == "log" else float
    np.testing.assert_array_equal(pops["2015"], [read(1.0), read(4.0)])
    np.testing.assert_array_equal(pops["2016"], [read(2.0)])
    assert report == IngestReport(len(rows), 3, len(rows) - 3)


def test_ingest_duplicate_header_reads_last_column(csv_file):
    path = csv_file(["2015,1.0,2.0"], header="year,revenue,revenue")
    pops, _ = ingest_csv(path, ColumnSpec("revenue", "year"))
    np.testing.assert_array_equal(pops["2015"], [2.0])


def synthetic_populations(seed=5, n_base=4000, n_target=1500):
    gen = np.random.default_rng(seed)
    return {
        "base": gen.exponential(1.0, n_base),
        "t1": gen.exponential(1.0, n_target),
        "t2": gen.exponential(1.1, n_target),
    }


def test_study_structure_and_mse_identity():
    pops = {"base": np.arange(20.0), "t": np.arange(10.0)}
    study = ResampleStudy(
        base="base",
        targets=("t",),
        n0_grid=(30,),
        n_grid=(8,),
        levels=(0.25, 0.5),
        methods=("drm-linear", "empirical"),
        reps=50,
        seed=1,
    )
    table = run_resample_study(study, pops)
    assert len(table.rows) == 2 * 2
    for r in table.rows:
        assert r.scenario_id == "n0=30,n=8"
        assert r.scaled_mse == pytest.approx(
            r.scaled_var + r.scaled_bias**2, rel=1e-6, abs=1e-9
        )
        assert r.abs_bias >= abs(r.scaled_bias) - 1e-12


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60), data=st.data())
def test_finite_population_quantile_is_the_type1_empirical_quantile(values, data):
    n = len(values)
    # levels on the grid k/n are where the type-1 quantile steps
    p = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                  | st.integers(1, max(n - 1, 1)).map(lambda k: k / n).filter(lambda p: p < 1))
    expected = empirical_quantile(Ecdf.from_sample(values), p)
    assert FinitePopulation(np.array(values)).quantile(p) == expected


def test_study_unknown_population():
    study = ResampleStudy(
        base="nope", targets=("t",), n0_grid=(10,), n_grid=(5,), levels=(0.5,), reps=1
    )
    with pytest.raises(EmptyGroupError):
        run_resample_study(study, {"t": np.arange(10.0)})


def _one_rep_study():
    return ResampleStudy(base="base", targets=("t",), n0_grid=(10,), n_grid=(5,), levels=(0.5,),
                         methods=("empirical",), reps=1)


@pytest.fixture
def no_replicates(monkeypatch):
    """Fails a study that gets as far as its first replicate."""
    def fail(*args, **kwargs):
        raise AssertionError("a replicate ran")
    monkeypatch.setattr(pipeline, "_run_replicates", fail)


def test_study_reads_a_list_population_as_an_array():
    study = _one_rep_study()
    base = np.arange(1.0, 21.0)
    listed = run_resample_study(study, {"base": base.tolist(), "t": [1, 2, 3, 4, 5]})
    arrays = run_resample_study(study, {"base": base, "t": np.arange(1.0, 6.0)})
    assert listed.rows == arrays.rows


@pytest.mark.parametrize("label", ["base", "t"])
def test_study_rejects_an_empty_population(no_replicates, label):
    pops = {"base": np.arange(20.0), "t": np.arange(10.0), label: np.array([])}
    with pytest.raises(EmptyGroupError, match=f"population '{label}' is empty"):
        run_resample_study(_one_rep_study(), pops)


@pytest.mark.parametrize("values, shape", [(np.ones((3, 2)), "of shape (3, 2)"),
                                           (np.float64(2.0), "of shape ()"),
                                           ([[1.0, 2.0], [3.0]], "ragged")],
                         ids=["2d", "0d", "ragged"])
def test_study_rejects_a_population_that_is_not_1d(no_replicates, values, shape):
    pops = {"base": np.arange(20.0), "t": values}
    message = f"population 't' must be 1-D, not {shape}"
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        run_resample_study(_one_rep_study(), pops)


@pytest.mark.parametrize("values", [["1.5", "2.5"], [1.0, None], [True, False]],
                         ids=["str", "none", "bool"])
def test_study_rejects_a_population_that_is_not_numeric(no_replicates, values):
    pops = {"base": values, "t": np.arange(10.0)}
    with pytest.raises(InvalidArgumentError, match="population 'base' must hold real numbers"):
        run_resample_study(_one_rep_study(), pops)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_study_rejects_a_population_that_is_not_finite(no_replicates, bad):
    pops = {"base": np.arange(20.0), "t": np.array([1.0, bad, 3.0])}
    with pytest.raises(InvalidArgumentError, match="population 't' must be finite"):
        run_resample_study(_one_rep_study(), pops)


def test_study_determinism_across_workers():
    pops = synthetic_populations(n_base=400, n_target=200)
    study = ResampleStudy(
        base="base",
        targets=("t1", "t2"),
        n0_grid=(200,),
        n_grid=(40,),
        levels=(0.5,),
        methods=("drm-linear", "empirical"),
        reps=16,
        seed=11,
    )
    t1 = run_resample_study(study, pops)
    t2 = run_resample_study(study, pops, workers=2)
    assert t1.rows == t2.rows


def test_study_grid_runs_in_one_pool(monkeypatch):
    import drmel.simulate

    opened = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(drmel.simulate.os, "cpu_count", lambda: 2)  # a pool opens on one core too
    pops = synthetic_populations(n_base=400, n_target=200)
    study = ResampleStudy(
        base="base",
        targets=("t1", "t2"),
        n0_grid=(100, 200),
        n_grid=(20, 40),
        levels=(0.5,),
        methods=("drm-linear", "empirical"),
        reps=6,
        seed=4,
    )
    pooled = run_resample_study(study, pops, workers=2)
    assert len(opened) == 1
    # the populations travel once per worker, in the initializer's arguments
    assert pops["base"].tobytes() in opened[0]["initargs"][0]
    assert pooled.rows == run_resample_study(study, pops).rows
    assert len({r.scenario_id for r in pooled.rows}) == 4


def test_study_rejects_grid_sizes_below_one():
    for grids in (((0,), (5,)), ((10,), (5, 0)), ((10,), (-3,))):
        with pytest.raises(InvalidArgumentError):
            ResampleStudy(base="b", targets=("t",), n0_grid=grids[0], n_grid=grids[1],
                          levels=(0.5,), reps=1)


def test_identical_populations_center_tilt_near_zero():
    gen = np.random.default_rng(23)
    pop = gen.normal(0.0, 1.0, 2000)
    pops = {"base": pop, "t": pop}

    from drmel import BasisSpec, FittedDrm, TwoSampleData, avar_theta
    from drmel.simulate import replicate_rng

    betas, ses = [], []
    spec = BasisSpec.linear()
    for r in range(60):
        rng = replicate_rng(7, r)
        x0 = pop[rng.integers(0, pop.size, 800)]
        x1 = pop[rng.integers(0, pop.size, 800)]
        data = TwoSampleData(x0=x0, x1=x1)
        model = FittedDrm(data, spec)
        betas.append(model.fit.theta_hat[1])
        ses.append(np.sqrt(avar_theta(model)[1, 1] / data.n1))
    assert abs(np.mean(betas)) <= 3 * np.mean(ses) / np.sqrt(len(betas)) + 3 * np.std(betas) / np.sqrt(len(betas))


def test_drm_beats_empirical_on_tilted_populations():
    # populations drawn from a pair satisfying the exponential-tilt link
    pops = synthetic_populations()
    study = ResampleStudy(
        base="base",
        targets=("t1",),
        n0_grid=(2500,),
        n_grid=(100,),
        levels=(0.95,),
        methods=("drm-linear", "empirical"),
        reps=400,
        seed=3,
    )
    table = run_resample_study(study, pops, workers=2)
    drm = table.row(0.95, "drm-linear")
    emp = table.row(0.95, "empirical")
    assert drm.scaled_mse < emp.scaled_mse
