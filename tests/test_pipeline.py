from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from drmel import (
    ColumnSpec,
    CsvParseError,
    EmptyGroupError,
    InvalidArgumentError,
    ResampleStudy,
    ingest_csv,
    run_resample_study,
)


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


def test_ingest_log_transform_drops_nonpositive(csv_file):
    path = csv_file(["2015,1.0", "2015,0.0", "2015,-3.0", "2016,7.389056"])
    pops, report = ingest_csv(path, ColumnSpec("revenue", "year", transform="log"))
    np.testing.assert_allclose(pops["2015"], [0.0])
    np.testing.assert_allclose(pops["2016"], [2.0], rtol=1e-6)
    assert report.rows_dropped == 2
    assert report.rows_in == report.rows_used + report.rows_dropped


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


def test_study_unknown_population():
    study = ResampleStudy(
        base="nope", targets=("t",), n0_grid=(10,), n_grid=(5,), levels=(0.5,), reps=1
    )
    with pytest.raises(EmptyGroupError):
        run_resample_study(study, {"t": np.arange(10.0)})


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

    monkeypatch.setattr(drmel.simulate, "ProcessPoolExecutor", CountingPool)
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

    from drmel import BasisSpec, TwoSampleData, avar_theta, fit_mele
    from drmel.simulate import replicate_rng

    betas, ses = [], []
    spec = BasisSpec.linear()
    for r in range(60):
        rng = replicate_rng(7, r)
        x0 = pop[rng.integers(0, pop.size, 800)]
        x1 = pop[rng.integers(0, pop.size, 800)]
        data = TwoSampleData(x0=x0, x1=x1)
        fit = fit_mele(data, spec)
        betas.append(fit.theta_hat[1])
        ses.append(np.sqrt(avar_theta(fit, data, spec)[1, 1] / data.n1))
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
