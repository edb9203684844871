import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import drmel
from drmel import DrmError, Exponential, Normal, ResampleStudy, Scenario
from drmel.cli import main, scenario_from_json
from conftest import DiesInAChild


@pytest.fixture
def data_csv(tmp_path):
    gen = np.random.default_rng(31)
    rows = ["year,revenue"]
    for year, mu in (("2015", 10.0), ("2016", 10.3)):
        n = 600 if year == "2015" else 200
        for v in np.exp(gen.normal(mu, 0.5, n)):
            rows.append(f"{year},{v:.6f}")
    path = tmp_path / "revenue.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def run_cli(args):
    return main([str(a) for a in args])


def test_estimate_drm(data_csv, tmp_path, capsys):
    out = tmp_path / "est.csv"
    code = run_cli(
        [
            "estimate", "--data", data_csv, "--value-col", "revenue",
            "--group-col", "year", "--transform", "log", "--x0", "2015",
            "--x1", "2016", "--basis", "quadratic", "--levels", "0.05,0.5",
            "--out", out,
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,method,point,std_error,ci_low,ci_high"
    assert len(lines) == 3
    level, method, point, se, lo, hi = lines[2].split(",")
    assert method == "drm"
    assert float(lo) <= float(point) <= float(hi)
    assert float(se) > 0


@pytest.mark.parametrize("method", ["drm", "parametric-normal", "empirical"])
def test_estimate_on_shuffled_rows_writes_the_same_bytes(data_csv, tmp_path, method):
    header, *rows = data_csv.read_text().splitlines()
    shuffled = tmp_path / "shuffled.csv"
    order = np.random.default_rng(3).permutation(len(rows))
    shuffled.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")
    outputs = []
    for path in (data_csv, shuffled):
        out = tmp_path / f"{path.stem}-{method}.csv"
        assert run_cli(["estimate", "--data", path, "--value-col", "revenue", "--group-col", "year",
                        "--transform", "log", "--x0", "2015", "--x1", "2016", "--method", method,
                        "--levels", "0.05,0.25,0.5,0.75,0.95", "--out", out]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("method", ["parametric-normal", "parametric-normal-common", "empirical"])
def test_estimate_other_methods(data_csv, capsys, method):
    code = run_cli(
        [
            "estimate", "--data", data_csv, "--value-col", "revenue",
            "--group-col", "year", "--transform", "log", "--x0", "2015",
            "--x1", "2016", "--method", method, "--levels", "0.5",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_estimate_unknown_group_fails(data_csv, capsys):
    code = run_cli(
        [
            "estimate", "--data", data_csv, "--value-col", "revenue",
            "--group-col", "year", "--x0", "1999", "--x1", "2016",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def scenario_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "scenario_id": "toy",
                "generator0": {"dist": "normal", "mu": 0, "sigma": 1},
                "generator1": {"dist": "normal", "mu": 0, "sigma": 1},
                "n1": 50,
                "k": 4,
                "basis": "quadratic",
                "levels": [0.5],
                "reps": 24,
                "seed": 123,
                "methods": ["drm", "empirical"],
            }
        )
    )
    return path


def test_simulate_outputs_table(scenario_json, tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(["simulate", "--scenario", scenario_json, "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scenario_id,p,method,scaled_bias,scaled_var,scaled_mse,fail_frac"
    assert len(lines) == 3
    assert lines[1].startswith("toy,0.5,drm,")


def test_simulate_byte_identical_across_runs_and_workers(scenario_json, tmp_path):
    outs = []
    for i, workers in enumerate((1, 1, 3)):
        out = tmp_path / f"t{i}.csv"
        assert run_cli(
            ["simulate", "--scenario", scenario_json, "--workers", workers, "--out", out]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_kde_grid(data_csv, tmp_path):
    out = tmp_path / "kde.csv"
    code = run_cli(
        [
            "kde", "--data", data_csv, "--value-col", "revenue", "--group-col",
            "year", "--group", "2015", "--transform", "log",
            "--grid-points", 101, "--out", out,
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 102
    dens = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(dens >= 0)
    assert dens.max() > 0.1


def _one_error_line_and_no_warning(capsys, args):
    """Runs the command of ``args`` with every warning an error; returns its stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
    return err


def test_kde_grid_that_would_overflow_is_one_error_line(tmp_path, capsys):
    # 3 bandwidths past 1.7e308 is past the float range: without a check,
    # np.linspace prints three nan,nan rows and inf,0 after two warnings
    path = tmp_path / "huge.csv"
    path.write_text("g,v\na,5\na,1\na,1.7e308\nb,1\n")
    out = tmp_path / "kde.csv"
    err = _one_error_line_and_no_warning(capsys, [
        "kde", "--data", path, "--value-col", "v", "--group-col", "g", "--group", "a",
        "--grid-points", 4, "--out", out])
    assert err.startswith("error: the KDE grid of group 'a', its range [1, 1.7e+308] ")
    assert not out.exists()


def test_study_whose_scaled_errors_overflow_is_one_error_line(tmp_path, capsys):
    # errors of order 1e200 square past the float range: without a check the
    # row reads a scaled_var and scaled_mse of inf with fail_frac 0
    path = tmp_path / "huge.csv"
    path.write_text("g,v\na,1\na,2\na,3\na,1e200\nb,1\nb,2\nb,1e200\n")
    err = _one_error_line_and_no_warning(capsys, [
        "study", "--data", path, "--value-col", "v", "--group-col", "g", "--base", "a",
        "--targets", "b", "--n0", 4, "--n", 3, "--reps", 20, "--methods", "empirical",
        "--levels", "0.95"])
    assert err == "error: the scaled errors of empirical at level 0.95 overflow in n0=4,n=3\n"


_CELLS = st.one_of(
    st.sampled_from(["0", "-0.0", "1", "-1", "2", "3.5", "1e300", "-1e300", "1e-300", "5e-324",
                     "1.7e308", "-1.7e308", "nan", "inf", ""]),
    st.floats(-1e3, 1e3).map(repr),
)
_GROUP = st.lists(_CELLS, min_size=1, max_size=40)


def _finite_or_failed(command, out):
    """Whether every number ``command`` printed is finite; a study row whose
    fail_frac is 1 has no estimate, so its NaNs pass."""
    for line in out.splitlines()[1:]:
        numbers = []
        for cell in line.split(","):
            try:
                numbers.append(float(cell))
            except ValueError:  # a method name, or a part of a study's scenario_id
                pass
        if not (command == "study" and numbers[-1] == 1) and not all(map(np.isfinite, numbers)):
            return False
    return True


@given(a=_GROUP, b=_GROUP, log=st.booleans(), method=st.sampled_from(
           ["drm", "drm-linear", "parametric-normal", "parametric-normal-common",
            "parametric-exponential", "empirical"]),
       points=st.integers(1, 5), n0=st.integers(1, 7), n=st.integers(1, 5))
@example(a=["5", "1", "1.7e308"], b=["1"], log=False, method="drm", points=4, n0=4, n=3)
@example(a=["1", "2", "3", "1e200"], b=["1", "2", "1e200"], log=False, method="empirical",
         points=4, n0=4, n=3)
def test_every_csv_command_prints_finite_numbers_or_one_error_line(
        tmp_path_factory, a, b, log, method, points, n0, n):
    path = tmp_path_factory.getbasetemp() / "two-groups.csv"
    path.write_text("g,v\n" + "".join(f"{g},{cell}\n" for g, cells in (("a", a), ("b", b))
                                      for cell in cells))
    csv = ["--data", path, "--value-col", "v", "--group-col", "g",
           "--transform", "log" if log else "none"]
    for args in (["estimate", *csv, "--x0", "a", "--x1", "b", "--method", method],
                 ["kde", *csv, "--group", "a", "--grid-points", points],
                 ["study", *csv, "--base", "a", "--targets", "b", "--n0", n0, "--n", n,
                  "--reps", 5, "--levels", "0.05,0.5,0.95"]):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = run_cli(args)
        out, err = out.getvalue(), err.getvalue()
        errors = [line for line in err.splitlines() if not line.startswith("# dropped ")]
        if code == 0:
            assert errors == [] and _finite_or_failed(args[0], out), (args, out)
        else:
            assert code == 1 and len(errors) == 1 and errors[0].startswith("error:"), (args, err)


def test_study_end_to_end(data_csv, tmp_path):
    out = tmp_path / "study.csv"
    code = run_cli(
        [
            "study", "--data", data_csv, "--value-col", "revenue",
            "--group-col", "year", "--transform", "log", "--base", "2015",
            "--targets", "2016", "--n0", 300, "--n", 60, "--reps", 20,
            "--levels", "0.25,0.5", "--methods",
            "drm-linear,parametric-normal,parametric-normal-common,empirical", "--out", out,
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "scenario_id,p,method,scaled_bias,abs_bias,scaled_var,scaled_mse,fail_frac"
    )
    # 2 levels x 4 methods
    assert len(lines) == 9


def test_study_without_methods_runs_the_study_default_methods(data_csv, capsys):
    # and without --levels, the study's default levels
    assert run_cli(_study_args(data_csv, "--n0", 30, "--n", 10, "--reps", 2)) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    default = ResampleStudy(base="2015", targets=("2016",), n0_grid=(30,), n_grid=(10,))
    # p and method are the seventh and sixth columns from the end: the
    # scenario_id holds a comma
    assert [(float(row.split(",")[-7]), row.split(",")[-6]) for row in rows] == [
        (p, method) for p in default.levels for method in default.methods]


def test_study_has_no_basis_flag(data_csv, capsys):
    # a study names the basis in the method, drm-<basis>
    with pytest.raises(SystemExit) as exit_:
        run_cli(_study_args(data_csv, "--n0", 30, "--n", 10, "--reps", 2, "--basis", "linear"))
    assert exit_.value.code == 2
    assert "unrecognized arguments: --basis linear" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--n", 0), ("--n", -3), ("--n0", 0)])
def test_study_rejects_sample_sizes_below_one(data_csv, capsys, flag, value):
    args = [
        "study", "--data", data_csv, "--value-col", "revenue",
        "--group-col", "year", "--base", "2015", "--targets", "2016", "--reps", 2,
    ]
    for name, size in {"--n0": 300, "--n": 60, flag: value}.items():
        args += [name, size]
    code = run_cli(args)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda obj: obj.update(basis="cubic"), "'cubic'"),
        (lambda obj: obj.pop("n1"), "'n1'"),
        (lambda obj: obj["generator1"].pop("sigma"), "'sigma'"),
        (lambda obj: obj.update(methods=["drm", "emprical"]),
         "'emprical'; known: drm, drm-linear,"),
        (lambda obj: obj.update(methods="empirical"), "methods must be a sequence, not str"),
        (lambda obj: obj.update(methods={"drm": 1}), "methods must be a sequence, not dict"),
        (lambda obj: obj.update(levels="0.5"), "levels must be a sequence, not str"),
        (lambda obj: obj.update(bases="linear"), "Scenario has no key 'bases'"),
        (lambda obj: obj.update(rep=10), "Scenario has no key 'rep'"),
        (lambda obj: obj["generator0"].update(mean=2), "Normal has no key 'mean'"),
        (lambda obj: obj.update(k="5"), "k must be a real number in (0, inf), got '5'"),
        (lambda obj: obj.update(k=True), "k must be a real number in (0, inf), got True"),
        (lambda obj: obj["generator1"].update(sigma=True), "sigma must be a real number"),
        (lambda obj: obj["generator0"].update(mu="1e3"), "mu must be a real number"),
        (lambda obj: obj.update(levels=["0.5"]), "quantile level must be a real number"),
        (lambda obj: obj.update(scenario_id=7), "scenario_id must be a str, got 7"),
        (lambda obj: obj["generator1"].update(sigma=0),
         "error: generator1: sigma must be a real number in (0, inf), got 0\n"),
        (lambda obj: obj.update(levels=[0.5, "0.9"]),
         "error: levels[1]: quantile level must be a real number in (0, 1), got '0.9'\n"),
    ],
    ids=["unknown-basis", "missing-n1", "missing-generator-field", "unknown-method",
         "methods-a-string", "methods-an-object", "levels-a-string", "misspelt-basis-key",
         "misspelt-reps-key", "mean-of-a-normal", "k-a-string", "k-true", "sigma-true",
         "mu-a-string", "level-a-string", "scenario-id-a-number", "generator-sigma-zero",
         "second-level-a-string"],
)
def test_simulate_rejects_a_malformed_scenario(scenario_json, capsys, edit, named):
    obj = json.loads(scenario_json.read_text())
    edit(obj)
    scenario_json.write_text(json.dumps(obj))
    assert run_cli(["simulate", "--scenario", scenario_json]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda obj: [obj], "got list"),
        (lambda obj: {**obj, "generator0": {**obj["generator0"], "mu": "abc"}},
         "mu must be a real number"),
        (lambda obj: {**obj, "levels": 0.5}, "levels must be a sequence"),
    ],
    ids=["top-level-list", "mu-not-a-number", "levels-not-a-list"],
)
def test_simulate_rejects_a_scenario_of_the_wrong_shape(scenario_json, capsys, edit, named):
    scenario_json.write_text(json.dumps(edit(json.loads(scenario_json.read_text()))))
    assert run_cli(["simulate", "--scenario", scenario_json]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_study_asking_for_drm_is_told_the_known_methods(data_csv, capsys):
    # a study has no scenario basis, so plain "drm" is unknown there
    code = run_cli(["study", "--data", data_csv, "--value-col", "revenue", "--group-col", "year",
                    "--base", "2015", "--targets", "2016", "--n0", 30, "--n", 10, "--reps", 2,
                    "--methods", "drm,empirical"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown method 'drm'; known: drm-linear, drm-quadratic,")


def test_estimate_with_a_family_tag_is_told_the_known_methods(data_csv, capsys):
    # --method takes the engine's names, parametric-normal and so on, and
    # knows plain "drm" because estimate has a --basis
    assert run_cli(_estimate_args(data_csv, "--method", "normal")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown method 'normal'; known: drm, drm-linear,")


def _scenario_json(tmp_path, **fields):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({**VALID_SCENARIO, **fields}))
    return path


def _latin1_csv(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("year,revenue\n2015,1.5\n2016,2.5\nMünchen,3.5\n".encode("latin-1"))
    return path


VALID_SCENARIO = {
    "generator0": {"dist": "normal", "mu": 0, "sigma": 1},
    "generator1": {"dist": "exponential", "mean": 2},
    "n1": 10,
    "k": 2,
    "levels": [0.5],
    "reps": 3,
    "methods": ["drm", "empirical"],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=3),
    max_leaves=8,
)
SCENARIO_KEYS = [*VALID_SCENARIO, "basis", "seed", "scenario_id", "rep"]  # rep is no field


@st.composite
def scenario_objects(draw):
    """A valid scenario object with some keys, or some generator keys, replaced by
    arbitrary JSON values, a key that is no field among them; or an arbitrary
    JSON value."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    values = st.floats() | st.integers() | JSON_VALUES  # mostly numbers, as most fields are
    obj = {**VALID_SCENARIO, **draw(st.dictionaries(st.sampled_from(SCENARIO_KEYS), values,
                                                    max_size=2))}
    for name in ("generator0", "generator1"):
        if isinstance(obj[name], dict) and draw(st.booleans()):
            fields = st.sampled_from(["dist", "mu", "sigma", "mean"])
            obj[name] = {**obj[name], **draw(st.dictionaries(fields, values, max_size=2))}
    return obj


@given(obj=scenario_objects())
@example(obj={**VALID_SCENARIO, "k": 1e308})
@example(obj={**VALID_SCENARIO, "k": float("inf")})
@example(obj={**VALID_SCENARIO, "generator0": {"dist": "normal", "mu": float("inf"), "sigma": 1}})
@example(obj={**VALID_SCENARIO, "n1": 10**400})
def test_any_json_value_gives_a_scenario_or_a_typed_error(obj):
    obj = json.loads(json.dumps(obj))
    try:
        scenario = scenario_from_json(obj)
    except DrmError:
        return
    assert isinstance(scenario, Scenario)
    # every key the reader accepted is a field of what it built
    for keys, built in [(obj, scenario), (obj["generator0"], scenario.generator0),
                        (obj["generator1"], scenario.generator1)]:
        assert set(keys) - {"dist"} <= {f.name for f in dataclasses.fields(built)}


def test_a_scenario_of_the_required_keys_is_the_scenario_of_those_fields():
    required = {key: VALID_SCENARIO[key] for key in ("generator0", "generator1", "n1", "k")}
    assert scenario_from_json(required) == Scenario(
        generator0=Normal(0.0, 1.0), generator1=Exponential(2.0), n1=10, k=2.0)


def test_estimate_names_a_point_outside_the_log_domain_by_value(tmp_path, capsys):
    path = tmp_path / "negative.csv"
    path.write_text("year,revenue\n2015,2.5\n2015,-1.5\n2016,3.5\n")
    assert run_cli(["estimate", "--data", path, "--value-col", "revenue", "--group-col", "year",
                    "--x0", "2015", "--x1", "2016", "--basis", "linear-log"]) == 1
    assert capsys.readouterr().err == (
        "error: log undefined at x=-1.5, index 0 of the pooled sample "
        "(the base sample first, each sample ascending)\n")


def _estimate_args(data_csv, *extra):
    return ["estimate", "--data", data_csv, "--value-col", "revenue", "--group-col", "year",
            "--transform", "log", "--x0", "2015", "--x1", "2016", *extra]


def test_estimate_writes_the_method_name_it_was_given(data_csv, tmp_path):
    # drm-linear says which basis made the estimate; drm under --basis linear keeps "drm"
    outs = {}
    for method in ("drm-linear", "drm"):
        out = tmp_path / f"{method}.csv"
        assert run_cli(_estimate_args(data_csv, "--method", method, "--basis", "linear",
                                      "--out", out)) == 0
        outs[method] = out.read_text()
    methods = [line.split(",")[1] for line in outs["drm-linear"].splitlines()[1:]]
    assert methods == ["drm-linear"] * 3
    assert outs["drm-linear"] == outs["drm"].replace(",drm,", ",drm-linear,")


@pytest.mark.parametrize("method", ["drm", "parametric-normal", "empirical"])
@pytest.mark.parametrize("ci", ["1.5", "0", "1"])
def test_estimate_rejects_a_ci_level_outside_the_unit_interval(data_csv, tmp_path, capsys,
                                                                method, ci):
    out = tmp_path / "est.csv"
    code = run_cli(_estimate_args(data_csv, "--method", method, "--ci-level", ci, "--out", out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ci_level" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        lambda csv, tmp: _estimate_args(csv, "--levels", "0.5,abc"),
        lambda csv, tmp: ["study", "--data", csv, "--value-col", "revenue", "--group-col", "year",
                          "--base", "2015", "--targets", "2016", "--n0", 30, "--n", 10,
                          "--reps", 2, "--levels", "0.5,abc"],
        lambda csv, tmp: ["kde", "--data", csv, "--value-col", "revenue", "--group-col", "year",
                          "--group", "2015", "--grid-points", -1],
        lambda csv, tmp: _estimate_args(tmp / "missing.csv"),
        lambda csv, tmp: ["simulate", "--scenario", tmp / "missing.json"],
        lambda csv, tmp: ["simulate", "--scenario", csv],
        lambda csv, tmp: _estimate_args(_latin1_csv(tmp), "--method", "empirical"),
        lambda csv, tmp: _estimate_args(csv, "--levels", ","),
        lambda csv, tmp: ["study", "--data", csv, "--value-col", "revenue", "--group-col", "year",
                          "--base", "2015", "--targets", "2016", "--n0", 30, "--n", 10,
                          "--reps", 2, "--levels", ","],
        lambda csv, tmp: ["simulate", "--scenario", _scenario_json(tmp, levels=[])],
        lambda csv, tmp: ["simulate", "--scenario", _scenario_json(tmp, methods=[])],
        lambda csv, tmp: ["simulate", "--scenario", _scenario_json(tmp, k=1e-12, n1=10)],
        lambda csv, tmp: ["simulate", "--scenario", _scenario_json(tmp), "--workers", 0],
        lambda csv, tmp: ["study", "--data", csv, "--value-col", "revenue", "--group-col", "year",
                          "--base", "2015", "--targets", "2016", "--n0", 30, "--n", 10,
                          "--reps", 2, "--workers", -2],
        lambda csv, tmp: _estimate_args(csv, "--method", "normal"),
        lambda csv, tmp: ["simulate", "--scenario", _scenario_json(tmp, reps=True)],
        lambda csv, tmp: ["simulate", "--scenario", _scenario_json(tmp, seed=False)],
        lambda csv, tmp: ["simulate", "--scenario", _scenario_json(tmp, n1=1)],
    ],
    ids=["estimate-levels", "study-levels", "kde-grid-points", "missing-data",
         "missing-scenario", "scenario-not-json", "latin1-data", "estimate-no-levels",
         "study-no-levels", "scenario-no-levels", "scenario-no-methods", "scenario-empty-base",
         "simulate-no-workers", "study-negative-workers", "estimate-old-method-name",
         "scenario-true-reps", "scenario-false-seed", "scenario-n1-below-2"],
)
def test_bad_input_exits_with_an_error_line(data_csv, tmp_path, capsys, args):
    assert run_cli(args(data_csv, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_a_dead_pool_worker_is_one_error_line(scenario_json, monkeypatch, capfd):
    import drmel.cli
    import drmel.simulate

    monkeypatch.setattr(drmel.simulate.os, "cpu_count", lambda: 2)  # a pool opens on one core too
    monkeypatch.setattr(drmel.cli, "scenario_from_json", lambda obj: dataclasses.replace(
        scenario_from_json(obj), generator0=DiesInAChild(0.0, 1.0)))
    assert run_cli(["simulate", "--scenario", scenario_json, "--workers", 2]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: a worker of the process pool died")
    assert err.endswith("(--workers 1) runs every replicate in this process\n")
    assert err.count("\n") == 1


def test_an_interrupt_is_one_line_and_exit_130(scenario_json, monkeypatch, capsys):
    import drmel.cli

    def interrupted(scenario, workers):
        raise KeyboardInterrupt

    monkeypatch.setattr(drmel.cli, "run_scenario", interrupted)
    assert run_cli(["simulate", "--scenario", scenario_json]) == 130
    assert capsys.readouterr() == ("", "interrupted\n")


# the command line of its arguments, which says on stdout when drmel is
# imported; os.cpu_count is 2, so a pool opens on one core too
_CLI_AFTER_IMPORT = """
import os, sys
from drmel.cli import main
os.cpu_count = lambda: 2
print("started", flush=True)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("reps", [
    12_800,  # some seconds of work
    200_000,  # a chunk of 1/64 of the replicates would take some seconds alone
], ids=["12800-reps", "200000-reps"])
def test_ctrl_c_across_a_pool_is_one_line_and_exit_130(tmp_path, reps):
    # replicates of 10 500 rows at 2 workers
    scenario = _scenario_json(tmp_path, n1=500, k=20, reps=reps)
    src = str(Path(drmel.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", _CLI_AFTER_IMPORT, "simulate", "--scenario",
                             str(scenario), "--workers", "2"],
                            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        assert proc.stdout.readline() == "started\n"
        time.sleep(1.0)  # the pool is running
        os.killpg(proc.pid, signal.SIGINT)  # to the whole process group, as Ctrl-C sends it
        start = time.monotonic()
        out, err = proc.communicate(timeout=60)
        waited = time.monotonic() - start
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, out, err) == (130, "", "interrupted\n")
    assert waited < 2.0


# the command line of its arguments, run with an address space of 2 GiB,
# set by the child on itself before it imports drmel
_CLI_IN_2_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))
from drmel.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _study_args(data_csv, *extra):
    return ["study", "--data", data_csv, "--value-col", "revenue", "--group-col", "year",
            "--base", "2015", "--targets", "2016", *extra]


_TOO_MANY_REPS = "cannot hold the estimates of 1 cells x 1000000000000 reps x "


def _kde_args(data_csv, points):
    return ["kde", "--data", data_csv, "--value-col", "revenue", "--group-col", "year",
            "--group", "2015", "--grid-points", points]


def _too_large(n0, n):
    return f"cannot hold a base sample of {n0} points and target samples of {n} points in memory\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (lambda csv, tmp: ["simulate", "--scenario", _scenario_json(tmp, reps=10**12)],
         _TOO_MANY_REPS),
        (lambda csv, tmp: _study_args(csv, "--n0", 30, "--n", 10, "--reps", 10**12),
         _TOO_MANY_REPS),
        *[(lambda csv, tmp, w=workers: ["simulate", "--scenario",
                                        _scenario_json(tmp, n1=10**12, k=1), "--workers", w],
           _too_large(10**12, 10**12)) for workers in (1, 2)],
        *[(lambda csv, tmp, w=workers: ["simulate", "--scenario",
                                        _scenario_json(tmp, n1=2, k=2**61), "--workers", w],
           _too_large(2**62, 2)) for workers in (1, 2)],
        *[(lambda csv, tmp, w=workers: _study_args(csv, "--n0", 10**12, "--n", 10, "--reps", 3,
                                                   "--workers", w),
           _too_large(10**12, 10)) for workers in (1, 2)],
        *[(lambda csv, tmp, w=workers: _study_args(csv, "--n0", 30, "--n", 10**12, "--reps", 3,
                                                   "--workers", w),
           _too_large(30, 10**12)) for workers in (1, 2)],
        *[(lambda csv, tmp, n=points: _kde_args(csv, n),
           f"cannot hold a grid of {points} points in memory\n") for points in (10**9, 2**63 - 1)],
    ],
    ids=["simulate-reps", "study-reps", "simulate-n1-workers1", "simulate-n1-workers2",
         "simulate-k-workers1", "simulate-k-workers2", "study-n0-workers1", "study-n0-workers2",
         "study-n-workers1", "study-n-workers2", "kde-grid-points", "kde-grid-points-max"],
)
def test_a_run_too_large_to_hold_is_one_error_line_before_any_replicate(data_csv, tmp_path,
                                                                        args, message):
    # never run without the limit: a regression would exhaust the machine's memory
    src = str(Path(drmel.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _CLI_IN_2_GIB,
                           *map(str, args(data_csv, tmp_path))],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: " + message)
    assert done.stderr.count("\n") == 1, done.stderr


# a two-cell study at 2 workers whose first cell fits and whose second is too
# large to sample, run with an address space of 2 GiB; prints the error's
# type, the type of its cause and its message
_GRID_IN_2_GIB = """
import os, resource
resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))
import numpy as np
from drmel import ResampleStudy, run_resample_study
os.cpu_count = lambda: 2
study = ResampleStudy(base="a", targets=["b"], n0_grid=(30, 10**12), n_grid=(10,), reps=3)
try:
    run_resample_study(study, {"a": np.arange(1.0, 41.0), "b": np.arange(1.0, 21.0)}, workers=2)
except Exception as exc:
    print(type(exc).__name__, type(exc.__cause__).__name__, exc, sep="|")
"""


def test_a_later_cell_too_large_is_the_error_a_pool_worker_sends_back():
    # never run without the limit: a regression would exhaust the machine's memory
    src = str(Path(drmel.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _GRID_IN_2_GIB],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    # the cause is the worker's traceback, which concurrent.futures attaches
    assert done.stdout == "|".join(["InvalidArgumentError", "_RemoteTraceback",
                                    _too_large(10**12, 10)])


def test_kde_reports_dropped_rows(tmp_path, capsys):
    path = tmp_path / "gaps.csv"
    path.write_text("year,revenue\n2015,1.0\n2015,\n2015,2.5\n2015,4.0\n")
    assert run_cli(["kde", "--data", path, "--value-col", "revenue", "--group-col", "year",
                    "--group", "2015", "--grid-points", 5]) == 0
    captured = capsys.readouterr()
    assert captured.err == "# dropped 1 of 4 rows\n"
    assert len(captured.out.splitlines()) == 6
