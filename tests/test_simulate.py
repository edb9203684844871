import io
import math

import numpy as np
import pytest
from scipy.stats import norm

from drmel import (
    BasisSpec,
    DrmError,
    Exponential,
    InvalidArgumentError,
    InvalidLevelError,
    Normal,
    Scenario,
    corollary_curve,
    run_scenario,
)
from conftest import DiesInAChild


def small_scenario(**overrides):
    kwargs = dict(
        generator0=Normal(0.0, 1.0),
        generator1=Normal(0.0, 1.0),
        n1=60,
        k=5,
        basis=BasisSpec.quadratic(),
        levels=(0.1, 0.5),
        reps=30,
        seed=99,
        methods=("drm", "parametric-normal", "empirical"),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def test_true_quantile_values():
    assert Normal(0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert Exponential(2.0).quantile(0.5) == pytest.approx(2 * math.log(2), rel=1e-12)
    expected = 1.0 + float(norm.ppf(0.05)) * math.sqrt(1.5)
    assert expected == pytest.approx(-1.0146, abs=2e-4)
    assert Normal(1.0, math.sqrt(1.5)).quantile(0.05) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(InvalidLevelError):
        Normal(0, 1).quantile(1.5)


def test_quantile_density_and_parametric_avar():
    assert Normal(0, 2).density_at_quantile(0.5) == pytest.approx(float(norm.pdf(0)) / 2)
    assert Exponential(1.0).density_at_quantile(0.99) == pytest.approx(0.01, rel=1e-12)
    assert Normal(0, 1).quantile_avar(0.5) == 1.0
    assert Exponential(1.0).quantile_avar(0.99) == pytest.approx(21.2076, abs=1e-3)


def test_corollary_curve_monotone_toward_parametric_limit():
    curve = corollary_curve(Normal(0, 1), 0.01, [1, 10, 100, 1e6])
    assert np.all(np.diff(curve) < 0)
    assert curve[-1] == pytest.approx(3.70595, abs=1e-4)


def test_corollary_curve_endpoints():
    g = Normal(0, 1).density_at_quantile(0.5)
    emp = 0.5 * 0.5 / g**2
    assert emp == pytest.approx(math.pi / 2, rel=1e-12)
    curve = corollary_curve(Normal(0, 1), 0.5, [1e-9, 1.0, 1e9])
    assert curve[0] == pytest.approx(math.pi / 2, rel=1e-6)
    assert curve[1] == pytest.approx((math.pi / 2 + 1.0) / 2, rel=1e-12)
    assert curve[2] == pytest.approx(1.0, rel=1e-6)


def test_determinism_same_seed():
    t1 = run_scenario(small_scenario())
    t2 = run_scenario(small_scenario())
    assert t1.rows == t2.rows


def test_determinism_across_worker_counts():
    t1 = run_scenario(small_scenario(), workers=1)
    t3 = run_scenario(small_scenario(), workers=3)
    assert t1.rows == t3.rows


def test_mse_decomposition_identity():
    table = run_scenario(small_scenario())
    for r in table.rows:
        assert r.scaled_mse >= r.scaled_var - 1e-9
        assert r.scaled_mse == pytest.approx(
            r.scaled_var + r.scaled_bias**2, rel=1e-6, abs=1e-9
        )


def test_single_replicate_zero_variance():
    table = run_scenario(small_scenario(reps=1))
    for r in table.rows:
        assert r.scaled_var == 0.0
        assert math.isfinite(r.scaled_bias)


def test_a_sample_pair_that_is_not_valid_data_fails_every_method_of_its_target():
    # A non-finite draw makes the target's pair invalid, so every method of
    # that target fails, the empirical quantile of x1 alone too; the other
    # target of the replicate is estimated as usual.
    from drmel.pipeline import FinitePopulation
    from drmel.simulate import _replicate, _resolve_methods

    rng = np.random.default_rng(5)
    targets = {"finite": FinitePopulation(rng.normal(size=50)),
               "infinite": FinitePopulation(np.array([0.5, math.inf]))}
    methods = _resolve_methods(("drm-linear", "parametric-normal", "empirical"))
    state = (3, FinitePopulation(rng.normal(size=200)), targets, [("cell", 100, 30)], 1,
             methods, (0.1, 0.5))
    estimates = _replicate(state, (0, 0))
    assert estimates.shape == (2, 3, 2)
    assert np.isfinite(estimates[0]).all() and np.isnan(estimates[1]).all()


def test_every_method_fits_a_model_whose_estimate_is_its_quantile():
    # the engine reads model.quantile(p) and drmel estimate prints
    # model.estimate(p, ci_level): both points come from one place
    from drmel import TwoSampleData
    from drmel.simulate import _ESTIMATORS, _resolve_methods

    rng = np.random.default_rng(11)
    data = TwoSampleData(x0=Exponential(1.0).ppf(rng.random(120)),
                         x1=Exponential(1.4).ppf(rng.random(40)))
    methods = _resolve_methods(("drm", *_ESTIMATORS), BasisSpec.linear())
    assert len(methods) == len(_ESTIMATORS) + 1
    for name, fitter in methods:
        model = fitter(data)
        for p in (0.05, 0.3, 0.5, 0.9):
            assert model.estimate(p, 0.9).point == model.quantile(p), (name, p)


def test_exponential_method_requires_exponential_generators():
    with pytest.raises(InvalidArgumentError):
        small_scenario(methods=("parametric-exponential",))


def test_unknown_method_rejected_at_construction():
    with pytest.raises(InvalidArgumentError, match="emprical"):
        small_scenario(methods=("drm", "emprical"))


def test_a_pool_worker_that_dies_raises_a_typed_error(monkeypatch):
    import drmel.simulate

    monkeypatch.setattr(drmel.simulate.os, "cpu_count", lambda: 2)  # a pool opens on one core too
    scenario = small_scenario(generator0=DiesInAChild(0.0, 1.0), reps=4)
    assert run_scenario(scenario, workers=1).row(0.5, "drm").fail_frac == 0.0
    with pytest.raises(DrmError, match=r"process pool died .* workers=1 \(--workers 1\)") as err:
        run_scenario(scenario, workers=2)
    assert type(err.value) is DrmError


def test_unpicklable_basis_with_workers_raises_typed_error(monkeypatch):
    import drmel.simulate

    monkeypatch.setattr(drmel.simulate.os, "cpu_count", lambda: 2)  # a pool opens on one core too
    scenario = small_scenario(basis=BasisSpec.custom([lambda x: x]), methods=("drm",), reps=2)
    assert run_scenario(scenario, workers=1).row(0.5, "drm").fail_frac == 0.0
    with pytest.raises(InvalidArgumentError, match="workers=1"):
        run_scenario(scenario, workers=2)


def test_pool_is_sized_by_the_replicates(monkeypatch):
    import drmel.simulate

    requested = []

    class RecordingPool:
        """Records the pool size asked for and starts no process."""

        def __init__(self, *args, **kwargs):
            requested.append(args[0] if args else kwargs.get("max_workers"))
            raise RuntimeError("no pool in this test")

    monkeypatch.setattr(drmel.simulate, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(drmel.simulate.os, "cpu_count", lambda: 3)
    for reps in (2, 5):
        with pytest.raises(RuntimeError, match="no pool"):
            run_scenario(small_scenario(reps=reps), workers=64)
    assert requested == [2, 3]  # capped by the replicates, then by the CPUs
    monkeypatch.setattr(drmel.simulate.os, "cpu_count", lambda: None)  # unknown: one worker
    run_scenario(small_scenario(reps=5), workers=64)
    assert requested == [2, 3]


def test_scenario_validation():
    with pytest.raises(InvalidArgumentError):
        small_scenario(reps=0)
    with pytest.raises(InvalidArgumentError):
        small_scenario(k=-1)
    with pytest.raises(InvalidArgumentError):
        small_scenario(k=0.123)  # k * n1 not an integer
    with pytest.raises(InvalidLevelError):
        small_scenario(levels=(0.0,))


def test_csv_output_schema():
    table = run_scenario(small_scenario(reps=5))
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "scenario_id,p,method,scaled_bias,scaled_var,scaled_mse,fail_frac"
    assert len(lines) == 1 + 2 * 3  # two levels, three methods

    buf = io.StringIO()
    table.to_csv(buf, include_abs_bias=True)
    assert "abs_bias" in buf.getvalue().splitlines()[0]


def test_exponential_scenario_runs():
    table = run_scenario(
        small_scenario(
            generator0=Exponential(1.0),
            generator1=Exponential(1.0),
            basis=BasisSpec.linear(),
            levels=(0.5,),
            methods=("drm", "parametric-exponential", "empirical"),
            reps=20,
        )
    )
    for r in table.rows:
        assert r.fail_frac <= 0.05
        assert math.isfinite(r.scaled_var)
