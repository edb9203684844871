"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with pytest -s to see them on success)."""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.stats import norm

from drmel import (
    BasisSpec,
    Exponential,
    Normal,
    Scenario,
    TwoSampleData,
    avar_theta,
    avar_theta_inverse_form,
    corollary_variance,
    drm_quantile,
    dual_log_el,
    estimate_g0,
    estimate_g1,
    evaluate_matrix,
    fit_mele,
    run_scenario,
    score,
)
from drmel.errors import DrmError
from drmel.simulate import replicate_rng, sample
from test_fit import finite_difference_gradient, grid_search_mele

REPS = 1000
# a table is the same at any worker count, so the Monte Carlo fixtures use the pool
WORKERS = min(2, os.cpu_count() or 1)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def table1():
    """Standard-normal pair, quadratic basis, n1=1000, n0=100*n1."""
    scenario = Scenario(
        generator0=Normal(0.0, 1.0),
        generator1=Normal(0.0, 1.0),
        n1=1000,
        k=100,
        basis=BasisSpec.quadratic(),
        levels=(0.01, 0.05, 0.5),
        reps=REPS,
        seed=20240824,
        methods=("drm", "parametric-normal", "empirical"),
        scenario_id="normal-k100",
    )
    return run_scenario(scenario, workers=WORKERS)


@pytest.fixture(scope="module")
def table3():
    """Unit-exponential pair, linear basis, n1=1000, n0=100*n1."""
    scenario = Scenario(
        generator0=Exponential(1.0),
        generator1=Exponential(1.0),
        n1=1000,
        k=100,
        basis=BasisSpec.linear(),
        levels=(0.5, 0.99),
        reps=REPS,
        seed=20240825,
        methods=("drm", "parametric-exponential", "empirical"),
        scenario_id="exponential-k100",
    )
    return run_scenario(scenario, workers=WORKERS)


@pytest.fixture(scope="module")
def corollary_tables():
    tables = {}
    for k in (10, 100):
        scenario = Scenario(
            generator0=Normal(0.0, 1.0),
            generator1=Normal(0.0, 1.0),
            n1=1000,
            k=k,
            basis=BasisSpec.quadratic(),
            levels=(0.05,),
            reps=REPS,
            seed=20240826 + k,
            methods=("drm", "parametric-normal", "empirical"),
            scenario_id=f"normal-k{k}",
        )
        tables[k] = run_scenario(scenario, workers=WORKERS)
    return tables


def test_criterion_1_derivative_oracles():
    start = time.time()
    gen = np.random.default_rng(101)
    worst_g = worst_h = 0.0
    for _ in range(20):
        n0 = int(gen.integers(3, 51))
        n1 = int(gen.integers(3, 51))
        data = TwoSampleData(x0=gen.normal(0, 1, n0), x1=gen.normal(0.2, 1.1, n1))
        spec = BasisSpec.linear() if gen.random() < 0.5 else BasisSpec.quadratic()
        theta = gen.normal(scale=0.5, size=spec.dimension)

        analytic = score(data, spec, theta)
        numeric = finite_difference_gradient(
            lambda t: dual_log_el(data, spec, t), theta, step=1e-5
        )
        worst_g = max(worst_g, np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-12)))

        from drmel import hessian

        h = hessian(data, spec, theta)
        numeric_h = np.column_stack(
            [
                finite_difference_gradient(lambda t: score(data, spec, t)[i], theta)
                for i in range(spec.dimension)
            ]
        )
        scale = np.abs(numeric_h) + 1e-10
        worst_h = max(worst_h, np.max(np.abs(h - numeric_h) / scale))
    elapsed = time.time() - start
    report(
        1,
        worst_g <= 1e-6 and worst_h <= 1e-5 and elapsed < 5.0,
        f"score rel err {worst_g:.2e} (<=1e-6), hessian rel err {worst_h:.2e} "
        f"(<=1e-5), {elapsed:.1f}s (<5s)",
    )


def test_criterion_2_brute_force_mele():
    start = time.time()
    gen = np.random.default_rng(202)
    spec = BasisSpec.linear()
    worst = 0.0
    accepted = 0
    while accepted < 10:
        n0 = int(gen.integers(2, 7))
        n1 = int(gen.integers(2, 6))
        data = TwoSampleData(
            x0=gen.normal(0, 1, n0), x1=gen.normal(0.4, 1.0, n1)
        )
        oracle = grid_search_mele(data, spec)
        if np.max(np.abs(oracle)) >= 4.9:
            # near-separated tiny samples push the maximizer off the search
            # box; draw a fresh instance instead
            continue
        fit = fit_mele(data, spec)
        worst = max(worst, float(np.max(np.abs(fit.theta_hat - oracle))))
        accepted += 1
    elapsed = time.time() - start
    # oracle resolves theta to the 1e-3 grid; Newton must land within that
    # cell plus the stated 1e-4 agreement
    report(
        2,
        worst <= 1e-3 / 2 + 1e-4 and elapsed < 30.0,
        f"max |newton - grid argmax| {worst:.2e} (<=6e-4), {elapsed:.1f}s (<30s)",
    )


def test_criterion_3_constraint_identities():
    gen = np.random.default_rng(303)
    worst_mass = worst_tilt = worst_forms = 0.0
    for _ in range(200):
        n0 = int(gen.integers(5, 60))
        n1 = int(gen.integers(5, 60))
        data = TwoSampleData(x0=gen.normal(0, 1, n0), x1=gen.normal(0.3, 1.2, n1))
        spec = BasisSpec.linear() if gen.random() < 0.5 else BasisSpec.quadratic()
        try:
            fit = fit_mele(data, spec)
        except DrmError:
            continue
        q = evaluate_matrix(spec, data.pooled())
        tilt = np.exp(q @ fit.theta_hat)
        worst_mass = max(worst_mass, abs(fit.weights.sum() - 1.0))
        worst_tilt = max(worst_tilt, abs((fit.weights * tilt).sum() - 1.0))
        a = avar_theta(fit, data, spec)
        b = avar_theta_inverse_form(fit, data, spec)
        worst_forms = max(worst_forms, float(np.max(np.abs(a - b))))
    report(
        3,
        worst_mass <= 1e-8 and worst_tilt <= 1e-8 and worst_forms <= 1e-8,
        f"max |sum p - 1| {worst_mass:.2e}, max |sum p*tilt - 1| {worst_tilt:.2e}, "
        f"max variance-form gap {worst_forms:.2e} (all <=1e-8)",
    )


@pytest.mark.slow
def test_criterion_4_table1_reproduction(table1):
    drm_001 = table1.row(0.01, "drm").scaled_var
    drm_050 = table1.row(0.5, "drm").scaled_var
    emp_050 = table1.row(0.5, "empirical").scaled_var
    ok = 3.3 <= drm_001 <= 4.6 and 0.82 <= drm_050 <= 1.12 and 1.30 <= emp_050 <= 1.80
    report(
        4,
        ok,
        f"DRM var p=0.01 {drm_001:.2f} in [3.3,4.6], p=0.5 {drm_050:.2f} in "
        f"[0.82,1.12], empirical p=0.5 {emp_050:.2f} in [1.30,1.80]",
    )


@pytest.mark.slow
def test_criterion_5_table3_reproduction(table3):
    mle = table3.row(0.99, "parametric-exponential").scaled_var
    drm = table3.row(0.99, "drm").scaled_var
    emp = table3.row(0.99, "empirical").scaled_var
    ok = 18 <= mle <= 25 and 18 <= drm <= 27 and drm <= emp / 2
    report(
        5,
        ok,
        f"MLE var p=0.99 {mle:.2f} in [18,25], DRM {drm:.2f} in [18,27] and "
        f"<= half of empirical {emp:.2f}",
    )


@pytest.mark.slow
def test_criterion_6_corollary_law(corollary_tables):
    p = 0.05
    g = Normal(0, 1).density_at_quantile(p)
    para = Normal(0, 1).quantile_avar(p)
    details = []
    ok = True
    for k, table in corollary_tables.items():
        analytic = corollary_variance(k, p, g, para)
        simulated = table.row(p, "drm").scaled_var
        within = abs(simulated - analytic) <= 0.15 * analytic
        ok = ok and within
        details.append(f"k={k}: simulated {simulated:.3f} vs analytic {analytic:.3f}")
    report(6, ok, "; ".join(details) + " (within 15%)")


@pytest.mark.slow
def test_criterion_7_efficiency_ordering(table1, table3, corollary_tables):
    paired = {
        "normal-k100": (table1, "parametric-normal"),
        "exponential-k100": (table3, "parametric-exponential"),
        "normal-k10": (corollary_tables[10], "parametric-normal"),
        "normal-k100-cor": (corollary_tables[100], "parametric-normal"),
    }
    ok = True
    worst = ""
    for name, (table, para_method) in paired.items():
        levels = sorted({r.p for r in table.rows})
        for p in levels:
            drm = table.row(p, "drm").scaled_var
            emp = table.row(p, "empirical").scaled_var
            para = table.row(p, para_method).scaled_var
            if not (drm <= emp and drm >= 0.9 * para):
                ok = False
                worst += f" [{name} p={p}: drm={drm:.2f} emp={emp:.2f} para={para:.2f}]"
    report(7, ok, "DRM var <= empirical and >= 0.9*parametric at every level" + worst)


def bahadur_remainder(n1, r):
    """Criterion 8's replicate r at n1: the remainder of the Bahadur
    representation of the DRM median of two standard-normal samples."""
    p, xi, g1_at = 0.5, 0.0, float(norm.pdf(0.0))
    gen1 = Normal(0.0, 1.0)
    spec = BasisSpec.quadratic()
    rng = replicate_rng(880000 + n1, r)
    data = TwoSampleData(x0=sample(gen1, 100 * n1, rng), x1=sample(gen1, n1, rng))
    cdf = estimate_g1(fit_mele(data, spec), data, spec)
    return drm_quantile(cdf, p) - xi - (0.5 - cdf.evaluate(xi)) / g1_at


@pytest.mark.slow
def test_criterion_8_bahadur_trend(monkeypatch):
    reps = 300
    sizes = (250, 1000, 4000)
    tasks = [(n1, r) for n1 in sizes for r in range(reps)]
    if WORKERS > 1:  # a replicate's value does not depend on the process it runs in
        # one BLAS thread per worker: WORKERS processes with a thread per core
        # each crowd the cores and gain little over one process
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
            remainders = list(pool.map(bahadur_remainder, *zip(*tasks), chunksize=10))
    else:
        remainders = list(map(bahadur_remainder, *zip(*tasks)))
    scaled_rms = []
    for i, n1 in enumerate(sizes):
        rms = float(np.sqrt(np.mean(np.square(remainders[i * reps:(i + 1) * reps]))))
        scaled_rms.append(rms * math.sqrt(n1))
    ok = scaled_rms[0] > scaled_rms[1] > scaled_rms[2]
    report(
        8,
        ok,
        "RMS(remainder)*sqrt(n1) strictly decreasing: "
        + ", ".join(f"{v:.4f}" for v in scaled_rms),
    )


def test_criterion_9_simulate_determinism(tmp_path):
    import json

    from drmel.cli import main

    scenario = {
        "scenario_id": "det",
        "generator0": {"dist": "normal", "mu": 0, "sigma": 1},
        "generator1": {"dist": "normal", "mu": 0.2, "sigma": 1},
        "n1": 80,
        "k": 5,
        "basis": "quadratic",
        "levels": [0.1, 0.5],
        "reps": 40,
        "seed": 5150,
        "methods": ["drm", "parametric-normal", "empirical"],
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    outputs = []
    for i, workers in enumerate((1, 1, 2)):
        out = tmp_path / f"out{i}.csv"
        code = main(
            ["simulate", "--scenario", str(spath), "--workers", str(workers), "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(9, ok, "repeated runs and different worker counts byte-identical")


def test_criterion_10_cdf_validity():
    gen = np.random.default_rng(1010)
    levels = (0.05, 0.5, 0.95)
    checked = 0
    for _ in range(1000):
        n0 = int(gen.integers(3, 30))
        n1 = int(gen.integers(3, 30))
        if gen.random() < 0.5:
            x0 = gen.normal(0, 1, n0)
            x1 = gen.normal(0.3, 1.1, n1)
        else:
            x0 = gen.exponential(1.0, n0)
            x1 = gen.exponential(1.4, n1)
        data = TwoSampleData(x0=x0, x1=x1)
        spec = BasisSpec.linear() if gen.random() < 0.5 else BasisSpec.quadratic()
        try:
            fit = fit_mele(data, spec)
        except DrmError:
            continue
        for cdf in (estimate_g0(fit, data, spec), estimate_g1(fit, data, spec)):
            assert np.all(cdf.mass >= 0)
            assert abs(cdf.total_mass() - 1.0) <= 1e-8
            for p in levels:
                xi = drm_quantile(cdf, p)
                assert cdf.evaluate(xi) >= p
                idx = int(np.searchsorted(cdf.support, xi, side="left"))
                below = 0.0 if idx == 0 else float(cdf.cumulative[idx - 1])
                assert below < p
        checked += 1
    report(10, checked >= 900, f"{checked} randomized fits produced valid CDFs and quantiles")
