"""Smoke test of the benchmark: every workload, at a tiny size, end-to-end
and traced, passes its output checks and emits every metric that
BENCHMARK.json names, with its unit.

    python3 -m pytest benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must read above 0 on each workload: those of the
# layers it calls.
_FIT = ["fit.fit_mele.calls_per_op", "fit.fit_mele.ms_per_call", "fit.iterations_mean",
        "fit.rows_per_call", "fit.row_iters_per_s", "fit.converged_ratio",
        "basis.evaluate_matrix.calls_per_op", "basis.evaluate_matrix.ms_per_op",
        "estimators.estimate_g1.calls_per_op", "estimators.estimate_g1.ms_per_call"]
_CSV = ["pipeline.ingest_csv.ms_per_call", "pipeline.ingest_csv.rows_per_s", "cli.main.self_ms_per_op"]
_PARAMETRIC = ["parametric.fit_parametric.calls_per_op", "parametric.fit_parametric.ms_per_call"]
USED = {
    "table1-normal-k100": _FIT + _PARAMETRIC + [
        "simulate.sample.ms_per_call", "simulate.run_scenario.self_ms_per_rep"],
    "estimate-cli": _FIT + _CSV + [
        "estimators.drm_quantile_estimate.calls_per_op",
        "estimators.drm_quantile_estimate.self_ms_per_call",
        "estimators.avar_quantile.ms_per_call",
        "nonparametric.kde_density.ms_per_call",
        "nonparametric.silverman_bandwidth.ms_per_call"],
    "study-csv": _FIT + _CSV + _PARAMETRIC + [
        "pipeline.run_resample_study.self_ms_per_rep", "pipeline.task_bytes",
        "pipeline.parallel_speedup"],
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    for name in USED[workload] if trace else ():
        assert result["metrics"][name]["value"] > 0, name


def test_fails_without_drmel_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "estimate-cli", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_reference_tolerance_rejects_a_changed_pick():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import _diff_against_reference

    ref = "level,method,point\n0.5,drm,10.12345678\n"
    assert _diff_against_reference("level,method,point\n0.5,drm,10.12345679\n", ref) == []
    # the smallest gap between neighbouring pooled points at a pick of the
    # default seed is about 2e-7 of the value
    assert _diff_against_reference("level,method,point\n0.5,drm,10.12345878\n", ref)
    assert _diff_against_reference("level,method,point\n0.5,empirical,10.12345678\n", ref)
