"""Workload parameters, seeded inputs and machine facts for the drmel benchmark.

Nothing here imports drmel: the orchestrator (``run.py``) uses this module
to make inputs before any workload process starts.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
REFERENCE_DIR = BENCH_DIR / "reference"

# Outputs at this seed are compared with reference/<workload>.json.
DEFAULT_SEED = 0

# Every workload process runs single-threaded BLAS/OpenMP: numpy here links
# threaded OpenBLAS, and study-csv already runs two worker processes on two
# cores, so BLAS threads would oversubscribe the machine.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

TABLE1 = "table1-normal-k100"
ESTIMATE = "estimate-cli"
STUDY = "study-csv"
WORKLOADS = (TABLE1, ESTIMATE, STUDY)

# Group labels of the synthetic CSV and the log-normal (mu, sigma) of each.
CSV_GROUPS = {"base": (10.0, 0.8), "t1": (10.3, 0.9), "t2": (9.8, 0.7)}

# "full" is the benchmark; "tiny" runs the same code paths in a few seconds
# for the smoke test, and has no stored reference. Ops cycle through
# "variants" inputs: replicates differ in fit iterations, so many variants
# keep the op-time distribution the same from seed to seed. Timed ops run
# in one process ("workers": 1); study-csv's process pool runs at
# "pool_workers" in the determinism check and in the traced pass, which
# reports its speed-up.
SCALES = {
    "full": {
        "csv_rows": {"base": 20_000, "t1": 2_000, "t2": 2_000},
        TABLE1: {
            "n1": 1000, "k": 100, "levels": (0.01, 0.05, 0.5),
            "methods": ("drm", "parametric-normal", "empirical"),
            "reps": 3, "variants": 32, "workers": 1,
        },
        ESTIMATE: {"levels": "0.05,0.1,0.25,0.5,0.75,0.9,0.95", "variants": 1, "workers": 1},
        STUDY: {
            "n0": 5000, "n": 500, "levels": "0.01,0.05,0.5,0.95",
            "reps": 16, "variants": 16, "workers": 1, "pool_workers": 2,
        },
    },
    "tiny": {
        "csv_rows": {"base": 400, "t1": 100, "t2": 100},
        TABLE1: {
            "n1": 50, "k": 10, "levels": (0.05, 0.5),
            "methods": ("drm", "parametric-normal", "empirical"),
            "reps": 2, "variants": 2, "workers": 1,
        },
        ESTIMATE: {"levels": "0.1,0.5,0.9", "variants": 1, "workers": 1},
        STUDY: {
            "n0": 100, "n": 30, "levels": "0.05,0.5",
            "reps": 3, "variants": 2, "workers": 1, "pool_workers": 2,
        },
    },
}


def variant_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the inputs a workload cycles through, derived from ``seed``."""
    state = np.random.SeedSequence([seed, 0xD4E1]).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def csv_groups(seed: int, scale: str) -> dict[str, np.ndarray]:
    """Raw (untransformed) values of each CSV group for ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC5F0]))
    rows = SCALES[scale]["csv_rows"]
    return {
        g: np.exp(rng.normal(mu, sigma, rows[g])) for g, (mu, sigma) in CSV_GROUPS.items()
    }


def csv_path(seed: int, scale: str) -> Path:
    return WORK / f"groups-{scale}-seed{seed}.csv"


def write_csv(seed: int, scale: str) -> Path:
    """Write the grouped CSV for ``seed``, rows in a seeded shuffled order."""
    groups = csv_groups(seed, scale)
    labels = np.concatenate([np.full(v.size, g) for g, v in groups.items()])
    values = np.concatenate(list(groups.values()))
    order = np.random.default_rng(np.random.SeedSequence([seed, 0x0DE7])).permutation(values.size)
    path = csv_path(seed, scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write("group,value\n")
        for i in order:
            fh.write(f"{labels[i]},{float(values[i])!r}\n")
    os.replace(tmp, path)
    return path


def machine_info() -> dict:
    """Facts that numbers from this benchmark must be quoted with."""
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


# End-to-end metrics in the result line: name -> unit. BENCHMARK.json holds
# their bounds. Latency is gated relative to a calibration kernel timed just
# before and just after each op (worker.Calibration): on a shared 2-vCPU VM
# the same op runs up to 1.6x slower while the host is busy, and the busy
# share changes from minute to minute. So latency in ms moves between runs
# of the same code several times as much as latency relative to the kernel
# does; README.md gives the spreads measured.
END_TO_END = {
    "cmd_p50_rel": "x",
    "cmd_p90_rel": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Measured and printed with the end-to-end metrics, in ms as a user sees
# them, but kept out of the result line and so not gated.
PRINTED_ONLY = {
    "reps_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "calibration_p50_ms": "ms",
}

# Per-layer metrics: name -> unit. BENCHMARK.json says which direction is
# better. Every traced run reports all of them; a layer the workload does not
# call reads 0.
PER_LAYER = {
    "simulate.sample.ms_per_call": "ms/call",
    "simulate.run_scenario.self_ms_per_rep": "ms/rep",
    "basis.evaluate_matrix.calls_per_op": "calls/op",
    "basis.evaluate_matrix.ms_per_op": "ms/op",
    "fit.fit_mele.calls_per_op": "calls/op",
    "fit.fit_mele.ms_per_call": "ms/call",
    "fit.iterations_mean": "iters/fit",
    "fit.rows_per_call": "rows/call",
    "fit.row_iters_per_s": "row-iters/s",
    "fit.converged_ratio": "fits/fit",
    "estimators.estimate_g1.calls_per_op": "calls/op",
    "estimators.estimate_g1.ms_per_call": "ms/call",
    "estimators.drm_quantile_estimate.calls_per_op": "calls/op",
    "estimators.drm_quantile_estimate.self_ms_per_call": "ms/call",
    "estimators.avar_quantile.ms_per_call": "ms/call",
    "nonparametric.kde_density.ms_per_call": "ms/call",
    "nonparametric.silverman_bandwidth.ms_per_call": "ms/call",
    "parametric.fit_parametric.calls_per_op": "calls/op",
    "parametric.fit_parametric.ms_per_call": "ms/call",
    "pipeline.ingest_csv.ms_per_call": "ms/call",
    "pipeline.ingest_csv.rows_per_s": "rows/s",
    "pipeline.run_resample_study.self_ms_per_rep": "ms/rep",
    "pipeline.task_bytes": "B/task",
    "pipeline.parallel_speedup": "x",
    "cli.main.self_ms_per_op": "ms/op",
    "trace.overhead_frac": "fraction",
}
