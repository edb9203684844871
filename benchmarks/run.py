"""Run one workload of the drmel benchmark and print its metrics.

    python3 benchmarks/run.py --workload table1-normal-k100 --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it imports drmel from ``src/`` there.
Inputs are made from ``--seed``. With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics from a separate traced pass. Human-readable lines come first; the
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A full report and the spans go to ``benchmarks/.work/``.
See ``benchmarks/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import (
    BENCH_DIR, END_TO_END, PER_LAYER, PRINTED_ONLY, SCALES, SRC, TABLE1, THREAD_PINS, WORK, WORKLOADS, write_csv,
)

# Set-up is timed in this many fresh workload processes per run (the last
# one goes on to measure), and the median is reported.
SETUP_RUNS = 5
# A run that hangs is killed and fails before the 180 s a run may take.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    """Start one workload process, wait for it until ``deadline`` (a
    time.monotonic() value), and return its JSON result."""
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(SRC)}
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(time.monotonic()),
    ]
    # A new session, so that on timeout or interrupt the worker's own pool
    # processes are killed with it.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} process still running at the {RUN_LIMIT_S:.0f} s limit") from None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{mode} process printed no result") from None


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    runs = [spawn(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
    main = spawn(args, "measure", deadline)
    runs.append(main)
    lat_ms = [1e3 * t for t in main["latencies_s"]]
    if not lat_ms:
        raise BenchError("no op completed: " + " | ".join(main["problems"]))
    values = {
        "cmd_p50_rel": statistics.median(main["relative"]),
        "cmd_p90_rel": quantile(main["relative"], 90),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": main["peak_rss_mb"],
        "reps_per_s": main["reps_per_op"] * len(lat_ms) / (sum(lat_ms) / 1e3),
        "cmd_p50_ms": statistics.median(lat_ms),
        "cmd_p90_ms": quantile(lat_ms, 90),
        "calibration_p50_ms": 1e3 * statistics.median(main["calibrations_s"]),
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    report = {
        "printed_only": {k: {"value": values[k], "unit": u} for k, u in PRINTED_ONLY.items()},
        "setup_s_runs": [r["setup_s"] for r in runs],
        "timed_ops": len(lat_ms),
        "reps_per_op": main["reps_per_op"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "machine": main["machine"],
    }
    return metrics, report


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    res = spawn(args, "trace", deadline)
    metrics = {k: {"value": res["per_layer"][k], "unit": unit} for k, unit in PER_LAYER.items()}
    report = {
        "accounting": res["accounting"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "problems": res["problems"],
        "machine": res["machine"],
    }
    return metrics, report


def print_report(args, metrics: dict, report: dict):
    m = report["machine"]
    print(f"drmel benchmark: workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']!r} "
          f"threads={','.join(f'{k}={v}' for k, v in m['thread_pins'].items())}")
    fail_frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"ops: attempted {report['attempted']}, failed {report['failed']}, "
          f"fail_frac {fail_frac:.4g}")
    if "timed_ops" in report:
        print(f"timed ops: {report['timed_ops']} (latency percentiles over these), "
              f"{report['reps_per_op']} rep(s) per op")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, m in report.get("printed_only", {}).items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}  (printed only, not gated)")
    acc = report.get("accounting")
    if acc:
        print("self time per rep by layer (ms): "
              + ", ".join(f"{k}={v:.3f}" for k, v in acc["layer_self_ms_per_rep"].items()))
        print(f"accounted {acc['accounted_ms_per_rep']:.3f} ms/rep of traced "
              f"{acc['traced_ms_per_rep']:.3f}; untraced {acc['untraced_ms_per_rep']:.3f} ms/rep "
              f"(ops: {acc['ops']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="'tiny' shrinks every input, for the smoke test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # On SIGTERM, exit through spawn's cleanup, which kills the workload
    # process and its pool.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "drmel" / "__init__.py").is_file():
        print(f"error: no drmel sources at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.workload != TABLE1:
        write_csv(args.seed, args.scale)
    try:
        metrics, report = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print_report(args, metrics, report)
    label = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    with open(WORK / f"BENCH_{label}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "scale": args.scale,
                   "seconds": args.seconds, "params": SCALES[args.scale][args.workload],
                   "metrics": metrics, **report}, fh, indent=1)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
