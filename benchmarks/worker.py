"""Workload process of the drmel benchmark.

Started by ``run.py``; not meant to be run by hand. It imports drmel from
the checkout's ``src``, makes one untimed warm-up op, and then, by mode:

* ``setup``: stops there;
* ``measure``: runs ops back to back (a closed loop with one caller) for
  ``--seconds``, timing a calibration kernel between ops, then checks that
  variant 0 gives the same bytes at one and two workers;
* ``trace``: alternates untraced and traced ops at one worker (and, for a
  workload with a process pool, untraced ops at its ``pool_workers`` too).

It prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from common import DEFAULT_SEED, SRC, WORK, machine_info


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append("; ".join(problems[:3]))


def timed_op(workload, variant: int, workers: int, tally: Tally, tracer=None):
    """Run and check one op; return its latency in seconds, or None if it raised."""
    if tracer is not None:
        tracer.op += 1
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = workload.run(variant, workers)
    except Exception:
        tally.record([traceback.format_exc(limit=3).strip().splitlines()[-1]])
        return None
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    tally.record(workload.check(out, variant))
    return dt


class Calibration:
    """A fixed kernel, timed next to every op to read the host's current speed.

    Its mix is drmel's: numpy over 100k rows (a weighted normal-equations
    solve, as in a fit; a sort and a search, as in a quantile read-off) and
    plain Python (parsing CSV lines, as in ``ingest_csv``, and a loop, as in
    per-replicate and CLI overhead). While the host is busy, Python code
    slows down more than numpy code, so both parts are needed to track all
    three workloads. It uses no drmel code, so a change to drmel does not
    move it.
    """

    def __init__(self):
        a = np.random.default_rng(0xCA1).normal(size=100_000)
        self.a = a
        self.x = np.column_stack([np.ones_like(a), a, a * a])
        self.lines = [f"g{i % 3},{float(v)!r}" for i, v in enumerate(np.exp(a[:4000]))]

    def __call__(self) -> float:
        a, x = self.a, self.x
        t0 = time.perf_counter()
        for _ in range(2):
            w = np.exp(-0.5 * a * a)
            np.linalg.solve(x.T @ (x * w[:, None]), x.T @ w)
            np.searchsorted(np.sort(a), a[:2000])
        sums = {}
        for line in self.lines:
            group, value = line.split(",")
            sums[group] = sums.get(group, 0.0) + float(value)
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        return time.perf_counter() - t0


def measure(workload, seconds: float, tally: Tally) -> dict:
    """Run ops back to back for ``seconds``. Returns each op's latency, and
    its latency relative to the mean of the calibration runs just before
    and just after it."""
    calibrate = Calibration()
    latencies, relative, calibrations = [], [], [calibrate()]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        dt = timed_op(workload, i % workload.variants, workload.workers, tally)
        calibrations.append(calibrate())
        if dt is not None:
            latencies.append(dt)
            relative.append(dt / (0.5 * (calibrations[-2] + calibrations[-1])))
        i += 1
        if time.perf_counter() >= deadline:
            break
    try:
        problems = workload.determinism_problems()
    except Exception:
        problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    if problems is not None:
        tally.record(problems)
    return {"latencies_s": latencies, "relative": relative, "calibrations_s": calibrations}


def trace(workload, seconds: float, tally: Tally, label: str) -> dict:
    from spans import Tracer, layer_metrics, layer_self_ms

    tracer = Tracer()
    pool_workers = workload.params.get("pool_workers")
    own, pooled, traced = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        v = i % workload.variants
        runs = [(own, 1, None), (traced, 1, tracer)]
        if pool_workers:
            runs.insert(1, (pooled, pool_workers, None))
        for into, workers, tr in runs:
            dt = timed_op(workload, v, workers, tally, tr)
            if dt is not None:
                into.append(dt)
        i += 1
        if time.perf_counter() >= deadline:
            break
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{label}.jsonl")

    ops, reps = len(traced), len(traced) * workload.reps_per_op
    metrics = layer_metrics(tracer, ops, reps)
    metrics["pipeline.parallel_speedup"] = (
        statistics.median(own) / statistics.median(pooled) if own and pooled else 0.0
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(own) - 1.0 if traced and own else 0.0
    )
    self_ms = layer_self_ms(tracer)
    accounting = {
        "layer_self_ms_per_rep": {k: v / reps for k, v in sorted(self_ms.items())} if reps else {},
        "accounted_ms_per_rep": sum(self_ms.values()) / reps if reps else 0.0,
        "traced_ms_per_rep": 1e3 * sum(traced) / reps if reps else 0.0,
        "untraced_ms_per_rep": (
            1e3 * statistics.fmean(own) / workload.reps_per_op if own else 0.0
        ),
        "ops": {"untraced": len(own), "untraced_pool": len(pooled), "traced": len(traced)},
    }
    return {"per_layer": metrics, "accounting": accounting}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import drmel

    if Path(drmel.__file__).resolve().parent != (SRC / "drmel").resolve():
        print(f"error: drmel imported from {drmel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOAD_CLASSES

    with_reference = args.seed == DEFAULT_SEED and args.scale == "full"
    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.scale, with_reference)
    tally = Tally()
    timed_op(workload, 0, workload.workers, tally)  # warm-up
    result = {"setup_s": time.monotonic() - args.t0}

    if args.mode == "measure":
        result.update(measure(workload, args.seconds, tally))
    elif args.mode == "trace":
        label = f"{args.workload}-{args.scale}-seed{args.seed}"
        result.update(trace(workload, args.seconds, tally, label))
    result.update(
        reps_per_op=workload.reps_per_op,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_info(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
