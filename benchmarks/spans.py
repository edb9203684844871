"""Spans around the calls into each drmel layer, and per-layer metrics.

Tracing wraps public functions from the outside: while a ``Tracer`` is
installed, every drmel module attribute that refers to one of the traced
functions refers to a wrapper instead, so calls between modules (for
example ``simulate`` calling ``fit.fit_mele``) are recorded without
changing drmel. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import pickle
import statistics
import time
from collections import defaultdict

import drmel
import drmel.basis
import drmel.cli
import drmel.estimators
import drmel.fit
import drmel.nonparametric
import drmel.parametric
import drmel.pipeline
import drmel.simulate

MODULES = {
    "basis": drmel.basis,
    "fit": drmel.fit,
    "estimators": drmel.estimators,
    "nonparametric": drmel.nonparametric,
    "parametric": drmel.parametric,
    "simulate": drmel.simulate,
    "pipeline": drmel.pipeline,
    "cli": drmel.cli,
}

# layer.function pairs that get a span
TRACED = (
    "simulate.run_scenario",
    "simulate.sample",
    "basis.evaluate_matrix",
    "fit.fit_mele",
    "estimators.estimate_g1",
    "estimators.drm_quantile_estimate",
    "estimators.avar_quantile",
    "nonparametric.kde_density",
    "nonparametric.silverman_bandwidth",
    "parametric.fit_parametric",
    "pipeline.ingest_csv",
    "pipeline.run_resample_study",
    "cli.main",
)

class Tracer:
    """Records (id, name, start, end, parent id, op id) spans and facts
    about results: fit iterations, convergence and rows, CSV rows read, and
    the pickled size of one resampling task."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.fits: list[tuple[int, int, bool]] = []  # (rows, iterations, converged)
        self.csv_rows: list[int] = []
        self.task_bytes = 0
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "fit.fit_mele":
                    self.fits.append((_rows(args, kwargs), 0, False))
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, name, t0, t1, parent, self.op)
            if name == "fit.fit_mele":
                self.fits.append((_rows(args, kwargs), result.iterations, bool(result.converged)))
            elif name == "pipeline.ingest_csv":
                self.csv_rows.append(result[1].rows_in)
            return result

        return traced

    def _measure_task(self, fn):
        # A probe, not a span: the replicate's time stays in the self time of
        # run_resample_study. The task is pickled once, outside any op timing
        # that matters, since every task of a study has the same size.
        @functools.wraps(fn)
        def probed(task):
            if not self.task_bytes:
                self.task_bytes = len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            return fn(task)

        return probed

    def install(self):
        """Point every drmel module attribute that names a traced function
        at its wrapper."""
        targets = list(MODULES.values()) + [drmel]
        for qual in TRACED:
            layer, fname = qual.split(".")
            original = getattr(MODULES[layer], fname)
            wrapper = self._wrap(qual, original)
            for mod in targets:
                if getattr(mod, fname, None) is original:
                    self._saved.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
        # pipeline's per-replicate task function, when the engine has one
        task_fn = getattr(drmel.pipeline, "_study_replicate", None)
        if task_fn is not None:
            self._saved.append((drmel.pipeline, "_study_replicate", task_fn))
            drmel.pipeline._study_replicate = self._measure_task(task_fn)

    def uninstall(self):
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        child_time = defaultdict(float)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        totals = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for sid, name, t0, t1, _, _ in self.spans:
            t = totals[name]
            t["calls"] += 1
            t["total"] += t1 - t0
            t["self"] += t1 - t0 - child_time[sid]
        return totals


def _rows(args, kwargs) -> int:
    data = args[0] if args else kwargs["data"]
    return int(data.n)


def layer_metrics(tracer: Tracer, ops: int, reps: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced ops holding
    ``reps`` replicates."""
    totals = tracer.span_totals()

    def per(name, field, denom):
        """Calls, or ms of total or self time, of ``name`` over ``denom``."""
        t = totals.get(name)
        if not t or not denom:
            return 0.0
        return (t[field] if field == "calls" else t[field] * 1e3) / denom

    def per_call(name, field):
        t = totals.get(name)
        return per(name, field, t["calls"]) if t else 0.0

    fits = tracer.fits
    converged_iters = [i for _, i, converged in fits if converged]
    fit_seconds = totals["fit.fit_mele"]["total"] if "fit.fit_mele" in totals else 0.0
    row_iters = sum(rows * iters for rows, iters, _ in fits)
    return {
        "simulate.sample.ms_per_call": per_call("simulate.sample", "total"),
        "simulate.run_scenario.self_ms_per_rep": per("simulate.run_scenario", "self", reps),
        "basis.evaluate_matrix.calls_per_op": per("basis.evaluate_matrix", "calls", ops),
        "basis.evaluate_matrix.ms_per_op": per("basis.evaluate_matrix", "total", ops),
        "fit.fit_mele.calls_per_op": per("fit.fit_mele", "calls", ops),
        "fit.fit_mele.ms_per_call": per_call("fit.fit_mele", "total"),
        "fit.iterations_mean": statistics.fmean(converged_iters) if converged_iters else 0.0,
        "fit.rows_per_call": statistics.fmean(r for r, _, _ in fits) if fits else 0.0,
        "fit.row_iters_per_s": row_iters / fit_seconds if fit_seconds else 0.0,
        "fit.converged_ratio": len(converged_iters) / len(fits) if fits else 0.0,
        "estimators.estimate_g1.calls_per_op": per("estimators.estimate_g1", "calls", ops),
        "estimators.estimate_g1.ms_per_call": per_call("estimators.estimate_g1", "total"),
        "estimators.drm_quantile_estimate.calls_per_op": per("estimators.drm_quantile_estimate", "calls", ops),
        "estimators.drm_quantile_estimate.self_ms_per_call": per_call("estimators.drm_quantile_estimate", "self"),
        "estimators.avar_quantile.ms_per_call": per_call("estimators.avar_quantile", "total"),
        "nonparametric.kde_density.ms_per_call": per_call("nonparametric.kde_density", "total"),
        "nonparametric.silverman_bandwidth.ms_per_call": per_call("nonparametric.silverman_bandwidth", "total"),
        "parametric.fit_parametric.calls_per_op": per("parametric.fit_parametric", "calls", ops),
        "parametric.fit_parametric.ms_per_call": per_call("parametric.fit_parametric", "total"),
        "pipeline.ingest_csv.ms_per_call": per_call("pipeline.ingest_csv", "total"),
        "pipeline.ingest_csv.rows_per_s": (
            sum(tracer.csv_rows) / totals["pipeline.ingest_csv"]["total"]
            if "pipeline.ingest_csv" in totals else 0.0
        ),
        "pipeline.run_resample_study.self_ms_per_rep": per("pipeline.run_resample_study", "self", reps),
        "pipeline.task_bytes": float(tracer.task_bytes),
        "cli.main.self_ms_per_op": per("cli.main", "self", ops),
    }


def layer_self_ms(tracer: Tracer) -> dict[str, float]:
    """Self time in ms of each layer, summed over its traced functions."""
    out = defaultdict(float)
    for name, t in tracer.span_totals().items():
        out[name.split(".")[0]] += t["self"] * 1e3
    return dict(out)
