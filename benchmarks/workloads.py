"""One op per workload, run through drmel's public entry points, and the
checks every op's output must pass.

An op is one call a user would make: a ``run_scenario`` call of a few
replicates (table1-normal-k100), or one in-process ``drmel estimate`` or
``drmel study`` command. Importing this module imports drmel, so the
caller must put the checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import drmel.cli
import drmel.simulate
from drmel.basis import BasisSpec
from drmel.simulate import Normal, Scenario

from common import (
    ESTIMATE,
    REFERENCE_DIR,
    SCALES,
    STUDY,
    TABLE1,
    csv_groups,
    csv_path,
    variant_seeds,
)

# Outputs at the default seed must match the stored reference within this
# relative tolerance. `drmel estimate` prints 10 significant digits, so a
# last-digit change is at most 1e-9 of the value; the tables print 12. A
# different quantile pick moves a point by a gap of the pooled sample, more
# than 1e-6 of the value at the default seed, and moves a table entry by far
# more than this.
REFERENCE_RTOL = 2e-9
REFERENCE_ATOL = 1e-12

TABLE_HEADER = ["scenario_id", "p", "method", "scaled_bias", "scaled_var", "scaled_mse", "fail_frac"]
STUDY_HEADER = ["scenario_id", "p", "method", "scaled_bias", "abs_bias", "scaled_var", "scaled_mse", "fail_frac"]
ESTIMATE_HEADER = ["level", "method", "point", "std_error", "ci_low", "ci_high"]
STUDY_METHODS = ("drm-quadratic", "parametric-normal", "parametric-normal-common", "empirical")


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = drmel.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"drmel {argv[0]} exited with code {rc}")
    return buf.getvalue()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _diff_against_reference(text: str, ref: str) -> list[str]:
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO(ref)))
    if len(got) != len(want):
        return [f"{len(got)} lines, reference has {len(want)}"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(got, want)):
        if len(row) != len(ref_row):
            problems.append(f"line {i + 1}: {len(row)} fields, reference has {len(ref_row)}")
            continue
        for cell, ref_cell in zip(row, ref_row):
            try:
                a, b = float(cell), float(ref_cell)
            except ValueError:
                ok = cell == ref_cell
            else:
                ok = math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)
            if not ok:
                problems.append(f"line {i + 1}: {cell!r} differs from reference {ref_cell!r}")
    return problems


def _numeric_rows(text: str, header: list[str]) -> tuple[list[dict], list[str]]:
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != header:
        return [], [f"header {lines[0] if lines else None} != {header}"]
    rows, problems = [], []
    for fields in lines[1:]:
        # `drmel study` writes its scenario_id "n0=...,n=..." unquoted, so
        # its rows carry one more comma than the header: the leading extras
        # belong to the first column.
        extra = len(fields) - len(header)
        if extra > 0:
            fields = [",".join(fields[: extra + 1]), *fields[extra + 1:]]
        if len(fields) != len(header):
            problems.append(f"row {fields} has {len(fields)} fields, header has {len(header)}")
            continue
        parsed = dict(zip(header, fields))
        for col in header:
            if col in ("scenario_id", "method"):
                continue
            try:
                parsed[col] = float(parsed[col])
            except ValueError:
                problems.append(f"non-numeric {col}={parsed[col]!r}")
                break
            if not math.isfinite(parsed[col]):
                problems.append(f"non-finite {col} in row {fields}")
                break
        else:
            rows.append(parsed)
    return rows, problems


def _table_problems(text, header, expected_keys, single_target: bool) -> list[str]:
    rows, problems = _numeric_rows(text, header)
    seen = [(r["scenario_id"], r["p"], r["method"]) for r in rows]
    if sorted(seen) != sorted(expected_keys):
        problems.append(f"rows {sorted(set(seen) ^ set(expected_keys))} missing or unexpected")
    for r in rows:
        where = f"(p={r['p']}, {r['method']})"
        if r["fail_frac"] != 0.0:
            problems.append(f"fit failures reported {where}: fail_frac={r['fail_frac']}")
        if r["scaled_var"] < 0:
            problems.append(f"negative scaled_var {where}")
        # mse = var + bias^2 per target; averaging over targets keeps only >=
        gap = r["scaled_mse"] - (r["scaled_var"] + r["scaled_bias"] ** 2)
        if gap < -1e-9 * max(1.0, r["scaled_mse"]) or (single_target and not _close(gap, 0.0, 1e-9)):
            problems.append(f"scaled_mse inconsistent with bias and var {where}")
        if "abs_bias" in r and r["abs_bias"] < abs(r["scaled_bias"]) - 1e-9 * max(1.0, r["abs_bias"]):
            problems.append(f"abs_bias below |scaled_bias| {where}")
    return problems


class Workload:
    """Inputs and checks of one workload at one seed.

    ``run(variant, workers)`` performs one op and returns its output text;
    ``check`` returns the problems found in that output.
    """

    name = ""
    reps_per_op = 1

    def __init__(self, seed: int, scale: str, with_reference: bool):
        self.params = SCALES[scale][self.name]
        self.variants = self.params["variants"]
        self.workers = self.params["workers"]
        self.seeds = variant_seeds(seed, self.variants)
        self.checked: dict[int, tuple[str, list[str]]] = {}
        self.reference = None
        if with_reference:
            with open(REFERENCE_DIR / f"{self.name}.json") as fh:
                self.reference = json.load(fh)["outputs"]

    def run(self, variant: int, workers: int) -> str:
        raise NotImplementedError

    def invariant_problems(self, text: str) -> list[str]:
        raise NotImplementedError

    def check(self, text: str, variant: int) -> list[str]:
        if variant in self.checked:
            first, problems = self.checked[variant]
            # the first run of this input was checked in full
            return problems if text == first else ["output differs from an earlier run of the same input"]
        problems = self.invariant_problems(text)
        if self.reference is not None:
            problems += _diff_against_reference(text, self.reference[variant])
        self.checked[variant] = (text, problems)
        return problems

    def determinism_problems(self) -> list[str] | None:
        """Problems if variant 0 gives other bytes at another worker count;
        None if the entry point has no worker count."""
        first = self.checked[0][0] if 0 in self.checked else self.run(0, self.workers)
        other = 2 if self.workers == 1 else 1
        if self.run(0, other) != first:
            return [f"output at workers={other} differs from workers={self.workers}"]
        return []


class Table1(Workload):
    """The paper's Table-1 setting: N(0,1) vs N(0,1), quadratic basis."""

    name = TABLE1

    def __init__(self, seed, scale, with_reference):
        super().__init__(seed, scale, with_reference)
        p = self.params
        self.reps_per_op = p["reps"]
        self.scenarios = [
            Scenario(
                generator0=Normal(0.0, 1.0),
                generator1=Normal(0.0, 1.0),
                n1=p["n1"],
                k=p["k"],
                basis=BasisSpec.quadratic(),
                levels=p["levels"],
                reps=p["reps"],
                seed=s,
                methods=p["methods"],
                scenario_id=TABLE1,
            )
            for s in self.seeds
        ]

    def run(self, variant, workers):
        table = drmel.simulate.run_scenario(self.scenarios[variant], workers=workers)
        buf = io.StringIO()
        table.to_csv(buf)
        return buf.getvalue()

    def invariant_problems(self, text):
        keys = [(TABLE1, p, m) for p in self.params["levels"] for m in self.params["methods"]]
        return _table_problems(text, TABLE_HEADER, keys, single_target=True)


class _CsvWorkload(Workload):
    def __init__(self, seed, scale, with_reference):
        super().__init__(seed, scale, with_reference)
        self.data = str(csv_path(seed, scale))
        self.common_args = [
            "--data", self.data, "--value-col", "value", "--group-col", "group",
            "--transform", "log",
        ]


class EstimateCli(_CsvWorkload):
    """`drmel estimate` with SEs and CIs on the fixed CSV, base vs t1."""

    name = ESTIMATE

    def __init__(self, seed, scale, with_reference):
        super().__init__(seed, scale, with_reference)
        groups = csv_groups(seed, scale)
        pooled = [math.log(v) for g in ("base", "t1") for v in groups[g].tolist()]
        self.pooled_range = (min(pooled), max(pooled))
        self.argv = ["estimate", *self.common_args, "--x0", "base", "--x1", "t1",
                     "--basis", "quadratic", "--levels", self.params["levels"]]

    def run(self, variant, workers):
        return _cli(self.argv)

    def invariant_problems(self, text):
        rows, problems = _numeric_rows(text, ESTIMATE_HEADER)
        levels = [float(v) for v in self.params["levels"].split(",")]
        if [(r["level"], r["method"]) for r in rows] != [(p, "drm") for p in levels]:
            problems.append("estimate rows are not one drm row per requested level")
        lo, hi = self.pooled_range
        slack = 1e-9 * max(abs(lo), abs(hi))
        for r in rows:
            if not r["std_error"] > 0:
                problems.append(f"nonpositive std_error at level {r['level']}")
            if not r["ci_low"] <= r["point"] <= r["ci_high"]:
                problems.append(f"point outside its CI at level {r['level']}")
            if not lo - slack <= r["point"] <= hi + slack:
                problems.append(f"point {r['point']} outside the pooled sample range")
        return problems

    def determinism_problems(self):
        return None


class StudyCsv(_CsvWorkload):
    """`drmel study`, base vs both targets, default methods."""

    name = STUDY

    def __init__(self, seed, scale, with_reference):
        super().__init__(seed, scale, with_reference)
        p = self.params
        self.reps_per_op = p["reps"]
        self.argv_base = ["study", *self.common_args, "--base", "base", "--targets", "t1,t2",
                          "--n0", str(p["n0"]), "--n", str(p["n"]), "--reps", str(p["reps"]),
                          "--levels", p["levels"]]

    def run(self, variant, workers):
        return _cli([*self.argv_base, "--seed", str(self.seeds[variant]),
                     "--workers", str(workers)])

    def invariant_problems(self, text):
        sid = f"n0={self.params['n0']},n={self.params['n']}"
        levels = [float(v) for v in self.params["levels"].split(",")]
        keys = [(sid, p, m) for p in levels for m in STUDY_METHODS]
        return _table_problems(text, STUDY_HEADER, keys, single_target=False)


WORKLOAD_CLASSES = {cls.name: cls for cls in (Table1, EstimateCli, StudyCsv)}
