"""Command line front end: estimate, simulate, kde, and study subcommands."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys

import numpy as np

from .basis import BASIS_NAMES, BasisSpec
from .errors import DrmError, EmptyGroupError, InvalidArgumentError
from .fit import TwoSampleData
from .nonparametric import KdeModel, kde_density
from .pipeline import ColumnSpec, ResampleStudy, ingest_csv, run_resample_study
from .simulate import METHOD_DRM, Exponential, Normal, Scenario, _resolve_methods, run_scenario


@contextlib.contextmanager
def _output(path):
    """The file at ``path`` opened for writing, or stdout when it is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _parse_levels(text: str):
    try:
        levels = tuple(float(v) for v in text.split(",") if v)
    except ValueError:
        levels = ()
    if not levels:
        raise InvalidArgumentError(f"levels must be one or more comma-separated numbers: {text!r}")
    return levels


def _load(args, *labels):
    """The groups of the CSV named by ``args``; each of ``labels`` must be one."""
    spec = ColumnSpec(args.value_col, args.group_col, args.transform)
    populations, report = ingest_csv(args.data, spec)
    for label in labels:
        if label not in populations:
            raise EmptyGroupError(f"group {label!r} not found in {args.data}")
    if report.rows_dropped:
        print(f"# dropped {report.rows_dropped} of {report.rows_in} rows", file=sys.stderr)
    return populations


def _cmd_estimate(args) -> int:
    levels = _parse_levels(args.levels)
    ((method, fitter),) = _resolve_methods((args.method,), BasisSpec.from_name(args.basis))
    populations = _load(args, args.x0, args.x1)
    model = fitter(TwoSampleData(x0=populations[args.x0], x1=populations[args.x1]))
    estimates = [model.estimate(p, args.ci_level) for p in levels]
    with _output(args.out) as out:
        out.write("level,method,point,std_error,ci_low,ci_high\n")
        for est in estimates:
            out.write(
                f"{est.level:g},{method},{est.point:.10g},{est.std_error:.10g},"
                f"{est.ci_low:.10g},{est.ci_high:.10g}\n"
            )
    return 0


_ABSENT = object()  # a key the JSON object does not hold


def _field(obj, key, convert, required=True):
    """``convert(obj[key])``, or ``_ABSENT`` when an optional key is absent.

    A missing required key, or a value of the wrong type or shape, raises
    :class:`InvalidArgumentError` naming ``key``.
    """
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"expected a JSON object with the key {key!r}, "
                                   f"got {type(obj).__name__}")
    value = obj.get(key, _ABSENT)
    if value is _ABSENT and required:
        raise InvalidArgumentError(f"scenario JSON lacks the key {key!r}")
    try:
        return value if value is _ABSENT else convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"bad value for {key!r}: {exc}") from None


def _as_list(value) -> tuple:
    """A JSON list as a tuple; any other value, a string included, is a TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return tuple(value)


def _generator_from_json(obj):
    dist = _field(obj, "dist", str)
    if dist == "normal":
        return Normal(mu=_field(obj, "mu", float), sigma=_field(obj, "sigma", float))
    if dist == "exponential":
        return Exponential(mean=_field(obj, "mean", float))
    raise InvalidArgumentError(f"unknown generator kind {dist!r}")


# the Scenario field of each scenario key whose JSON value has another shape;
# any other key's value is passed on as it is
_FROM_JSON = {"generator0": _generator_from_json, "generator1": _generator_from_json, "k": float,
              "basis": BasisSpec.from_name, "levels": lambda v: tuple(map(float, _as_list(v))),
              "methods": _as_list, "scenario_id": str}


def scenario_from_json(obj) -> Scenario:
    """The :class:`Scenario` of a JSON object whose keys are its field names:
    each key the object holds is passed on, converted by ``_FROM_JSON``, so
    the defaults and the checks are the Scenario's."""
    values = {f.name: _field(obj, f.name, _FROM_JSON.get(f.name, lambda v: v),
                             required=f.default is dataclasses.MISSING)
              for f in dataclasses.fields(Scenario)}
    return Scenario(**{key: v for key, v in values.items() if v is not _ABSENT})


def _cmd_simulate(args) -> int:
    with open(args.scenario) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise InvalidArgumentError(f"{args.scenario} is not valid JSON ({exc})") from None
    table = run_scenario(scenario_from_json(obj), workers=args.workers)
    with _output(args.out) as out:
        table.to_csv(out)
    return 0


def _cmd_kde(args) -> int:
    if args.grid_points < 1:
        raise InvalidArgumentError(f"--grid-points must be at least 1, got {args.grid_points}")
    sample = _load(args, args.group)[args.group]
    model = KdeModel.silverman(sample)
    h = model.bandwidth
    grid = np.linspace(sample.min() - 3 * h, sample.max() + 3 * h, args.grid_points)
    dens = kde_density(model, grid)
    with _output(args.out) as out:
        out.write("x,density\n")
        for x, g in zip(grid, dens):
            out.write(f"{x:.10g},{g:.10g}\n")
    return 0


def _cmd_study(args) -> int:
    populations = _load(args)
    study = ResampleStudy(
        base=args.base,
        targets=args.targets.split(","),
        n0_grid=(args.n0,),
        n_grid=(args.n,),
        # only the flags given of those whose default is the study's
        **{key: _parse_levels(v) if key == "levels" else v
           for key, v in vars(args).items() if key in ("levels", "methods", "reps", "seed")},
    )
    table = run_resample_study(study, populations, workers=args.workers)
    with _output(args.out) as out:
        table.to_csv(out, include_abs_bias=True)
    return 0


def _add_csv_args(p):
    p.add_argument("--data", required=True, help="input CSV file")
    p.add_argument("--value-col", required=True)
    p.add_argument("--group-col", required=True)
    p.add_argument("--transform", choices=["none", "log"], default="none")


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drmel")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="quantile estimates with SEs and CIs")
    _add_csv_args(p)
    p.add_argument("--x0", required=True, help="group label of the base sample")
    p.add_argument("--x1", required=True, help="group label of the target sample")
    p.add_argument("--method", default=METHOD_DRM,
                   help="a method name, as in a scenario; drm fits the DRM under --basis")
    p.add_argument("--basis", choices=BASIS_NAMES, default="quadratic",
                   help="the basis of --method drm; drm-<basis> names its own")
    p.add_argument("--levels", default="0.05,0.5,0.95")
    p.add_argument("--ci-level", type=float, default=0.95)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="run a Monte Carlo scenario from a JSON file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("kde", help="kernel density estimate on a CSV grid")
    _add_csv_args(p)
    p.add_argument("--group", required=True)
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kde)

    # a flag without a default is absent from args unless it is given
    p = sub.add_parser("study", help="with-replacement resampling study",
                       argument_default=argparse.SUPPRESS)
    _add_csv_args(p)
    p.add_argument("--base", required=True)
    p.add_argument("--targets", required=True, help="comma-separated target labels")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, help="replicates per cell; default: ResampleStudy's")
    p.add_argument("--levels", help="comma-separated quantile levels; default: ResampleStudy's")
    p.add_argument("--methods", type=lambda text: text.split(","),
                   help="comma-separated method names; default: ResampleStudy's")
    p.add_argument("--seed", type=int, help="replicate stream seed; default: ResampleStudy's")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DrmError, OSError) as exc:  # OSError: a file named on the command line
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
