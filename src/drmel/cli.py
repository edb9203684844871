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
from .errors import DrmError, EmptyGroupError, InvalidArgumentError, check_integer
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


_GENERATORS = {"normal": Normal, "exponential": Exponential}  # by a generator's "dist"


def _arguments(obj, cls) -> dict:
    """The JSON object ``obj`` as keyword arguments of the dataclass ``cls``:
    each key must be a field of ``cls``, and each field without a default
    must be a key. A value that is not an object, an unknown key or a
    missing one raises :class:`InvalidArgumentError` naming it."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"expected a JSON object, got {type(obj).__name__}")
    known = [f.name for f in dataclasses.fields(cls)]
    extra = ", ".join(repr(key) for key in obj if key not in known)  # in the object's order
    if extra:
        raise InvalidArgumentError(f"{cls.__name__} has no key {extra}; known: {', '.join(known)}")
    for field in dataclasses.fields(cls):
        if field.name not in obj and field.default is dataclasses.MISSING:
            raise InvalidArgumentError(f"a {cls.__name__} lacks the key {field.name!r}")
    return dict(obj)


def _generator_from_json(obj):
    """The population of a generator object: the class its ``dist`` names,
    built from its other keys."""
    dist = obj.get("dist") if isinstance(obj, dict) else None
    cls = _GENERATORS.get(dist) if isinstance(dist, str) else None
    if cls is None:
        raise InvalidArgumentError(f"a generator needs a 'dist' of normal or exponential: {obj!r}")
    return cls(**_arguments({key: value for key, value in obj.items() if key != "dist"}, cls))


def scenario_from_json(obj) -> Scenario:
    """The :class:`Scenario` of a JSON object whose keys are its field names.

    Only what JSON cannot spell is converted: the generator objects into
    populations and the basis name into a :class:`BasisSpec`. Every other
    value is passed on as JSON gave it, so the defaults and the checks are
    the Scenario's."""
    arguments = _arguments(obj, Scenario)
    for key in ("generator0", "generator1"):
        arguments[key] = _generator_from_json(arguments[key])
    if "basis" in arguments:
        arguments["basis"] = BasisSpec.from_name(arguments["basis"])
    return Scenario(**arguments)


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
    points = check_integer(args.grid_points, "--grid-points", 1)
    sample = _load(args, args.group)[args.group]
    model = KdeModel.silverman(sample)
    h = model.bandwidth
    try:
        grid = np.linspace(sample.min() - 3 * h, sample.max() + 3 * h, points)
        dens = kde_density(model, grid)
    except DrmError:  # an InvalidArgumentError is a ValueError; it keeps its own message
        raise
    except (MemoryError, ValueError, IndexError):  # more points than numpy can allocate or index
        raise InvalidArgumentError(f"cannot hold a grid of {points} points in memory") from None
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
