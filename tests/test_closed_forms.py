"""The normal and exponential closed forms drmel writes out, against scipy.

``import drmel`` loads no scipy module; its kernel density, normal CDF and
density, and exponential CDF are the expressions ``scipy.stats`` evaluates,
and its scalar normal quantile is a port of ``scipy.special.ndtri``. These
tests hold them to scipy's bits and return types, check that the CSV
commands run with scipy unimportable, and that normal draws load it where
they run.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import expon, norm

import drmel
import drmel.simulate
from drmel import Exponential, KdeModel, Normal, kde_density
from drmel import nonparametric

# kernel arguments stay far from overflow: scipy and drmel both warn when z**2 overflows
EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, -1.0, 1e-300, 3.0]

moderate = st.floats(-1e6, 1e6)
values = st.one_of(moderate, st.sampled_from(EDGES))
cdf_values = st.one_of(values, st.sampled_from([-2.5e300, 1e300]))
means = st.floats(-1e3, 1e3)
scales = st.floats(1e-3, 1e3)


def assert_same(got, want):
    """Same type, dtype and shape, and the same bits; a NaN matches a NaN of
    either sign, since no output shows the sign of a NaN."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def as_inputs(xs):
    """The values ``xs`` as every kind of input the closed forms take."""
    yield from xs  # Python floats
    yield from map(np.float64, xs)
    yield np.asarray(xs[0])  # 0-d array
    yield list(xs)
    yield np.asarray(xs)
    with np.errstate(over="ignore"):  # a value past float32's range becomes inf
        as_float32 = np.asarray(xs, dtype=np.float32)
    yield as_float32


def kde_reference(sample, h, x):
    x_arr = np.asarray(x, dtype=float)
    dens = norm.pdf((np.atleast_1d(x_arr)[:, None] - sample[None, :]) / h).mean(axis=1) / h
    return float(dens[0]) if x_arr.ndim == 0 else dens


@given(st.lists(cdf_values, min_size=1, max_size=12), means, scales)
@example(EDGES, 0.0, 1.0)
@example([-0.0, 0.0], -0.0, 1.0)
def test_normal_cdf_is_scipy_norm_cdf(xs, mu, sigma):
    gen = Normal(mu, sigma)
    for x in as_inputs(xs):
        assert_same(gen.cdf(x), norm.cdf(x, loc=mu, scale=sigma))


@given(st.lists(cdf_values, min_size=1, max_size=12), scales)
@example(EDGES, 1.0)
@example([5e-324, -5e-324, -0.0], 2.0)  # 5e-324 / 2 rounds to 0, the edge of the support
def test_exponential_cdf_is_scipy_expon_cdf(xs, mean):
    gen = Exponential(mean)
    for x in as_inputs(xs):
        assert_same(gen.cdf(x), expon.cdf(x, scale=mean))


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), scales)
@example(5e-324, 1.0)
@example(1 - 2**-53, 0.5)
@example(0.5, 1e-3)
def test_normal_density_at_quantile_is_scipy_norm_pdf(p, sigma):
    got = Normal(0.0, sigma).density_at_quantile(p)
    want = float(norm.pdf(ndtri(p))) / sigma
    assert_same(got, want)


def test_normal_density_at_quantile_on_a_fine_grid_of_levels():
    # a numpy scalar's z**2 is C pow, off by one bit from an array's z*z at
    # about 1 level in 1000: only a fine grid tells the two apart
    gen = Normal(0.0, 1.0)
    for p in np.linspace(0.0, 1.0, 5001)[1:-1]:
        assert_same(gen.density_at_quantile(float(p)), float(norm.pdf(ndtri(float(p)))))


@given(
    st.lists(moderate, min_size=1, max_size=30).map(np.array),
    scales,
    st.lists(values, min_size=1, max_size=12),
)
@example(np.array([0.0, 1.0, -2.0]), 0.5, EDGES)
@example(np.array([-0.0]), 1.0, [0.0, -0.0, 5e-324])
def test_kde_density_is_the_mean_of_scipy_norm_pdf(sample, h, xs):
    model = KdeModel(sample, h)
    for x in as_inputs(xs):
        assert_same(kde_density(model, x), kde_reference(sample, h, x))


@pytest.mark.parametrize("cells", [1, 7, 1000, None])
def test_kde_density_in_blocks_is_the_single_block_formula(monkeypatch, rng, cells):
    if cells is None:  # the default block size, 131 rows of 8000 points
        sample, grid_points = rng.normal(size=8000), 600
    else:
        monkeypatch.setattr(nonparametric, "_KDE_BLOCK_CELLS", cells)
        sample, grid_points = rng.normal(size=50), 333
    rows = max(1, nonparametric._KDE_BLOCK_CELLS // sample.size)
    assert grid_points > 3 * rows  # the grid spans several blocks, the last one short
    model = KdeModel.silverman(sample)
    grid = np.linspace(sample.min() - 1.0, sample.max() + 1.0, grid_points)
    single = nonparametric._norm_pdf((grid[:, None] - sample[None, :]) / model.bandwidth)
    assert_same(kde_density(model, grid), single.mean(axis=1) / model.bandwidth)
    assert_same(kde_density(model, grid), kde_reference(sample, model.bandwidth, grid))


def _drmel_env():
    return {**os.environ, "PYTHONPATH": str(Path(drmel.__file__).resolve().parents[1])}


def _near(x, ulps=4):
    """``x`` and the ``ulps`` floats on each side of it."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def test_the_scalar_ndtri_port_is_scipy_ndtri_bit_for_bit():
    gen = np.random.default_rng(19)
    # the branch switches: y = exp(-2) and 1 - exp(-2), and x = sqrt(-2 log y) = 8,
    # which rounding moves some floats above exp(-32)
    x_below_8 = math.exp(-32)
    while not math.sqrt(-2.0 * math.log(x_below_8)) < 8.0:
        x_below_8 = math.nextafter(x_below_8, 1.0)
    edges = [0.0, 1.0, 0.5, 5e-324]
    for boundary in (math.exp(-2), 1 - math.exp(-2), math.exp(-32), x_below_8):
        edges += _near(boundary)
    ys = np.concatenate([
        gen.random(100_000),
        10.0 ** -gen.uniform(0, 300, 20_000),
        1 - 10.0 ** -gen.uniform(1, 16, 20_000),
        edges,
    ])
    got = np.array([nonparametric._ndtri(float(y)) for y in ys])
    want = ndtri(ys)
    assert_same(got, want)


def _two_group_csv(path):
    """A CSV of groups a and b, of values whose logs are positive too, for
    the exponential family and the linear-log basis."""
    gen = np.random.default_rng(5)
    rows = ["group,value"]
    for group, mu, n in (("a", 0.0, 40), ("b", 0.4, 20)):
        rows += [f"{group},{v:.6f}" for v in np.exp(3.0 + gen.normal(mu, 1.0, n) / 4)]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_csv_commands_run_without_scipy(tmp_path):
    data = _two_group_csv(tmp_path / "data.csv")
    csv = ["--data", str(data), "--value-col", "value", "--group-col", "group"]
    methods = ["drm", *drmel.simulate._ESTIMATORS]
    commands = [
        ["estimate", *csv, *transform, "--x0", "a", "--x1", "b", "--method", method,
         "--out", str(tmp_path / "e")]
        for transform in ([], ["--transform", "log"]) for method in methods
    ] + [
        ["study", *csv, "--transform", "log", "--base", "a", "--targets", "b", "--n0", "20",
         "--n", "10", "--reps", "3", "--levels", "0.5", "--methods", ",".join(methods[1:]),
         "--out", str(tmp_path / "s")],
        ["kde", *csv, "--group", "a", "--grid-points", "9", "--out", str(tmp_path / "k")],
    ]
    # a None in sys.modules makes every import of scipy and its submodules fail
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import drmel
        import drmel.cli
        for argv in {commands!r}:
            if drmel.cli.main(argv) != 0:
                sys.exit(f"failed: {{argv}}")
    """)
    done = subprocess.run([sys.executable, "-c", script], env=_drmel_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


def test_the_log_check_runs_on_the_first_log_transform_not_at_import(tmp_path):
    data = _two_group_csv(tmp_path / "data.csv")
    script = textwrap.dedent(f"""
        import drmel, drmel.cli
        from drmel.pipeline import ColumnSpec, _reversed_log_is_libm, ingest_csv
        assert _reversed_log_is_libm.cache_info().currsize == 0
        ingest_csv({str(data)!r}, ColumnSpec("value", "group"))
        assert _reversed_log_is_libm.cache_info().currsize == 0
        ingest_csv({str(data)!r}, ColumnSpec("value", "group", transform="log"))
        assert _reversed_log_is_libm.cache_info().currsize == 1
    """)
    done = subprocess.run([sys.executable, "-c", script], env=_drmel_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


# the drmel command of its arguments on a machine of 2 CPUs, so that a pool
# opens on one core too; it says whether this process loaded scipy
_CLI_SAYS_SCIPY = """
import os, sys
from drmel.cli import main
os.cpu_count = lambda: 2
code = main(sys.argv[1:])
print("scipy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_normal_draws_import_scipy_on_first_use_in_every_process(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "generator0": {"dist": "normal", "mu": 0.0, "sigma": 1.0},
        "generator1": {"dist": "normal", "mu": 0.5, "sigma": 1.5},
        "n1": 20, "k": 2, "levels": [0.1, 0.5], "reps": 8,
        "methods": ["drm", "parametric-normal", "empirical"],
    }))
    outs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.csv"
        done = subprocess.run([sys.executable, "-c", _CLI_SAYS_SCIPY, "simulate", "--scenario",
                               str(scenario), "--workers", str(workers), "--out", str(out)],
                              env=_drmel_env(), capture_output=True, text=True, timeout=120)
        outs[workers] = (done.returncode, done.stderr, out.read_bytes())
    # the process draws at 1 worker; at 2 only the pool's workers do, after the fork
    assert outs[1][:2] == (0, "True\n") and outs[2][:2] == (0, "False\n")
    assert outs[1][2] == outs[2][2]
    assert outs[1][2].count(b"\n") == 1 + 2 * 3
