"""The normal and exponential closed forms drmel writes out, against scipy.stats.

drmel does not import ``scipy.stats``; its kernel density, normal CDF and
density, and exponential CDF are the expressions ``scipy.stats`` evaluates.
These tests hold them to scipy's bits and return types, and check that
neither ``import drmel`` nor a CLI command loads ``scipy.stats``.
"""

import json
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


def test_no_command_imports_scipy_stats(tmp_path):
    gen = np.random.default_rng(5)
    rows = ["group,value"]
    for group, mu, n in (("a", 0.0, 40), ("b", 0.4, 20)):
        rows += [f"{group},{v:.6f}" for v in gen.normal(mu, 1.0, n)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "generator0": {"dist": "exponential", "mean": 1.0},
        "generator1": {"dist": "exponential", "mean": 1.5},
        "n1": 20, "k": 2, "basis": "linear", "levels": [0.5], "reps": 3,
        "methods": ["drm", "parametric-exponential", "empirical"],
    }))
    csv = ["--data", str(data), "--value-col", "value", "--group-col", "group"]
    commands = [
        ["estimate", *csv, "--x0", "a", "--x1", "b", "--method", method,
         "--out", str(tmp_path / "e")]
        for method in ("drm", "drm-linear", "parametric-normal", "parametric-normal-common",
                       "empirical")
    ] + [
        ["study", *csv, "--base", "a", "--targets", "b", "--n0", "20", "--n", "10", "--reps", "3",
         "--levels", "0.5", "--methods",
         "drm-linear,parametric-normal,parametric-normal-common,empirical",
         "--out", str(tmp_path / "s")],
        ["kde", *csv, "--group", "a", "--grid-points", "9", "--out", str(tmp_path / "k")],
        ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "m")],
    ]
    script = textwrap.dedent(f"""
        import sys
        import drmel
        import drmel.cli
        if "scipy.stats" in sys.modules:
            sys.exit("import drmel loaded scipy.stats")
        for argv in {commands!r}:
            if drmel.cli.main(argv) != 0 or "scipy.stats" in sys.modules:
                sys.exit(f"failed or loaded scipy.stats: {{argv}}")
    """)
    src = str(Path(drmel.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
