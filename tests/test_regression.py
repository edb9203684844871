"""Pins of the fitter and the replicate engine to values recorded from the
logaddexp kernel and row-major basis that the current kernel replaced, and a
resampling-study table recorded from the engine with one sampler per front
end; any change to the arithmetic of the Newton loop, or to the layout of the
replicate streams, that moves them shows here. The bytes ``drmel estimate``
writes for each method are pinned too, as recorded from the front end that
wrote each method's estimate in a branch of its own."""

import io

import numpy as np
import pytest

from drmel import (
    BasisSpec,
    Exponential,
    Normal,
    ResampleStudy,
    Scenario,
    TwoSampleData,
    fit_mele,
    run_resample_study,
    run_scenario,
)
from drmel.estimators import drm_quantile, estimate_g1
from drmel.cli import main
from drmel.simulate import replicate_rng, sample


def table1_data(r, n0=100_000):
    """Replicate ``r`` of the Table-1 stream (seed 20240824): N(0,1) at n0 (100,000) and 1,000."""
    rng = replicate_rng(20240824, r)
    x0 = sample(Normal(0.0, 1.0), n0, rng)
    x1 = sample(Normal(0.0, 1.0), 1_000, rng)
    return TwoSampleData(x0=x0, x1=x1)


# iterations and theta_hat of the quadratic fit on table1_data(r)
TABLE1_FITS = {
    0: (4, [-0.026424230646010065, 0.022161976392529516, 0.02565515405939887]),
    1: (3, [0.023880735759990692, -0.009715545123745383, -0.02450637707498111]),
    2: (3, [-0.0046691278024485194, 0.001484267883099111, 0.004617838479581348]),
}

# the estimate_g1 quantile picks of those fits at p = 0.01, 0.05 and 0.5;
# the simulate CSV bytes follow from these picks, and theta alone does not pin them
TABLE1_PICKS = {
    0: (-2.3599938078799343, -1.6612081387053186, 0.022615914277038067),
    1: (-2.279509262903705, -1.6193385723074725, -0.01311385558512243),
    2: (-2.334678597459961, -1.6613670458429373, 0.0009066856830955062),
}

SMALL_TABLE = """\
scenario_id,p,method,scaled_bias,scaled_var,scaled_mse,fail_frac
small,0.01,drm,-0.0933683257056,3.61607618435,3.6247938286,0
small,0.01,parametric-normal,0.512208860886,2.01190862083,2.274266538,0
small,0.01,empirical,0.101181275856,10.1635401814,10.173777832,0
small,0.05,drm,0.0812151938065,1.23216496378,1.23876087148,0
small,0.05,parametric-normal,0.315779501449,1.08329803422,1.18301472776,0
small,0.05,empirical,-0.396047332088,2.93597136716,3.09282485641,0
small,0.5,drm,-0.193569273227,0.806377903401,0.843846966938,0
small,0.5,parametric-normal,-0.158322144589,0.693061184909,0.718127086376,0
small,0.5,empirical,-0.471215770429,0.661390288339,0.88343459064,0
"""

# exponential sampling (np.log1p) and truth (math.log1p), with the exponential
# and common-variance MLEs, recorded from the two-transcendental kernel
EXPONENTIAL_TABLE = """\
scenario_id,p,method,scaled_bias,scaled_var,scaled_mse,fail_frac
small-exp,0.05,drm,-0.0628044676156,0.0109208334329,0.0148652345854,0
small-exp,0.05,parametric-exponential,-0.020491891111,0.00541175202363,0.00583166962493,0
small-exp,0.05,parametric-normal-common,-2.86924837856,1.64106655905,9.8736528169,0
small-exp,0.05,drm-linear-log,0.0860299948189,0.0338517661515,0.0412529261601,0
small-exp,0.05,empirical,-0.00253754461064,0.0585355472532,0.0585419863858,0
small-exp,0.5,drm,-0.188383321331,0.929712122915,0.965200398671,0
small-exp,0.5,parametric-exponential,-0.276915271626,0.988251822605,1.06493389027,0
small-exp,0.5,parametric-normal-common,2.5115571585,2.05691668899,8.36483604942,0
small-exp,0.5,drm-linear-log,-0.0649682287316,0.850721204975,0.854942075719,0
small-exp,0.5,empirical,-0.499422415272,0.767298797233,1.01672154611,0
small-exp,0.99,drm,-1.36913277443,31.7385605273,33.6130850813,0
small-exp,0.99,parametric-exponential,-1.83978524144,43.6222508271,47.0070605617,0
small-exp,0.99,parametric-normal-common,-18.3789596933,5.75896462408,343.545124034,0
small-exp,0.99,drm-linear-log,-3.1007076476,48.179467431,57.7938553469,0
small-exp,0.99,empirical,-7.6301751453,18.3500934297,76.5696661777,0
"""


# a 2x2 (n0, n) grid over two targets, resampled from fixed synthetic
# populations: x0 first, then each target, from stream cell * reps + r
STUDY_TABLE = """\
scenario_id,p,method,scaled_bias,abs_bias,scaled_var,scaled_mse,fail_frac
n0=60,n=20,0.1,drm-quadratic,0.454433486297,2.45183814336,8.6184602726,8.84811948154,0
n0=60,n=20,0.1,parametric-normal,0.277058529557,2.00749586659,6.08489107921,6.24973917015,0
n0=60,n=20,0.1,empirical,-0.844981771728,3.87235523048,18.492335104,19.2073060384,0
n0=60,n=20,0.5,drm-quadratic,-0.349728703069,2.32477303359,6.75868025667,7.05376586301,0
n0=60,n=20,0.5,parametric-normal,-0.51873062053,2.02194202081,5.09267564826,5.66000300943,0
n0=60,n=20,0.5,empirical,-1.29622295357,2.93018471735,7.57955929328,9.4503593735,0
n0=60,n=20,0.9,drm-quadratic,-2.46544531363,3.07439133163,8.56239831455,14.8625040963,0
n0=60,n=20,0.9,parametric-normal,-2.01207981607,3.25655628371,9.71477650699,14.7003983145,0
n0=60,n=20,0.9,empirical,-2.40378442642,2.83967129261,9.18964337274,15.0002679055,0
n0=60,n=40,0.1,drm-quadratic,-0.172318550557,1.89593204466,4.2370097886,5.21559897782,0
n0=60,n=40,0.1,parametric-normal,-0.0292834135888,1.54692075728,4.11587308579,4.25245690219,0
n0=60,n=40,0.1,empirical,-0.928086821947,1.71242829038,3.45294847471,5.21792409297,0
n0=60,n=40,0.5,drm-quadratic,-0.715678270991,1.76402327741,6.90870776064,7.46914276247,0
n0=60,n=40,0.5,parametric-normal,-0.335827771706,2.07838061135,7.81169969269,8.00079959178,0
n0=60,n=40,0.5,empirical,-1.36747368294,2.13457510739,10.5718582956,12.5011505499,0
n0=60,n=40,0.9,drm-quadratic,-1.11410084509,3.96956999477,21.571040314,22.9442454758,0
n0=60,n=40,0.9,parametric-normal,-1.62887100668,3.99029656125,19.0831412564,21.8423763761,0
n0=60,n=40,0.9,empirical,-0.319781297446,3.35385914112,16.67499561,17.2766440016,0
n0=120,n=20,0.1,drm-quadratic,-0.0513673925853,1.15780110023,1.92405835953,1.92672103256,0
n0=120,n=20,0.1,parametric-normal,0.447178987778,0.97849153597,1.11147074681,1.34961306241,0
n0=120,n=20,0.1,empirical,-1.38375542012,2.2631493171,4.33850465535,6.6352819637,0
n0=120,n=20,0.5,drm-quadratic,0.768760979803,1.54138725759,2.78130493482,3.71584269286,0
n0=120,n=20,0.5,parametric-normal,0.789430402927,1.43002342301,2.24803502226,2.98664108339,0
n0=120,n=20,0.5,empirical,-0.128233674181,1.499022062,3.10196875385,3.42470920133,0
n0=120,n=20,0.9,drm-quadratic,0.678724247955,2.80056139281,10.3013276768,11.1892819841,0
n0=120,n=20,0.9,parametric-normal,0.43412177262,2.59269478428,8.14021520946,9.14772337191,0
n0=120,n=20,0.9,empirical,0.308618387166,2.07990068915,7.60019633294,8.41941680658,0
n0=120,n=40,0.1,drm-quadratic,0.0229104258292,2.22470395809,6.4749244539,6.54626301427,0
n0=120,n=40,0.1,parametric-normal,-0.0820594893717,2.08395800641,5.07130228144,5.09596107003,0
n0=120,n=40,0.1,empirical,-0.406103792466,2.56295012504,8.62148139871,8.85473481068,0
n0=120,n=40,0.5,drm-quadratic,-0.32879976413,1.36884591815,3.78989673424,3.911438773,0
n0=120,n=40,0.5,parametric-normal,-0.217646151082,1.51125548261,3.32450115645,3.48704418044,0
n0=120,n=40,0.5,empirical,-0.924694376173,1.51488191471,3.3312444798,4.18890095759,0
n0=120,n=40,0.9,drm-quadratic,-0.944004861917,1.82052272858,4.00076505231,4.8919666572,0
n0=120,n=40,0.9,parametric-normal,-1.33973168964,2.43636874112,5.6141523276,7.4115808527,0
n0=120,n=40,0.9,empirical,-0.606749653145,2.39323093376,9.09263634102,9.56588698142,0
"""


def study_size_data(r):
    """Replicate ``r`` of a study-size stream (seed 16): 5000 points of
    N(10, 0.8) and 500 of N(10.3, 0.9), near the log-scale groups of a
    revenue study."""
    rng = replicate_rng(16, r)
    return TwoSampleData(x0=sample(Normal(10.0, 0.8), 5000, rng),
                         x1=sample(Normal(10.3, 0.9), 500, rng))


def near_separated_data(r):
    """Replicate ``r`` of a stream (seed 30) of 30 points of N(0, 1) and 3 of
    N(2.5, 0.3), which the quadratic basis nearly separates: theta runs to
    50-260 over 14-16 steps."""
    rng = replicate_rng(30, r)
    return TwoSampleData(x0=sample(Normal(0.0, 1.0), 30, rng),
                         x1=sample(Normal(2.5, 0.3), 3, rng))


def other_split_data(r):
    """Replicate ``r`` of a stream (seed 17) of the populations of
    :func:`study_size_data` at 5100 and 400 points: the same n, another
    (n0, n1)."""
    rng = replicate_rng(17, r)
    return TwoSampleData(x0=sample(Normal(10.0, 0.8), 5100, rng),
                         x1=sample(Normal(10.3, 0.9), 400, rng))


# iterations, theta_hat and final gradient sup-norm, as float.hex, of the
# quadratic fit, recorded before each fit built its shape-only parts once
STUDY_SIZE_FITS = {
    (study_size_data, 0): (5, ["0x1.462c24029b1bbp+4", "-0x1.1c62801ac53cep+2",
                               "0x1.e7d4589fe9bccp-3"], "0x1.0000000000000p-36"),
    (study_size_data, 1): (5, ["0x1.192569cd7ececp+4", "-0x1.f0375adfef558p+1",
                               "0x1.adf536395d82ap-3"], "0x1.2000000000000p-34"),
    (study_size_data, 2): (5, ["0x1.dff396b452ef8p+2", "-0x1.0147820cce79ap+1",
                               "0x1.fd34fd2cc17d7p-4"], "0x1.6000000000000p-34"),
    (study_size_data, 3): (5, ["0x1.cbbeefcecb1fap+2", "-0x1.c8fc492f1b135p+0",
                               "0x1.b04636e16efe3p-4"], "0x1.4000000000000p-35"),
    (study_size_data, 4): (5, ["-0x1.a1eff03f561bcp+2", "0x1.c5e9d57b80128p-1",
                               "-0x1.85d2fb5233ecbp-6"], "0x1.c000000000000p-35"),
    (other_split_data, 0): (5, ["0x1.9a12ccab330f9p+3", "-0x1.7bb9155fa9d05p+1",
                                "0x1.5587f5376d8d7p-3"], "0x1.0000000000000p-37"),
    (near_separated_data, 4): (15, ["-0x1.682b715739439p+7", "0x1.3efaa1e3a54c3p+7",
                                    "-0x1.1509f12d64082p+5"], "0x1.0400000000000p-42"),
    (near_separated_data, 82): (14, ["-0x1.6fe16200285f3p+6", "0x1.2bfc09309956bp+6",
                                     "-0x1.d1b7d7a53c3e7p+3"], "0x1.38e0000000000p-37"),
    (near_separated_data, 132): (15, ["-0x1.034ae2f574901p+8", "0x1.c31e8fba67ad3p+7",
                                      "-0x1.812ceb5c45789p+5"], "0x1.56c0000000000p-38"),
}


def _fit_record(fit):
    return (fit.iterations, [t.hex() for t in fit.theta_hat.tolist()],
            fit.final_gradient_norm.hex())


@pytest.mark.parametrize("make, r", list(STUDY_SIZE_FITS),
                         ids=[f"{make.__name__}-{r}" for make, r in STUDY_SIZE_FITS])
def test_study_size_fit_is_pinned(make, r):
    assert _fit_record(fit_mele(make(r), BasisSpec.quadratic())) == STUDY_SIZE_FITS[make, r]


def test_fits_of_other_shapes_in_between_change_no_bit():
    # the workspace is keyed by shape: fits of another (n0, n1) at the same
    # n, of another n and of another dimension in between change no bit of
    # the fits that follow them
    import drmel.fit

    def everything(fit):
        return (_fit_record(fit), fit.log_el_at_max.hex(), fit.weights.tobytes(),
                fit.tilted_weights.tobytes())

    quadratic, linear = BasisSpec.quadratic(), BasisSpec.linear()
    drmel.fit._local.ws = None
    cold = everything(fit_mele(study_size_data(1), linear))
    for make, r in [(near_separated_data, 4), (study_size_data, 0), (other_split_data, 0),
                    (near_separated_data, 82), (other_split_data, 0), (study_size_data, 0)]:
        assert _fit_record(fit_mele(make(r), quadratic)) == STUDY_SIZE_FITS[make, r]
        assert everything(fit_mele(study_size_data(1), linear)) == cold
    ws = drmel.fit._workspace(5000, 500, 3)
    _, log_den, w = ws.zero
    assert not any(a.flags.writeable for a in (ws.place, log_den, w))


@pytest.mark.parametrize("r", sorted(TABLE1_FITS))
def test_table1_fit_is_pinned(r):
    fit = fit_mele(table1_data(r), BasisSpec.quadratic())
    iterations, theta = TABLE1_FITS[r]
    assert fit.iterations == iterations
    np.testing.assert_allclose(fit.theta_hat, theta, rtol=1e-12, atol=0)


@pytest.mark.parametrize("r", sorted(TABLE1_PICKS))
def test_table1_quantile_picks_are_pinned(r):
    data, spec = table1_data(r), BasisSpec.quadratic()
    g1 = estimate_g1(fit_mele(data, spec), data, spec)
    assert tuple(drm_quantile(g1, p) for p in (0.01, 0.05, 0.5)) == TABLE1_PICKS[r]


def test_small_scenario_table_is_pinned():
    scenario = Scenario(
        generator0=Normal(0.0, 1.0),
        generator1=Normal(0.0, 1.0),
        n1=40,
        k=5,
        basis=BasisSpec.quadratic(),
        levels=(0.01, 0.05, 0.5),
        reps=8,
        seed=0,
        methods=("drm", "parametric-normal", "empirical"),
        scenario_id="small",
    )
    buf = io.StringIO()
    run_scenario(scenario).to_csv(buf)
    assert buf.getvalue() == SMALL_TABLE


def test_exponential_scenario_table_is_pinned():
    scenario = Scenario(
        generator0=Exponential(1.0),
        generator1=Exponential(1.5),
        n1=40,
        k=5,
        basis=BasisSpec.linear(),
        levels=(0.05, 0.5, 0.99),
        reps=8,
        seed=0,
        methods=("drm", "parametric-exponential", "parametric-normal-common",
                 "drm-linear-log", "empirical"),
        scenario_id="small-exp",
    )
    buf = io.StringIO()
    run_scenario(scenario).to_csv(buf)
    assert buf.getvalue() == EXPONENTIAL_TABLE


def _study_populations():
    rng = np.random.default_rng(20240901)
    return {
        "base": Normal(10.0, 2.0).ppf(rng.random(300)),
        "t1": Normal(10.5, 2.2).ppf(rng.random(150)),
        "t2": Normal(9.5, 1.8).ppf(rng.random(150)),
    }


def test_resample_study_table_is_pinned():
    study = ResampleStudy(
        base="base",
        targets=("t1", "t2"),
        n0_grid=(60, 120),
        n_grid=(20, 40),
        levels=(0.1, 0.5, 0.9),
        methods=("drm-quadratic", "parametric-normal", "empirical"),
        reps=6,
        seed=3,
    )
    table = run_resample_study(study, _study_populations())
    buf = io.StringIO()
    table.to_csv(buf, include_abs_bias=True)
    assert buf.getvalue() == STUDY_TABLE
    assert run_resample_study(study, _study_populations(), workers=2).rows == table.rows


# n1 = 3 from N(0.5, 1.2) against 12 base points: drm fails in 3 of 40
# replicates, drm-linear in 1, and drm-linear-log, whose log needs positive
# samples, in all of them, so the table covers the all-failed aggregate
FAILURE_HEAVY_TABLE = """\
scenario_id,p,method,scaled_bias,scaled_var,scaled_mse,fail_frac
scenario,0.05,drm,1.17800780315,2.39328369532,3.78098607961,0.075
scenario,0.05,drm-linear,0.957394706005,1.85195951934,2.76856414242,0.025
scenario,0.05,drm-linear-log,nan,nan,nan,1
scenario,0.05,parametric-normal,1.09227925178,2.89163527691,4.08470924078,0
scenario,0.05,parametric-normal-common,0.91290138271,1.27379203283,2.10718096738,0
scenario,0.05,empirical,1.74291721054,2.19220001249,5.22996041527,0
scenario,0.5,drm,0.396790036333,1.37120144202,1.52864377495,0.075
scenario,0.5,drm-linear,0.247590523445,1.3008890719,1.3621901392,0.025
scenario,0.5,drm-linear-log,nan,nan,nan,1
scenario,0.5,parametric-normal,0.124073810186,1.09155644894,1.10695075932,0
scenario,0.5,parametric-normal-common,0.124073810186,1.09155644894,1.10695075932,0
scenario,0.5,empirical,0.251818735302,1.74915135743,1.81256403288,0
scenario,0.9,drm,-0.5725086075,1.59062812667,1.91839423233,0.075
scenario,0.9,drm-linear,-0.627892617544,1.68971617596,2.08396531513,0.025
scenario,0.9,drm-linear-log,nan,nan,nan,1
scenario,0.9,parametric-normal,-0.63028218789,2.35992205466,2.75717769104,0
scenario,0.9,parametric-normal-common,-0.490523862183,1.2522713204,1.49288497977,0
scenario,0.9,empirical,-0.867405360658,2.07642062896,2.82881268866,0
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_failure_heavy_scenario_table_is_pinned(workers):
    scenario = Scenario(
        generator0=Normal(0.0, 1.0),
        generator1=Normal(0.5, 1.2),
        n1=3,
        k=4,
        basis=BasisSpec.quadratic(),
        levels=(0.05, 0.5, 0.9),
        reps=40,
        seed=3,
        methods=("drm", "drm-linear", "drm-linear-log", "parametric-normal",
                 "parametric-normal-common", "empirical"),
    )
    buf = io.StringIO()
    run_scenario(scenario, workers=workers).to_csv(buf)
    assert buf.getvalue() == FAILURE_HEAVY_TABLE


# drmel estimate on estimate_pair_csv, levels 0.05, 0.5 and 0.95
ESTIMATE_CSVS = {
    "drm": """\
level,method,point,std_error,ci_low,ci_high
0.05,drm,0.04681057541,0.01951918817,0.008553669597,0.08506748122
0.5,drm,0.7729712784,0.1091223197,0.5590954619,0.9868470949
0.95,drm,4.570021348,0.4091141929,3.768172264,5.371870431
""",
    "parametric-normal": """\
level,method,point,std_error,ci_low,ci_high
0.05,parametric-normal,-1.012612692,0.2364525236,-1.476051122,-0.5491742611
0.5,parametric-normal,1.255299875,0.154153737,0.9531641029,1.557435648
0.95,parametric-normal,3.523212442,0.2364525236,3.059774012,3.986650873
""",
    "parametric-normal-common": """\
level,method,point,std_error,ci_low,ci_high
0.05,parametric-normal-common,-0.6277375,0.1480628333,-0.9179353207,-0.3375396793
0.5,parametric-normal-common,1.255299875,0.1279931389,1.004437933,1.506161818
0.95,parametric-normal-common,3.138337251,0.1480628333,2.84813943,3.428535072
""",
    "parametric-exponential": """\
level,method,point,std_error,ci_low,ci_high
0.05,parametric-exponential,0.06438846606,0.007198849353,0.05027898059,0.07849795152
0.5,parametric-exponential,0.8701075694,0.09728098365,0.6794403451,1.060774794
0.95,parametric-exponential,3.76054235,0.4204414163,2.936492316,4.584592383
""",
    "empirical": """\
level,method,point,std_error,ci_low,ci_high
0.05,empirical,0.0249548848,0.06247367338,-0.09749126502,0.1474010346
0.5,empirical,0.776111261,0.1280266461,0.5251836456,1.027038876
0.95,empirical,4.530793654,0.4814029846,3.587261142,5.474326166
""",
}


@pytest.fixture(scope="module")
def estimate_pair_csv(tmp_path_factory):
    """240 base points from Exponential(1.0) and 80 target points from
    Exponential(1.3), positive and of unit scale, so every method applies."""
    rng = np.random.default_rng(20241019)
    rows = ["group,value"]
    for label, population, n in (("base", Exponential(1.0), 240), ("target", Exponential(1.3), 80)):
        rows += [f"{label},{float(v)!r}" for v in population.ppf(rng.random(n))]
    path = tmp_path_factory.mktemp("estimate") / "pair.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("method", sorted(ESTIMATE_CSVS))
def test_estimate_csv_is_pinned(estimate_pair_csv, tmp_path, method):
    out = tmp_path / "estimate.csv"
    assert main(["estimate", "--data", str(estimate_pair_csv), "--value-col", "value",
                 "--group-col", "group", "--x0", "base", "--x1", "target", "--method", method,
                 "--basis", "quadratic", "--levels", "0.05,0.5,0.95", "--out", str(out)]) == 0
    assert out.read_text() == ESTIMATE_CSVS[method]
