"""Pins of the fitter and the scenario engine to values recorded from the
logaddexp kernel and row-major basis that the current kernel replaced; any
change to the arithmetic of the Newton loop that moves them shows here."""

import io

import numpy as np
import pytest

from drmel import (
    BasisSpec,
    Exponential,
    Normal,
    Scenario,
    TwoSampleData,
    fit_mele,
    run_scenario,
)
from drmel.simulate import replicate_rng, sample

# replicate r of the Table-1 stream (seed 20240824): iterations and theta_hat
TABLE1_FITS = {
    0: (4, [-0.026424230646010065, 0.022161976392529516, 0.02565515405939887]),
    1: (3, [0.023880735759990692, -0.009715545123745383, -0.02450637707498111]),
    2: (3, [-0.0046691278024485194, 0.001484267883099111, 0.004617838479581348]),
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


@pytest.mark.parametrize("r", sorted(TABLE1_FITS))
def test_table1_fit_is_pinned(r):
    rng = replicate_rng(20240824, r)
    x0 = sample(Normal(0.0, 1.0), 100_000, rng)
    x1 = sample(Normal(0.0, 1.0), 1_000, rng)
    fit = fit_mele(TwoSampleData(x0=x0, x1=x1), BasisSpec.quadratic())
    iterations, theta = TABLE1_FITS[r]
    assert fit.iterations == iterations
    np.testing.assert_allclose(fit.theta_hat, theta, rtol=1e-12, atol=0)


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
