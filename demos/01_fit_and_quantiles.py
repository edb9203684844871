"""Fit a density ratio model and read off distribution and quantile estimates.

Two samples are linked by g1(x) = g0(x) * exp(theta' q(x)). Maximizing the
dual profile empirical likelihood gives the tilt estimate theta_hat together
with base-measure masses over the pooled sample; tilting those masses gives
the target distribution. Both estimated CDFs use every observation from both
samples, which is where the efficiency gain over the one-sample empirical
CDF comes from.
"""

import numpy as np

from drmel import (
    BasisSpec,
    FittedDrm,
    TwoSampleData,
    drm_quantile,
    drm_quantile_estimate,
    estimate_g0,
    estimate_g1,
)

rng = np.random.default_rng(7)

# a large base sample and a small target sample from the same normal family;
# the quadratic basis (1, x, x^2) makes the normal-vs-normal ratio exact
data = TwoSampleData(x0=rng.normal(0.0, 1.0, 5000), x1=rng.normal(0.3, 1.1, 300))
spec = BasisSpec.quadratic()

# one FittedDrm fits the pair on the basis and keeps the fit with its data and
# basis; every estimand reads it, and it computes the sort, the moments and
# the KDE they share once
model = FittedDrm(data, spec)
fit = model.fit
print("theta_hat:", np.round(fit.theta_hat, 4))
print(f"converged in {fit.iterations} iterations, "
      f"gradient norm {fit.final_gradient_norm:.2e}")

g0 = estimate_g0(model)
g1 = estimate_g1(model)
print(f"mass totals: base {g0.total_mass():.12f}, target {g1.total_mass():.12f}")

for p in (0.05, 0.5, 0.95):
    est = drm_quantile_estimate(model, p)
    print(
        f"p={p:4}: target quantile {est.point:7.4f} "
        f"(se {est.std_error:.4f}, 95% CI [{est.ci_low:.4f}, {est.ci_high:.4f}])"
    )

# the point estimate is just the generalized inverse of the tilted CDF
assert drm_quantile(g1, 0.5) == drm_quantile_estimate(model, 0.5).point
