"""Compare the model-based quantile variance with its benchmarks.

For a target quantile at level p the limiting variance of
sqrt(n1) * (xi_hat - xi) interpolates between two extremes as the base
sample grows relative to the target sample (k = n0/n1):

    sigma^2(k) = p(1-p)/g(xi)^2 / (k+1)  +  k/(k+1) * parametric avar

At k = 0 this is the one-sample empirical variance; as k -> infinity it
drops to the variance of the parametric MLE, even though the density ratio
fit never assumes the parametric family.
"""

import numpy as np

from drmel import (
    BasisSpec,
    FittedDrm,
    Normal,
    TwoSampleData,
    avar_quantile,
    avar_theta,
    avar_theta_inverse_form,
    corollary_curve,
    KdeModel,
    kde_density,
)

rng = np.random.default_rng(11)
gen = Normal(0.0, 1.0)
p = 0.05

print("analytic variance of the p=0.05 quantile as the base sample grows:")
ks = [0, 1, 10, 100, 1000]
for k, v in zip(ks, corollary_curve(gen, p, ks)):
    print(f"  k={k:5d}: {v:8.4f}")
print(f"  parametric limit: {gen.quantile_avar(p):8.4f}")
print(f"  empirical (k=0):  {0.05 * 0.95 / gen.density_at_quantile(p) ** 2:8.4f}")

# plug-in variance from one fitted model, with a KDE density estimate
data = TwoSampleData(x0=rng.normal(0, 1, 20000), x1=rng.normal(0, 1, 1000))
spec = BasisSpec.quadratic()
model = FittedDrm(data, spec)

kde = KdeModel.silverman(data.x1)
density = kde_density(kde, np.quantile(data.x1, p))
plug_in = avar_quantile(model, p, density_at=float(density))
print(f"\nplug-in variance at k=20: {plug_in:.4f} "
      f"(analytic {corollary_curve(gen, p, [20])[0]:.4f})")

# the two algebraic forms of the tilt-parameter variance agree exactly
a = avar_theta(model)
b = avar_theta_inverse_form(model)
print(f"variance-form agreement: max gap {np.max(np.abs(a - b)):.2e}")
