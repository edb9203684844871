"""Two-sample density ratio model estimation via empirical likelihood.

Fit the exponential-tilt parameter linking a large base sample to a small
target sample, estimate the target distribution and its quantiles with
plug-in asymptotic variances, and benchmark against parametric MLEs and
empirical quantiles through deterministic Monte Carlo and resampling
studies.
"""

from .basis import BasisSpec, evaluate_matrix
from .errors import (
    CsvParseError,
    DegenerateSampleError,
    DegenerateVarianceError,
    DomainError,
    DrmError,
    EmptyGroupError,
    InvalidArgumentError,
    InvalidLevelError,
    NonConvergenceError,
    NonpositiveDensityError,
    SingularBasisError,
    SingularMomentError,
)
from .estimators import (
    FittedDrm,
    QuantileEstimate,
    WeightedCdf,
    avar_g1_at,
    avar_quantile,
    avar_theta,
    avar_theta_inverse_form,
    corollary_variance,
    drm_quantile,
    drm_quantile_estimate,
    estimate_g0,
    estimate_g1,
)
from .fit import (
    DrmFit,
    TwoSampleData,
    dual_log_el,
    fit_mele,
    hessian,
    score,
)
from .nonparametric import (
    Ecdf,
    KdeModel,
    empirical_quantile,
    empirical_quantile_avar,
    kde_density,
    silverman_bandwidth,
)
from .parametric import (
    Exponential,
    Normal,
    ParametricFamily,
    fit_parametric,
    parametric_quantile,
    parametric_quantile_avar,
    theta_from_submodel,
)
from .pipeline import ColumnSpec, ResampleStudy, ingest_csv, run_resample_study
from .simulate import (
    Scenario,
    SimulationTable,
    corollary_curve,
    run_scenario,
)

__version__ = "0.1.0"
