"""Root-n nonparametric regression for coarsened predictors.

A training sample with precise predictors plus a known (or replicate-
estimated) contamination law yields a bandwidth-free, root-n-consistent
estimate of the regression of the response on the contaminated predictor,
together with plug-in variances, confidence intervals and bands, extremum
and zero location, a proxy-calibration extension, a kernel-regression
baseline, and a replication-study harness.
"""

__version__ = "0.1.0"

from .data import EvalGrid, RegressionCurve, ReplicatedSample, TrainingSample
from .densities import ErrorDensity
from .errors import (
    CoarseRegError,
    DataFormatError,
    DegenerateDenominatorError,
    DegenerateDesignError,
    MissingCFError,
    MissingDecayError,
    ResolutionError,
    UnsupportedDerivativeError,
)
from .fourier import (
    CfTable,
    FourierConfig,
    empirical_cfs,
    error_cf_from_replicates,
    fit_fourier,
    invert_cf,
    select_cutoff,
    symmetric_tgrid,
)
from .inference import (
    CovarianceMatrix,
    ProductMoments,
    covariance_matrix,
    pointwise_band,
    pointwise_ci,
    product_moments,
    simultaneous_band,
    variance_at,
)
from .known import (
    DEGENERACY_THRESHOLD,
    find_extremum,
    find_zeros,
    fit_known,
    predictor_density,
    regression_at,
    regression_derivative_at,
    response_weighted_density,
)
from .nw import cv_bandwidth, fit_nw, nw_estimate
from .proxy import (
    LinearProxyFit,
    error_variance,
    fit_fourier_proxy,
    fit_known_proxy,
    fit_linear_proxy,
    impute_predictors,
)
from .simulation import (
    EstimatorSpec,
    ScenarioConfig,
    SimulatedDataset,
    StudyReport,
    calibrate,
    default_grid,
    generate,
    integrated_squared_error,
    make_density,
    regression_bound,
    regression_function,
    run_replications,
    true_regression,
)
