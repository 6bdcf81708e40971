"""Linear proxy calibration: when the precise predictor is itself a linear
function of an observed covariate, fit that line by least squares on
calibration pairs, impute predictors on the analysis sample, and run the
usual estimators on the imputed values.

Only the linear relationship is implemented; the impute-then-estimate seam
is the extension point for other parametric forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EvalGrid, RegressionCurve, TrainingSample
from .densities import ErrorDensity
from .errors import DegenerateDesignError
from .fourier import CfSource, FourierConfig, fit_fourier
from .known import _U, fit_known


@dataclass(frozen=True)
class LinearProxyFit:
    """Least-squares line fitted to calibration pairs.

    ``residual_variance`` is the unbiased residual variance from the
    fitting sample (divisor n_obs - 2, the two fitted parameters; defined
    as 0 for the exactly-determined n_obs == 2 case).
    """

    intercept: float
    slope: float
    n_obs: int
    residual_variance: float

    def __post_init__(self):
        if self.n_obs < 2:
            raise ValueError("fit needs at least 2 pairs")
        if self.residual_variance < 0:
            raise ValueError("residual variance must be nonnegative")


def fit_linear_proxy(t, x) -> LinearProxyFit:
    """Ordinary least squares of ``x`` on ``t``.

    Raises
    ------
    DegenerateDesignError
        If ``t`` has (numerically) no variation.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if t.shape != x.shape or t.ndim != 1:
        raise ValueError("t and x must be aligned 1-d arrays")
    r = len(t)
    if r < 2:
        raise ValueError(f"need at least 2 pairs, got {r}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
        raise ValueError("pairs contain non-finite entries")
    t_mean = t.mean()
    x_mean = x.mean()
    s_tt = float(np.sum((t - t_mean) ** 2))
    # r terms summed in any order err by at most (r - 1) u sum|t|, and the
    # division by r adds u |mean|: the mean, and so each centred value of a
    # constant t, is off by at most r u max|t|. An RMS within twice that is no spread.
    if math.sqrt(s_tt / r) <= 2.0 * r * _U * float(np.max(np.abs(t))):
        raise DegenerateDesignError("all t values are (numerically) equal")
    slope = float(np.sum((t - t_mean) * (x - x_mean))) / s_tt
    intercept = x_mean - slope * t_mean
    resid = x - intercept - slope * t
    var = float(np.sum(resid**2) / (r - 2)) if r > 2 else 0.0
    return LinearProxyFit(
        intercept=intercept, slope=slope, n_obs=r, residual_variance=max(var, 0.0)
    )


def impute_predictors(fit: LinearProxyFit, t) -> np.ndarray:
    """Map covariate values through the fitted line."""
    return fit.intercept + fit.slope * np.asarray(t, dtype=float)


def error_variance(fit: LinearProxyFit, t, x) -> float:
    """Unbiased sample variance of x - imputed(t) on an evaluation sample.

    The evaluation sample may differ from the one used for fitting, so the
    divisor is count - 1 (no parameters were estimated from it).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if t.shape != x.shape or t.ndim != 1:
        raise ValueError("t and x must be aligned 1-d arrays")
    if len(t) < 2:
        raise ValueError("error-variance estimate needs at least 2 pairs")
    resid = x - impute_predictors(fit, t)
    return float(np.var(resid, ddof=1))


def fit_known_proxy(
    fit: LinearProxyFit, t, y, err: ErrorDensity, grid: EvalGrid
) -> RegressionCurve:
    """Known-error ratio estimator with predictors imputed from ``t``."""
    sample = TrainingSample(impute_predictors(fit, t), y)
    curve = fit_known(sample, err, grid)
    curve.meta["proxy"] = {"intercept": fit.intercept, "slope": fit.slope}
    return curve


def fit_fourier_proxy(
    fit: LinearProxyFit,
    t,
    y,
    cf_source: CfSource,
    cfg: FourierConfig,
    grid: EvalGrid,
) -> RegressionCurve:
    """Fourier-inversion estimator with predictors imputed from ``t``."""
    sample = TrainingSample(impute_predictors(fit, t), y)
    curve = fit_fourier(sample, cf_source, cfg, grid)
    curve.meta["proxy"] = {"intercept": fit.intercept, "slope": fit.slope}
    return curve
