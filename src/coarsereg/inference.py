"""Plug-in variance and covariance estimation, confidence intervals and
simultaneous bands for the known-error ratio estimator.

The root-n limit of the ratio estimator is a Gaussian process whose
covariance is a rational expression in five product-kernel moments; the
plug-in versions below replace each moment by its sample average. Pointwise
intervals follow from the normal limit; simultaneous bands simulate the
estimated limit process and take the empirical quantile of its studentized
supremum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .data import EvalGrid, RegressionCurve, TrainingSample
from .densities import ErrorDensity
from .errors import DegenerateDenominatorError
from .known import DEGENERACY_THRESHOLD, fit_known

# Plug-in variances this close to zero (from roundoff) are clamped to 0.
NEGATIVE_VARIANCE_TOL = 1e-10

# Covariance eigenvalues below this fraction of the largest are zeroed
# before taking the symmetric square root.
EIGENVALUE_CLIP = 1e-12

# Studentization floor for the sup-band quantile at near-degenerate points.
STUDENTIZATION_FLOOR = 1e-12


@dataclass(frozen=True)
class ProductMoments:
    """Sample averages with the product kernel k(x1 - w_i) k(x2 - w_i).

    ``plain`` weights each term by 1, ``response`` by y_i and
    ``response_sq`` by y_i**2.
    """

    x1: float
    x2: float
    plain: float
    response: float
    response_sq: float


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric plug-in covariance of the limit process on a grid."""

    grid: EvalGrid
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.shape != (len(self.grid), len(self.grid)):
            raise ValueError("covariance shape does not match grid")
        if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
            raise ValueError("covariance matrix is not symmetric")
        if np.min(np.diag(m)) < -1e-9:
            raise ValueError("covariance diagonal has a significant negative entry")
        # tiny negative diagonal values are roundoff; clamp
        d = np.arange(m.shape[0])
        m[d, d] = np.maximum(m[d, d], 0.0)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


def product_moments(
    sample: TrainingSample, err: ErrorDensity, x1: float, x2: float
) -> ProductMoments:
    """The three product-kernel sample averages at (x1, x2)."""
    k = err.pdf(x1 - sample.w) * err.pdf(x2 - sample.w)
    return ProductMoments(
        x1=float(x1),
        x2=float(x2),
        plain=float(np.mean(k)),
        response=float(np.mean(sample.y * k)),
        response_sq=float(np.mean(sample.y**2 * k)),
    )


def _ratio_parts(sample, err, x):
    k = err.pdf(np.asarray(x, dtype=float) - sample.w)
    den = float(np.mean(k))
    if den < DEGENERACY_THRESHOLD:
        raise DegenerateDenominatorError(
            f"denominator {den:.3e} below {DEGENERACY_THRESHOLD:.0e} at x={x}"
        )
    num = float(np.mean(sample.y * k))
    return num, den


def variance_at(sample: TrainingSample, err: ErrorDensity, x: float) -> float:
    """Plug-in variance of the root-n-scaled estimate at ``x``.

    Clamped to 0 when roundoff drives the expression slightly negative.
    """
    num, den = _ratio_parts(sample, err, x)
    m = product_moments(sample, err, x, x)
    v = (
        m.response_sq / den**2
        + num**2 * m.plain / den**4
        - 2.0 * num * m.response / den**3
    )
    if v < 0:
        if v < -NEGATIVE_VARIANCE_TOL:
            raise ValueError(f"plug-in variance {v:.3e} is significantly negative")
        v = 0.0
    return v


def covariance_matrix(
    sample: TrainingSample, err: ErrorDensity, grid: EvalGrid
) -> CovarianceMatrix:
    """Plug-in covariance of the limit process on all grid-point pairs.

    Raises
    ------
    DegenerateDenominatorError
        Naming the first offending grid point if any denominator is
        degenerate.
    """
    x = grid.points
    k = err.pdf(x[:, None] - sample.w[None, :])  # (grid, n)
    den = np.mean(k, axis=1)
    bad = den < DEGENERACY_THRESHOLD
    if np.any(bad):
        raise DegenerateDenominatorError(
            f"denominator degenerate at grid point x={x[bad][0]:.6g}"
        )
    n = sample.n
    num = k @ sample.y / n
    plain = k @ k.T / n
    resp = k @ (sample.y[:, None] * k.T) / n
    resp_sq = k @ (sample.y[:, None] ** 2 * k.T) / n

    dd = np.outer(den, den)
    cov = (
        resp_sq / dd
        + plain * np.outer(num, num) / dd**2
        - resp * (np.outer(num, den) + np.outer(den, num)) / dd**2
    )
    cov = 0.5 * (cov + cov.T)  # restore exact symmetry lost to roundoff
    return CovarianceMatrix(grid=grid, entries=cov)


def pointwise_ci(
    sample: TrainingSample, err: ErrorDensity, x: float, alpha: float
) -> tuple:
    """Asymptotic (1 - alpha) confidence interval for the regression at x.

    Endpoints are estimate +- n**-0.5 * sqrt(variance) * z(1 - alpha/2);
    the root-n factor undoes the root-n scaling of the limit variance.
    alpha == 1 is accepted and gives the degenerate zero-width interval.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if sample.n < 2:
        raise ValueError("confidence interval needs n >= 2")
    num, den = _ratio_parts(sample, err, x)
    est = num / den
    half = (
        ndtri(1.0 - alpha / 2.0)
        * np.sqrt(variance_at(sample, err, x))
        / np.sqrt(sample.n)
    )
    return est - half, est + half


def pointwise_band(
    sample: TrainingSample, err: ErrorDensity, grid: EvalGrid, alpha: float = 0.05
) -> RegressionCurve:
    """:func:`pointwise_ci` on every grid point from one grid-by-sample
    kernel matrix.

    Grid points with a degenerate denominator carry NaN in every column.
    The variance is :func:`variance_at`'s expression, evaluated on row
    means of the kernel and of its square.

    Raises
    ------
    DegenerateDenominatorError
        If every grid point is undefined.
    ValueError
        If a defined point's plug-in variance is significantly negative.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if sample.n < 2:
        raise ValueError("confidence interval needs n >= 2")
    y = sample.y
    k = err.pdf(grid.points[:, None] - sample.w[None, :])
    den = np.mean(k, axis=1)
    ok = den >= DEGENERACY_THRESHOLD
    if not np.any(ok):
        raise DegenerateDenominatorError("interval undefined on the whole grid")
    num = k @ y / sample.n
    k *= k
    plain, resp, resp_sq = (k @ np.column_stack([np.ones_like(y), y, y**2]) / sample.n).T
    with np.errstate(divide="ignore", invalid="ignore"):
        var = (
            resp_sq / den**2
            + num**2 * plain / den**4
            - 2.0 * num * resp / den**3
        )
        values = num / den
    var[~ok] = np.nan
    values[~ok] = np.nan
    negative = var < -NEGATIVE_VARIANCE_TOL
    if np.any(negative):
        raise ValueError(f"plug-in variance {var[negative][0]:.3e} is significantly negative")
    var = np.maximum(var, 0.0)
    half = ndtri(1.0 - alpha / 2.0) * np.sqrt(var) / np.sqrt(sample.n)
    return RegressionCurve(
        grid=grid,
        values=values,
        variance=var,
        band_lower=values - half,
        band_upper=values + half,
        meta={"estimator": "known-error ratio", "alpha": alpha, "kind": "pointwise"},
    )


def simultaneous_band(
    sample: TrainingSample,
    err: ErrorDensity,
    grid: EvalGrid,
    alpha: float = 0.05,
    n_sim: int = 10_000,
    seed: int = 0,
) -> RegressionCurve:
    """Simultaneous (1 - alpha) confidence band over the grid.

    Simulates ``n_sim`` mean-zero Gaussian vectors with the plug-in
    covariance (scaled by 1/n, via a symmetric square root with eigenvalue
    clipping), takes the empirical (1 - alpha) quantile q of the studentized
    supremum, and returns bands estimate +- q * sqrt(variance/n).

    A covariance that is identically zero (constant responses) yields
    zero-width bands with ``meta["degenerate_covariance"] = True``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if n_sim < 1:
        raise ValueError("n_sim must be positive")
    curve = fit_known(sample, err, grid)
    if not np.all(curve.defined):
        raise DegenerateDenominatorError("band needs the fit defined on the whole grid")
    cov = covariance_matrix(sample, err, grid).entries
    var = np.diag(cov).copy()
    n = sample.n
    se = np.sqrt(var / n)
    meta = dict(curve.meta)
    meta.update({"alpha": alpha, "n_sim": n_sim, "seed": seed, "kind": "simultaneous"})

    if np.max(np.abs(cov)) <= NEGATIVE_VARIANCE_TOL:
        meta["degenerate_covariance"] = True
        meta["sup_quantile"] = 0.0
        return RegressionCurve(
            grid=grid,
            values=curve.values,
            variance=var,
            band_lower=curve.values.copy(),
            band_upper=curve.values.copy(),
            meta=meta,
        )

    eigval, eigvec = np.linalg.eigh(cov)
    eigval[eigval < EIGENVALUE_CLIP * eigval.max()] = 0.0
    root = eigvec * np.sqrt(eigval)[None, :]

    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n_sim, len(grid))) @ root.T / np.sqrt(n)
    denom = np.sqrt(np.maximum(var / n, STUDENTIZATION_FLOOR))
    sups = np.max(np.abs(draws) / denom[None, :], axis=1)
    q = float(np.quantile(sups, 1.0 - alpha))

    meta["sup_quantile"] = q
    half = q * se
    return RegressionCurve(
        grid=grid,
        values=curve.values,
        variance=var,
        band_lower=curve.values - half,
        band_upper=curve.values + half,
        meta=meta,
    )
