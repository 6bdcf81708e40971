"""Plug-in variance and covariance estimation, confidence intervals and
simultaneous bands for the known-error ratio estimator.

The root-n limit of the ratio estimator is a Gaussian process with
covariance E[f(x1 - W) f(x2 - W) (Y - m(x1)) (Y - m(x2))] / (f_X(x1) f_X(x2));
the plug-in versions below average the centered products over the sample.
Pointwise intervals follow from the normal limit; simultaneous bands
simulate the estimated limit process and take the empirical quantile of its
studentized supremum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .data import EvalGrid, RegressionCurve, TrainingSample
from .densities import ErrorDensity
from .errors import DegenerateDenominatorError
from .known import (
    _block_len, _centered_variance, _defined, _flat_support, _kernel_moments, _known_curve,
    _moments_at,
)

# Covariance eigenvalues below this fraction of the largest are zeroed
# before taking the symmetric square root.
EIGENVALUE_CLIP = 1e-12


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
    """Plug-in covariance of the limit process on a grid: exactly symmetric
    with a nonnegative diagonal, as :func:`covariance_matrix` builds it."""

    grid: EvalGrid
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.shape != (len(self.grid), len(self.grid)):
            raise ValueError("covariance shape does not match grid")
        if not np.array_equal(m, m.T):
            raise ValueError("covariance matrix is not symmetric")
        if not np.all(np.diag(m) >= 0):
            raise ValueError("covariance diagonal has a negative entry")
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


def _interval(num, den, v, n, alpha):
    """(1 - alpha) interval num/den +- z(1 - alpha/2) sqrt(v / n)."""
    est = num / den
    half = ndtri(1.0 - alpha / 2.0) * np.sqrt(v) / np.sqrt(n)
    return est - half, est + half


def variance_at(sample: TrainingSample, err: ErrorDensity, x: float) -> float:
    """Plug-in variance of the root-n-scaled estimate at ``x``.

    It is the centered mean(k^2 (y - m_hat)^2) / den^2 with k = f(x - w),
    evaluated on responses shifted by their median: >= 0 by construction,
    exactly 0 where the responses on the kernel support of ``x`` take one
    value, and unchanged (to roundoff in the responses) when they shift by
    a constant. :func:`pointwise_band` and :func:`simultaneous_band` give
    each grid point the same bits.
    """
    return float(_moments_at(err._pdf_into, x, sample.w, sample.y, _centered_variance)[2][0])


def covariance_matrix(
    sample: TrainingSample, err: ErrorDensity, grid: EvalGrid
) -> CovarianceMatrix:
    """Plug-in covariance of the limit process on all grid-point pairs.

    The rows and columns of points with zero :func:`variance_at` (the
    responses on their kernel support take one value) are exactly 0.

    Raises
    ------
    DegenerateDenominatorError
        Naming the first grid point where the ratio is undefined.
    """
    x = grid.points
    den, num, flat = _moments_at(err._pdf_into, x, sample.w, sample.y, _flat_support)
    return CovarianceMatrix(grid=grid,
                            entries=_centered_covariance(sample, err, x, den, num, flat))


def _centered_covariance(sample, err, x, den, num, zero):
    """The covariance entries on the points ``x`` from their den/num.

    The rows and columns of the points in the mask ``zero``, those with flat
    responses on their kernel support, are exactly 0, as their centered
    terms are; the rounded m_hat alone would leave roundoff there.
    """
    w, y, n = sample.w, sample.y, sample.n
    # B B^T / n for the centered factor B = k (y - m_hat) / den, summed over
    # blocks of sample columns; numpy runs b @ b.T as a symmetric rank-k
    # update, so the sum is exactly symmetric with a nonnegative diagonal
    m_hat = num / den
    cov = np.zeros((len(x), len(x)))
    step = _block_len(len(x))
    # flat buffers, so that every block, the last one too, is contiguous
    size = len(x) * min(step, n)
    u_buf, b_buf = np.empty(size), np.empty(size)
    for start in range(0, n, step):
        cols = slice(start, start + step)
        shape = (len(x), len(w[cols]))
        u = u_buf[: shape[0] * shape[1]].reshape(shape)
        b = b_buf[: u.size].reshape(shape)
        # the kernel may be a custom pdf's own array, so b is built beside it
        k = err._pdf_into(np.subtract(x[:, None], w[None, cols], out=u))
        np.subtract(y[None, cols], m_hat[:, None], out=b)
        b *= k
        b /= den[:, None]
        cov += b @ b.T
    cov /= n
    cov[zero] = cov[:, zero] = 0.0
    return cov


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
    den, num, var = _moments_at(err._pdf_into, x, sample.w, sample.y, _centered_variance)
    return _interval(float(num[0]), float(den[0]), var[0], sample.n, alpha)


def pointwise_band(
    sample: TrainingSample, err: ErrorDensity, grid: EvalGrid, alpha: float = 0.05
) -> RegressionCurve:
    """:func:`pointwise_ci` on every grid point from one grid-by-sample
    kernel matrix.

    Grid points with a degenerate denominator carry NaN in every column.
    The variance is :func:`variance_at`'s centered form, from row means of
    each kernel block, so each point gets the value it gets alone.

    Raises
    ------
    DegenerateDenominatorError
        If every grid point is undefined.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if sample.n < 2:
        raise ValueError("confidence interval needs n >= 2")
    den, num, var = _kernel_moments(err._pdf_into, grid.points, sample.w, sample.y,
                                    _centered_variance)
    ok = _defined(den)
    if not np.any(ok):
        raise DegenerateDenominatorError("interval undefined on the whole grid")
    num[~ok] = var[~ok] = np.nan
    lower, upper = _interval(num, den, var, sample.n, alpha)
    return RegressionCurve(
        grid=grid,
        values=num / den,
        variance=var,
        band_lower=lower,
        band_upper=upper,
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
    covariance (scaled by 1/n, via the symmetric square root V sqrt(L) V^T
    with eigenvalue clipping, which does not depend on the signs of the
    eigenvectors), takes the empirical (1 - alpha) quantile q of the studentized
    supremum over the grid points with positive variance, and returns bands
    estimate +- q * sqrt(variance/n). The variance is :func:`variance_at`'s
    at each point, bit for bit, from the same pass as the fit; it is exactly
    0 at points whose kernel support holds a single response value, and the
    covariance rows and columns of those points are 0. The covariance only
    shapes the draws.

    A covariance that is exactly zero (the responses are constant on every
    point's kernel support, constant responses in particular) yields
    q = 0, zero-width bands, and ``meta["degenerate_covariance"] = True``.

    Raises
    ------
    DegenerateDenominatorError
        Naming the first grid point where the ratio is undefined.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if n_sim < 1:
        raise ValueError("n_sim must be positive")
    # one pass gives the fit and the pointwise variance; the covariance,
    # built in a second, only shapes the draws
    den, num, var = _moments_at(err._pdf_into, grid.points, sample.w, sample.y,
                                _centered_variance)
    curve = _known_curve(err, grid, den, num)
    cov = _centered_covariance(sample, err, grid.points, den, num, var == 0)
    n = sample.n
    se = np.sqrt(var / n)
    meta = dict(curve.meta)
    meta.update({"alpha": alpha, "n_sim": n_sim, "seed": seed, "kind": "simultaneous"})
    if not np.any(var > 0):
        meta["degenerate_covariance"] = True

    eigval, eigvec = np.linalg.eigh(cov)
    eigval[eigval < EIGENVALUE_CLIP * eigval.max()] = 0.0
    root = (eigvec * np.sqrt(eigval)[None, :]) @ eigvec.T

    # points with zero variance drop out of the sup: |draw| / inf = 0, so a
    # zero covariance gives q = 0
    scale = np.where(var > 0, se, np.inf)
    # the draws in blocks of rows, in the generator's stream order; only each
    # row's sup is kept
    rng = np.random.default_rng(seed)
    sups = np.empty(n_sim)
    step = min(_block_len(len(grid)), n_sim)
    z, draws = np.empty((step, len(grid))), np.empty((step, len(grid)))
    for start in range(0, n_sim, step):
        block = sups[start:start + step]
        d = np.matmul(rng.standard_normal(out=z[: len(block)]), root, out=draws[: len(block)])
        d /= np.sqrt(n)
        np.abs(d, out=d)
        d /= scale
        np.max(d, axis=1, out=block)
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
