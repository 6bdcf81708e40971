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

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import EvalGrid, RegressionCurve, TrainingSample
from .densities import ErrorDensity
from .errors import DegenerateDenominatorError
from .known import (
    _block_len, _defined, _kernel_moments, _moments_at, _row_blocks, _scratch,
)

# Covariance eigenvalues below this fraction of the largest are zeroed
# before taking the symmetric square root.
EIGENVALUE_CLIP = 1e-12

# OpenBLAS's thread-count getter and setter under the names its builds
# export: numpy's wheels (scipy-openblas), other 64-bit-integer builds, and
# plain builds.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas_lock = threading.Lock()
# blocks inside _one_blas_thread, and the thread count the first one in found
_blas_depth = 0
_blas_restore = 1


@lru_cache(maxsize=None)
def _openblas():
    """The (get, set) thread-count calls of the OpenBLAS numpy loaded, or
    None where numpy's BLAS is another library or the lookup fails; looked up
    once, at the first band."""
    try:
        from numpy.linalg import _umath_linalg

        # a handle on numpy's LAPACK module also resolves the symbols of the
        # libraries it links, its BLAS among them
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_CALLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the count after.

    The band's rank-k update, ``eigh`` and draw products split their work
    among the BLAS threads in a way that moves their last bits, and a second
    thread buys them no wall time while it keeps spinning into whatever runs
    next. Nested or concurrent blocks share one pin: the first in sets the
    count to 1 (only if it was above 1) and the last out restores it. Where
    numpy's BLAS is not OpenBLAS this does nothing.
    """
    global _blas_depth, _blas_restore
    calls = _openblas()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        if _blas_depth == 0:
            _blas_restore = get()
            if _blas_restore > 1:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0 and _blas_restore > 1:
                set_(_blas_restore)


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


def _check_alpha(alpha, n, n_sim=1):
    """Every interval's preconditions, in order: alpha, the band's n_sim, n."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if n_sim < 1:
        raise ValueError("n_sim must be positive")
    if n < 2:
        raise ValueError("confidence interval needs n >= 2")


# Cephes ndtri (S. L. Moshier, "Methods and Programs for Mathematical
# Functions", 1989), the algorithm scipy.special.ndtri runs: a rational
# function of (p - 1/2)^2 on [exp(-2), 1 - exp(-2)]; in the tails, with y
# the smaller of p and 1 - p and x = sqrt(-2 log y), one of 1/x for x in
# [2, 8) and another for x in [8, 64).
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Horner's rule on ``coef``, highest power first, in Cephes' order; a
    leading 1.0 gives Cephes' ``p1evl`` bits, as 1.0 * x is exact."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(p: float) -> float:
    """The standard normal quantile, bit for bit as Cephes' ``ndtri``:
    -inf at 0, inf at 1 and NaN outside [0, 1]."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return x if upper else -x


def _interval(num, den, v, n, alpha):
    """(1 - alpha) interval num/den +- z(1 - alpha/2) sqrt(v / n)."""
    est = num / den
    half = _ndtri(1.0 - alpha / 2.0) * np.sqrt(v) / np.sqrt(n)
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
    return float(_moments_at(err._pdf_into, x, sample.w, sample.y, variance=True)[2][0])


def covariance_matrix(
    sample: TrainingSample, err: ErrorDensity, grid: EvalGrid
) -> CovarianceMatrix:
    """Plug-in covariance of the limit process on all grid-point pairs: the
    matrix :func:`simultaneous_band` decomposes, bit for bit, from the same
    step, :func:`_centered_covariance`, so with the same zero rows.

    Raises
    ------
    DegenerateDenominatorError
        Naming the first grid point where the ratio is undefined.
    """
    with _one_blas_thread():
        return CovarianceMatrix(grid, _centered_covariance(sample, err, grid.points)[4])


def _centered_covariance(sample, err, x):
    """The band's one step on the points ``x``: (den, num, var, se, cov).

    A first pass gives den, num and :func:`variance_at`'s var, and
    se = sqrt(var / n); a second builds cov. Its rows and columns where se
    is 0 (var is 0, or var / n underflows) are exactly 0: where var is 0 the
    centered terms are too, but the rounded m_hat alone would leave roundoff.
    Raises DegenerateDenominatorError naming the first undefined point.
    """
    w, y, n = sample.w, sample.y, sample.n
    den, num, var = _moments_at(err._pdf_into, x, w, y, variance=True)
    se = np.sqrt(var / n)
    # B B^T / n for the centered factor B = k (y - m_hat) / den, summed over
    # blocks of sample columns; numpy runs b @ b.T as a symmetric rank-k
    # update, so the sum is exactly symmetric with a nonnegative diagonal.
    # A block also pays a G x G product and sum, so it holds at least 2G
    # columns, where that costs at most about half its kernel: a 512 KiB
    # block was 1.8x slower at G = 512. Two G x 2G blocks are O(G^2)
    # memory, like the covariance itself. The blocks are shared with the
    # pool thread of known._row_blocks, each thread building a block's
    # kernel and product, and the products are added into cov in block
    # order, from zeros, so the sum is the serial one, bit for bit; a
    # thread holds at most one G x G product waiting for its turn.
    m_hat = num / den
    span = max(x.max() - w.min(), w.max() - x.min())  # at least every |x - w|
    cov = np.zeros((len(x), len(x)))
    step = max(_block_len(len(x)), 2 * len(x))

    def product(start):
        cols = slice(start, start + step)
        shape = (len(x), len(w[cols]))
        # the kernel may be a custom pdf's own array, so b is built beside it
        k = err._pdf_into(np.subtract(x[:, None], w[None, cols], out=_scratch(0, shape)), span)
        b = np.subtract(y[None, cols], m_hat[:, None], out=_scratch(1, shape))
        b *= k
        del k  # a block over the budget is freed before the product
        b /= den[:, None]
        return b @ b.T

    # a custom density's pdf is the user's code, which need not be thread-safe
    _row_blocks(product, n, step, len(x), serial=err.kind == "custom",
                fold=lambda p: np.add(cov, p, out=cov))
    cov /= n
    cov[se == 0] = cov[:, se == 0] = 0.0
    return den, num, var, se, cov


def pointwise_ci(
    sample: TrainingSample, err: ErrorDensity, x: float, alpha: float
) -> tuple:
    """Asymptotic (1 - alpha) confidence interval for the regression at x.

    Endpoints are estimate +- n**-0.5 * sqrt(variance) * z(1 - alpha/2);
    the root-n factor undoes the root-n scaling of the limit variance.
    alpha == 1 is accepted and gives the degenerate zero-width interval.
    """
    _check_alpha(alpha, sample.n)
    den, num, var = _moments_at(err._pdf_into, x, sample.w, sample.y, variance=True)
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
    _check_alpha(alpha, sample.n)
    den, num, var = _kernel_moments(err._pdf_into, grid.points, sample.w, sample.y,
                                    variance=True)
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
    supremum over the grid points with a positive standard error
    sqrt(variance/n), and returns bands estimate +- q * sqrt(variance/n).
    The variance is :func:`variance_at`'s at each point, bit for bit, from
    the same pass as the fit; it is exactly 0 at points whose kernel support
    holds a single response value. The covariance is
    :func:`covariance_matrix`'s, bit for bit, and only shapes the draws.
    Both come from one step, :func:`_centered_covariance`, whose standard
    error decides which points leave the sup and have zero covariance rows.

    A standard error that is 0 everywhere (the responses are constant on
    every point's kernel support, or var / n underflows) yields q = 0,
    zero-width bands, and ``meta["degenerate_covariance"] = True``.

    Raises
    ------
    ValueError
        If ``alpha`` or ``n_sim`` is out of range, or the sample has fewer
        than two observations, as :func:`pointwise_band` does.
    DegenerateDenominatorError
        Naming the first grid point where the ratio is undefined.
    """
    _check_alpha(alpha, sample.n, n_sim)
    meta = {"estimator": "known-error ratio", "density": err.describe(), "undefined": 0,
            "alpha": alpha, "n_sim": n_sim, "seed": seed, "kind": "simultaneous"}
    with _one_blas_thread():
        den, num, var, se, cov = _centered_covariance(sample, err, grid.points)
        if np.all(se == 0):
            meta["degenerate_covariance"] = True
        eigval, eigvec = np.linalg.eigh(cov)
        eigval[eigval < EIGENVALUE_CLIP * eigval.max()] = 0.0
        root = (eigvec * np.sqrt(eigval)[None, :]) @ eigvec.T

        # points whose standard error is 0 (zero variance, or var / n
        # underflowing) drop out of the sup: |draw| / inf = 0, so a zero
        # covariance gives q = 0
        scale = np.where(se > 0, se, np.inf)
        # the draws in blocks of rows, a serial pass in the generator's stream
        # order; only each row's sup is kept
        rng = np.random.default_rng(seed)
        step = min(_block_len(len(grid)), n_sim)

        def sup(start):
            shape = (min(step, n_sim - start), len(grid))
            d = np.matmul(rng.standard_normal(out=_scratch(0, shape)), root, out=_scratch(1, shape))
            d /= np.sqrt(sample.n)
            np.abs(d, out=d)
            d /= scale
            return d.max(axis=1)

        sups = np.concatenate(_row_blocks(sup, n_sim, step, len(grid), serial=True))
    q = float(np.quantile(sups, 1.0 - alpha))

    meta["sup_quantile"] = q
    values, half = num / den, q * se
    return RegressionCurve(
        grid=grid,
        values=values,
        variance=var,
        band_lower=values - half,
        band_upper=values + half,
        meta=meta,
    )
