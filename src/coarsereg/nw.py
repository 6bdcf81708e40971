"""Nadaraya-Watson comparator with leave-one-out cross-validation.

The classical kernel regression estimator fitted directly on the noisy
predictors is the baseline the ratio estimator is measured against. The
kernel is fixed to Gaussian; the bandwidth either comes from the caller or
from leave-one-out CV over a geometric grid.

Leave-one-out CV scores the whole bandwidth grid from one squared-distance
block per group of held-out rows, so it needs O(n * block + n * B) memory
for B bandwidths. Each row's exponents are shifted by its nearest-neighbour
distance, which leaves num/den unchanged and gives the nearest neighbour the
weight exp(0) = 1, so every denominator is at least 1. The exponents are
clamped at ``_EXP_FAST_MIN`` only where some fall below it: a clamped cell
weighs at most e^-700 against that 1, below half an ulp of the denominator,
so no kernel value is subnormal and ``np.exp`` stays on its vector fast path.
A bandwidth still scores infinity exactly when the unshifted Gaussian
weights of some held-out row all underflow to zero. The constants and the
curve's kernel exponential, ``_gauss_exp_into``, live in ``densities``.
"""

from __future__ import annotations

import numpy as np

from .data import EvalGrid, RegressionCurve, TrainingSample
from .densities import _EXP_FAST_MIN, _SQRT_2PI, _gauss_exp_into
from .errors import DegenerateDenominatorError
from .known import _block_len, _kernel_moments, _moments_at, _ratio_curve, _scratch

# The CV grid: _CV_POINTS geometric points spanning [_CV_MIN_FACTOR,
# _CV_MAX_FACTOR] times the reference scale std(x) * n**(-1/5).
_CV_POINTS = 32
_CV_MIN_FACTOR = 0.05
_CV_MAX_FACTOR = 2.0


def _gauss(u, h, span):
    """The standard Gaussian density at ``u / h``, computed in place in ``u``,
    whose entries are at most ``span`` in absolute value."""
    return np.divide(_gauss_exp_into(u, h, span), _SQRT_2PI, out=u)


def nw_estimate(sample: TrainingSample, h: float, x: float) -> float:
    """Kernel-weighted response average at ``x`` with bandwidth ``h``."""
    if not 0 < h < np.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    den, num = _moments_at(lambda u, span: _gauss(u, h, span), x, sample.w, sample.y)
    return float(num[0]) / float(den[0])


def fit_nw(sample: TrainingSample, h: float, grid: EvalGrid) -> RegressionCurve:
    """Kernel regression curve on a grid; degenerate points carry NaN."""
    if not 0 < h < np.inf:  # an infinite h would give the flat curve mean(y)
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    den, num = _kernel_moments(lambda u, span: _gauss(u, h, span), grid.points, sample.w, sample.y)
    return _ratio_curve(grid, den, num, {"estimator": "nadaraya-watson", "bandwidth": h})


def cv_grid(sample: TrainingSample) -> np.ndarray:
    """The geometric bandwidth grid the CV search runs over."""
    scale = float(np.std(sample.w, ddof=1)) * sample.n ** (-0.2)
    if scale <= 0:
        raise ValueError("predictors have no variation; CV grid undefined")
    return np.geomspace(_CV_MIN_FACTOR * scale, _CV_MAX_FACTOR * scale, _CV_POINTS)


def _loo_scores(sample: TrainingSample, bandwidths) -> np.ndarray:
    """Mean leave-one-out squared prediction errors, one per bandwidth.

    A bandwidth at which some held-out point's remaining kernel weights all
    underflow to zero scores infinity. Row i's weights are computed as
    ``exp(scale * (d2_ij - nn2_i))`` with ``scale = -1 / (2 h^2)`` and
    ``nn2_i`` its smallest squared distance to another point; the common
    factor ``exp(scale * nn2_i) / sqrt(2 pi)`` cancels in num/den, and its
    rounded value is the row's largest unshifted weight (the rounded kernel
    is monotone in d2), so the row underflows exactly when it is 0. Rows
    are built in blocks of :func:`known._block_len`, in the buffers of
    :func:`known._scratch`, and the squared errors are averaged once at the
    end, so the summation order of the scores does not depend on the
    blocking.
    """
    w, y = sample.w, sample.y
    n = len(w)
    scales = -0.5 / np.square(np.asarray(bandwidths, dtype=float))  # h = 0: inf, not raise
    if n < 2:  # no other point to weigh
        return np.full(len(scales), np.inf)
    y1 = np.column_stack([y, np.ones_like(y)])
    nn2 = np.empty(n)
    sq_err = np.empty((len(scales), n))
    step = _block_len(n)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        own = (np.arange(len(rows)), rows)
        d2 = np.subtract.outer(w[rows], w, out=_scratch(0, (len(rows), n)))
        np.square(d2, out=d2)
        d2[own] = np.inf
        nn2[rows] = d2.min(axis=1)
        d2[own] = nn2[rows]  # shifts to 0; its weight is zeroed after exp
        d2 -= nn2[rows, None]
        spread = float(d2.max())
        k = _scratch(1, d2.shape)
        for j, scale in enumerate(scales):
            np.multiply(d2, scale, out=k)
            if spread * scale < _EXP_FAST_MIN:
                np.maximum(k, _EXP_FAST_MIN, out=k)
            np.exp(k, out=k)
            k[own] = 0.0
            num, den = (k @ y1).T
            sq_err[j, rows] = np.square(y[rows] - num / den)
    scores = np.mean(sq_err, axis=1)
    scores[np.any(np.exp(np.multiply.outer(scales, nn2)) / _SQRT_2PI == 0.0, axis=1)] = np.inf
    return scores


def loo_score(sample: TrainingSample, h: float) -> float:
    """Mean leave-one-out squared prediction error at bandwidth ``h``.

    Held-out points whose remaining kernel weights underflow to zero make
    the score infinite, so such bandwidths are never selected.
    """
    return float(_loo_scores(sample, (h,))[0])


def cv_bandwidth(sample: TrainingSample) -> float:
    """Bandwidth minimizing the leave-one-out score over :func:`cv_grid`.

    Ties break toward the smaller bandwidth (the grid is ascending and
    argmin takes the first minimizer).
    """
    if sample.n < 3:
        raise ValueError("cross-validation needs at least 3 points")
    grid = cv_grid(sample)
    scores = _loo_scores(sample, grid)
    if not np.any(np.isfinite(scores)):
        raise DegenerateDenominatorError("every CV bandwidth produced an empty score")
    return float(grid[int(np.argmin(scores))])
