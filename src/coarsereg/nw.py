"""Nadaraya-Watson comparator with leave-one-out cross-validation.

The classical kernel regression estimator fitted directly on the noisy
predictors is the baseline the ratio estimator is measured against. The
kernel is fixed to Gaussian; the bandwidth either comes from the caller or
from leave-one-out CV over a geometric grid.

Leave-one-out CV builds one n x n squared-distance matrix per sample and
scores the whole bandwidth grid from it, reusing n x n buffers across
bandwidths, so CV needs O(n^2) memory per call. At the small CV bandwidths
most kernel cells underflow; their exponents are clamped onto the fast
vector path of ``np.exp`` and the few cells whose result is subnormal are
recomputed exactly, so every kernel value equals ``np.exp`` of its exponent
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EvalGrid, RegressionCurve, TrainingSample
from .errors import DegenerateDenominatorError
from .known import DEGENERACY_THRESHOLD

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# np.exp leaves its vector fast path for arguments below about -708, where
# results turn subnormal, and runs 15-180x slower there (numpy 2.4, AVX-512);
# -700 keeps a margin.
_EXP_FAST_MIN = -700.0
# exp(a) <= 2**-1075, half the smallest subnormal, rounds to exactly 0 at and
# below this argument, so only the band [_EXP_ZERO, _EXP_FAST_MIN) needs an
# exact recomputation.
_EXP_ZERO = -1075.0 * math.log(2.0)


@dataclass(frozen=True)
class NwConfig:
    """Bandwidth policy.

    ``bandwidth`` is either an explicit positive value or ``"cv"``. The CV
    grid holds ``cv_points`` geometric points spanning
    [cv_min_factor, cv_max_factor] times the reference scale
    std(x) * n**(-1/5).
    """

    bandwidth: object = "cv"
    cv_points: int = 32
    cv_min_factor: float = 0.05
    cv_max_factor: float = 2.0

    def __post_init__(self):
        if self.bandwidth != "cv":
            if not (isinstance(self.bandwidth, (int, float)) and self.bandwidth > 0):
                raise ValueError(f"bandwidth must be 'cv' or positive, got {self.bandwidth}")
        if self.cv_points < 8:
            raise ValueError(f"cv grid needs at least 8 points, got {self.cv_points}")
        if not 0 < self.cv_min_factor < self.cv_max_factor:
            raise ValueError("need 0 < cv_min_factor < cv_max_factor")


def _gauss(u):
    return np.exp(-0.5 * u**2) / _SQRT_2PI


def nw_estimate(sample: TrainingSample, h: float, x: float) -> float:
    """Kernel-weighted response average at ``x`` with bandwidth ``h``."""
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    k = _gauss((x - sample.w) / h)
    den = float(np.mean(k))
    if den < DEGENERACY_THRESHOLD:
        raise DegenerateDenominatorError(
            f"kernel weights vanished at x={x} with bandwidth {h}"
        )
    return float(np.mean(sample.y * k)) / den


def fit_nw(sample: TrainingSample, h: float, grid: EvalGrid) -> RegressionCurve:
    """Kernel regression curve on a grid; degenerate points carry NaN."""
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    k = _gauss((grid.points[:, None] - sample.w[None, :]) / h)
    den = np.mean(k, axis=1)
    num = k @ sample.y / sample.n
    defined = den >= DEGENERACY_THRESHOLD
    if not np.any(defined):
        raise DegenerateDenominatorError("estimate undefined on the whole grid")
    values = np.full(len(grid), np.nan)
    values[defined] = num[defined] / den[defined]
    return RegressionCurve(
        grid=grid,
        values=values,
        meta={"estimator": "nadaraya-watson", "bandwidth": h,
              "undefined": int(np.sum(~defined))},
    )


def cv_grid(sample: TrainingSample, cfg: NwConfig | None = None) -> np.ndarray:
    """The geometric bandwidth grid the CV search runs over."""
    cfg = cfg or NwConfig()
    scale = float(np.std(sample.w, ddof=1)) * sample.n ** (-0.2)
    if scale <= 0:
        raise ValueError("predictors have no variation; CV grid undefined")
    return np.geomspace(
        cfg.cv_min_factor * scale, cfg.cv_max_factor * scale, cfg.cv_points
    )


def _gauss_from_exponent(arg: np.ndarray, lowest: float) -> np.ndarray:
    """``np.exp(arg) / sqrt(2 pi)``, bit for bit, computed in place in ``arg``.

    ``lowest`` is a lower bound on ``arg``; when it is at or above
    ``_EXP_FAST_MIN`` no lane needs the clamp.
    """
    if lowest < _EXP_FAST_MIN:
        keep = arg >= _EXP_FAST_MIN
        band = np.flatnonzero((arg >= _EXP_ZERO) & ~keep)
        band_arg = arg.flat[band]
        np.maximum(arg, _EXP_FAST_MIN, out=arg)
        np.exp(arg, out=arg)
        # a bool multiply zeroes the clamped lanes faster than a masked copy
        np.multiply(arg, keep, out=arg)
        arg.flat[band] = np.exp(band_arg)
    else:
        np.exp(arg, out=arg)
    np.divide(arg, _SQRT_2PI, out=arg)
    return arg


def _loo_scores(sample: TrainingSample, bandwidths) -> np.ndarray:
    """Mean leave-one-out squared prediction errors, one per bandwidth.

    A bandwidth at which some held-out point's remaining kernel weights all
    underflow to zero scores infinity.
    """
    w, y = sample.w, sample.y
    d2 = np.subtract.outer(w, w)
    np.square(d2, out=d2)
    d2_max = float(d2.max())
    k = np.empty_like(d2)
    y1 = np.column_stack([y, np.ones_like(y)])
    scores = np.empty(len(bandwidths))
    for j, h in enumerate(bandwidths):
        scale = -0.5 / np.square(h)  # numpy division: h = 0 scores inf, not raises
        np.multiply(d2, scale, out=k)
        _gauss_from_exponent(k, d2_max * scale)
        np.fill_diagonal(k, 0.0)
        num, den = (k @ y1).T
        if np.any(den == 0.0):
            scores[j] = np.inf
        else:
            scores[j] = np.mean((y - num / den) ** 2)
    return scores


def loo_score(sample: TrainingSample, h: float) -> float:
    """Mean leave-one-out squared prediction error at bandwidth ``h``.

    Held-out points whose remaining kernel weights underflow to zero make
    the score infinite, so such bandwidths are never selected.
    """
    return float(_loo_scores(sample, (h,))[0])


def cv_bandwidth(sample: TrainingSample, cfg: NwConfig | None = None) -> float:
    """Bandwidth minimizing the LOO score on the config's grid.

    Ties break toward the smaller bandwidth (the grid is ascending and
    argmin takes the first minimizer).
    """
    cfg = cfg or NwConfig()
    if not isinstance(cfg.bandwidth, str):
        return float(cfg.bandwidth)
    if sample.n < 3:
        raise ValueError("cross-validation needs at least 3 points")
    grid = cv_grid(sample, cfg)
    scores = _loo_scores(sample, grid)
    if not np.any(np.isfinite(scores)):
        raise DegenerateDenominatorError("every CV bandwidth produced an empty score")
    return float(grid[int(np.argmin(scores))])
