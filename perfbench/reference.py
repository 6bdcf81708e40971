"""Reference curves, built here and not with ``coarsereg.true_regression``,
so a change to the program cannot move its own yardstick.

The target of every estimator in the benchmark is the regression of the
response on the contaminated predictor X = W + delta, with W uniform on the
model's support:

    m(x) = int g(w) f_delta(x - w) dw / int f_delta(x - w) dw   (w over the support)

Both integrals are taken with ``scipy.integrate.quad`` for Laplace, Gaussian
and uniform delta.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

SUPPORT = {"m1": (0.0, 1.0), "logistic": (-0.5, 0.5), "sine2": (0.0, 1.0), "sine4": (0.0, 1.0)}
PREDICTOR_VAR = 1.0 / 12.0
# m1's bump is centred here; quad is told so it never steps over it
BREAKS = {"m1": (0.5,)}


def g(model: str, w: float) -> float:
    if model == "m1":
        return 3.0 * w + 20.0 / math.sqrt(2.0 * math.pi) * math.exp(-200.0 * (w - 0.5) ** 2)
    if model == "logistic":
        return 1.0 / (1.0 + math.exp(-6.0 * w))
    a = {"sine2": 2.0, "sine4": 4.0}[model]
    return 0.45 * math.sin(a * math.pi * w) + 0.5


def _kernel(kind: str, scale: float):
    if kind == "gaussian":
        c = 1.0 / (scale * math.sqrt(2.0 * math.pi))
        return lambda u: c * math.exp(-0.5 * (u / scale) ** 2)
    if kind == "laplace":
        return lambda u: math.exp(-abs(u) / scale) / (2.0 * scale)
    raise ValueError(kind)


@lru_cache(maxsize=None)
def target(model: str, kind: str, scale: float, x: float) -> float:
    """m(x) for delta of ``kind`` (gaussian sigma, laplace b, uniform
    half-width ``scale``); NaN where the smeared predictor density is zero."""
    lo, hi = SUPPORT[model]
    if kind == "uniform":
        a, b = max(lo, x - scale), min(hi, x + scale)
        if b <= a:
            return float("nan")
        pts = [p for p in BREAKS.get(model, ()) if a < p < b]
        num, _ = quad(lambda w: g(model, w), a, b, points=pts or None,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        return num / (b - a)
    k = _kernel(kind, scale)
    pts = sorted({p for p in (*BREAKS.get(model, ()), x) if lo < p < hi}) or None
    opts = dict(points=pts, epsabs=1e-14, epsrel=1e-12, limit=400)
    den, _ = quad(lambda w: k(x - w), lo, hi, **opts)
    if den <= 0.0:
        return float("nan")
    num, _ = quad(lambda w: g(model, w) * k(x - w), lo, hi, **opts)
    return num / den


def curve(model: str, kind: str, scale: float, xs) -> np.ndarray:
    return np.array([target(model, kind, float(scale), float(x)) for x in xs])


def study_scale(kind: str, nsdelta: float) -> float:
    """delta's scale parameter from the predictor-noise ratio
    var(delta) / var(W), with var(W) = 1/12."""
    var = nsdelta * PREDICTOR_VAR
    return math.sqrt(var) if kind == "gaussian" else math.sqrt(3.0 * var)
