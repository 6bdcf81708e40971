"""Fourier-inversion estimator for the case of an unknown error density.

Replicated contaminated measurements identify the error characteristic
function through within-group differences. Combining that estimate with the
empirical CFs of the training sample and inverting over a truncated
frequency range reproduces the known-error ratio estimator up to terms that
vanish faster than root-n, given a cutoff inside the admissible rate
bracket.

All integrals use the composite trapezoid rule on a uniform symmetric
frequency grid. The empirical CFs are conjugate-symmetric on it and the
error CF is even, so each inversion is a real sum over the nodes t >= 0; an
error CF with an imaginary or odd part is refused. The CFs and the
inversion run one complex pass, :func:`_exp_sums`: per row r (a frequency,
or a negated grid point for the inversion), weighted sums of exp(i r p)
over the points p.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .data import EvalGrid, RegressionCurve, ReplicatedSample, TrainingSample
from .densities import ErrorDensity, _real_cf
from .errors import MissingDecayError, ResolutionError
from .known import _U, _block_len, _joined, _ratio_curve, _row_blocks, _scratch

# Minimum number of positive-frequency nodes between 0 and the cutoff.
MIN_NODES = 16

# Most nodes a frequency grid may hold, all of -K..K; a grid that would be
# larger is refused before anything is allocated. It is far above what an
# inversion needs (a few thousand nodes) and keeps one grid-length complex
# array near 16 MB.
MAX_T_NODES = 1_000_001

# Default spacing resolves phase oscillations up to the largest |x| on the
# evaluation grid, with an absolute floor.
_SPACING_OSCILLATION_FACTOR = 8.0
_SPACING_FLOOR = 1e-3

# Cutoff selection probes the estimated error CF at this many points below
# the cap, against the noise floor N**(-_CUTOFF_FLOOR_EXPONENT).
_CUTOFF_PROBES = 512
_CUTOFF_FLOOR_EXPONENT = 0.25
# Probes the bound leaves open are computed this many at a time, in t order.
_CUTOFF_BLOCK = 32


@dataclass(frozen=True)
class CfTable:
    """A characteristic function tabulated on a uniform symmetric grid.

    ``values`` are complex for empirical CFs and nonnegative real for the
    replicate-based error-CF estimate.
    """

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        v = np.asarray(self.values)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("t and values must be aligned 1-d arrays")
        if len(t) < 3 or len(t) % 2 == 0:
            raise ValueError("grid must have odd length >= 3 (symmetric around 0)")
        steps = np.diff(t)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform")
        if abs(t[0] + t[-1]) > 1e-9 * max(abs(t[0]), 1.0):
            raise ValueError("grid must be symmetric about 0")
        t.flags.writeable = False
        v = np.array(v)
        v.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0])


def symmetric_tgrid(cutoff: float, step: float) -> np.ndarray:
    """Uniform grid -K*step .. K*step with K = round(cutoff/step).

    Raises
    ------
    ResolutionError
        If K < 1, or if the 2K + 1 nodes exceed ``MAX_T_NODES``.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if not math.isfinite(cutoff / step):
        raise ValueError(f"cutoff/step must be finite, got {cutoff}/{step}")
    k = int(round(cutoff / step))
    if k < 1:
        raise ResolutionError(f"cutoff {cutoff} too small for step {step}")
    if 2 * k + 1 > MAX_T_NODES:
        raise ResolutionError(
            f"cutoff {cutoff} over step {step} needs {2 * k + 1} frequency nodes, "
            f"more than the limit of {MAX_T_NODES}"
        )
    return step * np.arange(-k, k + 1, dtype=float)


def _exp_sums(rows, points, weights):
    """Per row r, the sum over ``points`` p of exp(i r p) * v for each v of
    ``weights`` (None for 1, else an array aligned with ``points``), in
    blocks of rows; each sum is numpy's pairwise sum over its own row. A
    block's exponentials fill slot 0 of :func:`_scratch`, the products but
    the last go to slot 1 and the last overwrites the exponentials, so a
    one-weight pass holds one block per thread. No rows give one empty
    array per weight."""
    step = _block_len(len(points), itemsize=16)

    def block(start):
        r = rows[start:start + step, None]
        shape = (len(r), len(points))
        e = np.multiply(1j * r, points, out=_scratch(0, shape, complex))
        np.exp(e, out=e)
        sums = []
        for i, v in enumerate(weights):
            product = e if v is None else np.multiply(
                e, v, out=e if i == len(weights) - 1 else _scratch(1, shape, complex))
            sums.append(product.sum(axis=1))
        return tuple(sums)

    blocks = _row_blocks(block, len(rows), step, len(points))
    return _joined(blocks) if blocks else tuple(np.empty(0, complex) for _ in weights)


def _mean_exp(t: np.ndarray, points: np.ndarray, weights=None):
    """Means over points of exp(i t point) and, given ``weights``, of
    weights * exp(i t point), per t (None without weights), from
    :func:`_exp_sums`. On an odd-length grid with ``t[::-1] == -t`` only
    t >= 0 is evaluated: the values at -t are the conjugates, bit for bit,
    of those at t."""
    if len(t) > 1 and len(t) % 2 and np.array_equal(t[::-1], -t):
        mid = len(t) // 2
        halves = _mean_exp(t[mid:], points, weights)
        return tuple(None if v is None else np.concatenate([v[:0:-1].conj(), v])
                     for v in halves)
    scale = 1.0 / len(points)
    sums = _exp_sums(t, points, (None,) if weights is None else (None, weights))
    return sums[0] * scale, None if weights is None else sums[1] * scale


def error_cf_from_replicates(rep: ReplicatedSample, t) -> CfTable:
    """Estimate the error CF from within-group pair differences.

    The estimate is the square root of the modulus of the average of
    exp(i t (u_jk1 - u_jk2)) over all within-group pairs; the value at
    t == 0 is exactly 1 and every value lies in [0, 1]. A pair difference
    or a phase t d that overflows raises a ValueError.
    """
    t = np.asarray(t, dtype=float)
    return CfTable(t=t, values=_error_cf(rep.pair_differences(), t))


def _error_cf(d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sqrt|mean over the pair differences d of exp(i t d)| per t."""
    _check_phases(d, t)
    return np.sqrt(np.abs(_mean_exp(t, d)[0]))


def _check_phases(d: np.ndarray, t: np.ndarray):
    """Raise a ValueError if a phase t d overflows. The largest is
    max|t| max|d|, which rounds as that one product does."""
    if len(d) and len(t):
        top_t, top_d = float(np.max(np.abs(t))), float(np.max(np.abs(d)))
        if not math.isfinite(top_t * top_d):
            raise ValueError(f"phases t*d overflow: |t| up to {top_t!r} times pair "
                             f"differences up to {top_d!r}")


def empirical_cfs(sample: TrainingSample, t) -> tuple:
    """Empirical CF of the predictors and its response-weighted companion.

    Returns
    -------
    (CfTable, CfTable)
        mean of exp(i t w_j), and mean of y_j * exp(i t w_j).
    """
    t = np.asarray(t, dtype=float)
    plain, weighted = _mean_exp(t, sample.w, sample.y)
    return CfTable(t=t, values=plain), CfTable(t=t, values=weighted)


def select_cutoff(
    rep: ReplicatedSample,
    n: int,
    *,
    error_decay: Optional[float] = None,
    signal_decay: Optional[float] = None,
    density: Optional[ErrorDensity] = None,
    override: Optional[float] = None,
) -> float:
    """Pick the inversion cutoff frequency.

    Policy: cap the cutoff at N**(1/(2*(1+error_decay))) / log(max(N, 3))
    (N = replicate group count, natural log), cut earlier where the
    estimated error CF, probed at 512 points in (0, cap], first drops to the
    noise floor N**(-1/4), and never go below the lower-rate guard
    n**(1/(2*(signal_decay+error_decay-1))) / log(max(n, 3)) unless the
    guard exceeds the cap, in which case the cap wins with a warning.

    Only the first crossing is used, so the probes are not all computed: a
    prefix of them is certified above the floor by the lower bound
    1 - t^2 mean(d^2) / 2 on the CF's square over the pair differences d,
    and exact probes start at the first one the bound leaves open, in
    blocks of 32, up to the first crossing. The cutoff is the one all 512
    exact probes give, bit for bit; where the CF stays near 1 up to the cap,
    no probe is computed at all.

    ``signal_decay`` defaults to ``error_decay + 2``, which always satisfies
    the smoothness ordering the rate bracket assumes. An explicit
    ``override`` is returned unchanged.

    Raises
    ------
    MissingDecayError
        When no error-CF decay exponent is available from arguments or
        density metadata.
    ValueError
        Unless ``error_decay`` is finite and positive, and ``signal_decay``
        is finite with ``signal_decay + error_decay > 1``; and when a pair
        difference, or a phase t d at a probe up to the cap, overflows.
    """
    if override is not None:
        if not override > 0:
            raise ValueError(f"cutoff override must be positive, got {override}")
        return float(override)
    if error_decay is None and density is not None:
        if density.kind == "uniform":
            raise ValueError(
                "uniform error CF oscillates through zero; it cannot drive cutoff selection"
            )
        error_decay = density.cf_decay
    if error_decay is None:
        raise MissingDecayError(
            "cutoff selection needs an error-CF decay exponent (none supplied and "
            "none in the density metadata)"
        )
    if signal_decay is None:
        signal_decay = error_decay + 2.0
    # a density's CF tends to 0, so its decay exponent is positive; the
    # guard exponent 1/(2*(signal_decay+error_decay-1)) needs a positive sum
    if not (math.isfinite(error_decay) and error_decay > 0):
        raise ValueError(f"error_decay must be finite and positive, got {error_decay}")
    if not (math.isfinite(signal_decay) and signal_decay + error_decay > 1):
        raise ValueError(
            f"signal_decay must be finite with signal_decay + error_decay > 1, "
            f"got signal_decay={signal_decay}, error_decay={error_decay}"
        )
    big_n = rep.n_groups
    if big_n < 2:
        raise ValueError("cutoff selection needs at least 2 replicate groups")

    cap = big_n ** (1.0 / (2.0 * (1.0 + error_decay))) / math.log(max(big_n, 3))
    tau = cap
    probe_t = np.linspace(0.0, cap, _CUTOFF_PROBES + 1)[1:]
    crossing = _first_probe_below(rep.pair_differences(), probe_t,
                                  big_n ** (-_CUTOFF_FLOOR_EXPONENT))
    if crossing is not None:
        tau = min(tau, crossing)

    guard = n ** (1.0 / (2.0 * (signal_decay + error_decay - 1.0))) / math.log(
        max(n, 3)
    )
    if guard <= cap:
        tau = max(tau, guard)
    else:
        warnings.warn(
            f"lower-rate guard {guard:.4g} exceeds the cap {cap:.4g}; "
            "the rate bracket is empty at these sample sizes, using the cap",
            stacklevel=2,
        )
        tau = cap
    return float(tau)


def _first_probe_below(d, probe_t, floor):
    """The first of the increasing positive ``probe_t`` where the error CF
    on the pair differences ``d`` is at most ``floor``, or None: the answer
    of :func:`_error_cf` on every probe, bit for bit.

    |mean exp(i t d)| >= mean cos(t d) >= 1 - t^2 mean(d^2) / 2, and the
    error CF is the square root of the left side. So a probe is above the
    floor when that bound, with mean(d^2) raised by a relative 1e-6 and
    lowered by a slack of 1e-6 + 64u (1 + t max|d|) for the rounding of the
    dense value (its phases t d carry up to u t max|d| each), exceeds
    floor^2. The bound falls as t grows, in floats too, so the certified
    probes are a prefix; squares that overflow certify nothing. The probes
    from the first open one are computed exactly, ``_CUTOFF_BLOCK`` at a
    time in t order, up to the block that holds the first crossing; each
    row's value depends on its own t alone, so it is the dense pass's. A
    phase t d that overflows on any probe raises, as in the dense pass.
    """
    _check_phases(d, probe_t)  # as the dense pass over every probe would
    with np.errstate(all="ignore"):
        spread = np.mean(np.square(d)) * (1.0 + 1e-6)
        slack = 1e-6 + 64.0 * _U * (1.0 + probe_t * np.max(np.abs(d)))
        certain = 1.0 - probe_t**2 * spread / 2.0 - slack > floor**2
    open_at = np.flatnonzero(~certain)
    for start in range(open_at[0] if len(open_at) else len(probe_t), len(probe_t),
                       _CUTOFF_BLOCK):
        t = probe_t[start:start + _CUTOFF_BLOCK]
        below = np.flatnonzero(_error_cf(d, t) <= floor)
        if len(below):
            return float(t[below[0]])
    return None


@dataclass(frozen=True)
class FourierConfig:
    """Inversion configuration.

    ``cutoff`` is the finite truncation frequency, fixed by the caller or
    chosen by :func:`select_cutoff`; ``t_step`` the quadrature spacing
    (derived from the evaluation grid by :meth:`resolved` when None). A positive
    cutoff needs ``cutoff / t_step >= MIN_NODES``, so every inversion has at
    least ``MIN_NODES`` positive-frequency nodes.

    ``cutoff == 0`` is the documented degenerate case: the integration
    range is empty and the inversions are identically zero.
    """

    cutoff: float
    t_step: Optional[float] = None

    def __post_init__(self):
        if not 0 <= self.cutoff < math.inf:
            raise ValueError(f"cutoff must be finite and nonnegative, got {self.cutoff}")
        if self.t_step is not None:
            if not self.t_step > 0:
                raise ValueError(f"t_step must be positive, got {self.t_step}")
            if self.cutoff > 0 and self.cutoff / self.t_step < MIN_NODES:
                raise ResolutionError(
                    f"cutoff/t_step = {self.cutoff / self.t_step:.2f} < {MIN_NODES}: "
                    "frequency grid too coarse"
                )

    def resolved(self, grid: EvalGrid) -> "FourierConfig":
        """Fill in the default spacing for an evaluation grid."""
        if self.t_step is not None or self.cutoff == 0.0:
            return self
        max_x = float(np.max(np.abs(grid.points)))
        step = self.cutoff / (2 * MIN_NODES)
        if max_x > 0:
            step = min(step, math.pi / (_SPACING_OSCILLATION_FACTOR * max_x))
        step = max(step, _SPACING_FLOOR)
        return replace(self, t_step=step)


CfSource = Union[ReplicatedSample, CfTable, ErrorDensity, Callable]


def _error_cf_values(cf_source: CfSource, t: np.ndarray) -> np.ndarray:
    """The even part (e(t) + e(-t)) / 2 at t >= 0 of the error CF e on the
    symmetric grid ``t``, from any CF source; a ValueError naming the source
    refuses an imaginary or odd part of e beyond ``CF_TOL`` times max|e|."""
    if isinstance(cf_source, ReplicatedSample):
        e, source = error_cf_from_replicates(cf_source, t).values, "replicates"
    elif isinstance(cf_source, CfTable):
        step = t[1] - t[0]
        if not math.isclose(cf_source.step, step, rel_tol=1e-9):
            raise ValueError(
                f"CF table spacing {cf_source.step:.6g} does not match the "
                f"requested spacing {step:.6g}"
            )
        offset = int(round((t[0] - cf_source.t[0]) / step))
        if offset < 0 or offset + len(t) > len(cf_source.t):
            raise ValueError("CF table does not cover the requested frequency range")
        if not np.allclose(cf_source.t[offset : offset + len(t)], t, rtol=0, atol=1e-9 * max(step, 1.0)):
            raise ValueError("CF table grid is not aligned with the requested grid")
        e, source = cf_source.values[offset : offset + len(t)], "a CF table"
    elif isinstance(cf_source, ErrorDensity):
        e, source = cf_source.cf(t), f"the density {cf_source.describe()}"
    else:
        e, source = cf_source(t), "a callable"
    e = _real_cf(np.broadcast_to(e, t.shape), f"error CF from {source}", even=True)
    return (e + e[::-1])[len(t) // 2:] / 2.0


def invert_cf(
    sample: TrainingSample,
    cf_source: CfSource,
    cfg: FourierConfig,
    grid: EvalGrid,
) -> tuple:
    """Truncated Fourier inversions of the two empirical CFs.

    Returns the real integrals

        (2 pi)^-1  integral over |t| <= cutoff of  cf_hat(t) * err_cf(t) * exp(-i t x) dt

    for the plain empirical CF (denominator path) and its response-weighted
    companion (numerator path), as two arrays aligned with the grid: the
    trapezoid sums over t = 0, h, ..., cutoff of w_t even(t) Re(cf_hat(t)
    exp(-i t x)) / pi, with w_t = h/2 at both ends and even(t) err_cf's even
    part (err_cf(t) + err_cf(-t)) / 2.

    ``cf_source`` gives err_cf on the grid ``symmetric_tgrid(cutoff,
    t_step)``: a replicated sample (estimated from pair differences by
    :func:`error_cf_from_replicates`), a CF table whose spacing matches
    ``t_step`` and that covers [-cutoff, cutoff], an ErrorDensity with a
    closed-form CF, or a bare callable of t.

    Raises
    ------
    ResolutionError
        If ``cfg`` has no ``t_step`` and the spacing derived from the grid
        leaves fewer than ``MIN_NODES`` positive-frequency nodes.
    ValueError
        If a CF table does not match the frequency grid, or err_cf's
        imaginary or odd part exceeds ``CF_TOL`` times max|err_cf|.
    """
    cfg = cfg.resolved(grid)
    x = grid.points
    if cfg.cutoff == 0.0:
        return np.zeros(len(x)), np.zeros(len(x))
    t = symmetric_tgrid(cfg.cutoff, cfg.t_step)
    even = _error_cf_values(cf_source, t)
    k = len(t) // 2
    plain, weighted = (tab.values[k:] for tab in empirical_cfs(sample, t))
    w = np.full(k + 1, cfg.t_step)
    w[0] = w[-1] = cfg.t_step / 2.0
    sums = _exp_sums(-x, t[k:], (plain * even * w, weighted * even * w))
    return tuple(v.real / math.pi for v in sums)


def fit_fourier(
    sample: TrainingSample,
    cf_source: CfSource,
    cfg: FourierConfig,
    grid: EvalGrid,
) -> RegressionCurve:
    """Fit the Fourier-inversion ratio estimator on a grid.

    ``cf_source`` is any source :func:`invert_cf` accepts: a replicated
    sample, a CF table, an ErrorDensity or a callable. ``cfg.cutoff`` is
    used as given; :func:`select_cutoff` picks one from replicates.

    Raises
    ------
    DegenerateDenominatorError
        If the inverted denominator is below the degeneracy threshold on
        the whole grid.
    """
    cfg = cfg.resolved(grid)
    meta = {"estimator": "fourier ratio", "cutoff": cfg.cutoff, "t_step": cfg.t_step}
    if isinstance(cf_source, ReplicatedSample):
        meta["error_cf"] = "replicates"
    elif isinstance(cf_source, ErrorDensity):
        meta["error_cf"] = cf_source.describe()
        if cf_source.kind == "gaussian":
            # Supersmooth error: outside the polynomial-decay theory backing
            # the cutoff rates, flagged rather than rejected.
            meta["warning"] = "gaussian error CF decays faster than any polynomial"

    den, num = invert_cf(sample, cf_source, cfg, grid)
    return _ratio_curve(grid, den, num, meta)
