"""Fourier-inversion estimator for the case of an unknown error density.

Replicated contaminated measurements identify the error characteristic
function through within-group differences. Combining that estimate with the
empirical CFs of the training sample and inverting over a truncated
frequency range reproduces the known-error ratio estimator up to terms that
vanish faster than root-n, given a cutoff inside the admissible rate
bracket.

All integrals use the composite trapezoid rule on a uniform symmetric
frequency grid; the symmetric grid makes the inversions real up to roundoff,
which is checked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .data import EvalGrid, RegressionCurve, ReplicatedSample, TrainingSample
from .densities import ErrorDensity
from .errors import MissingDecayError, ResolutionError
from .known import _block_len, _joined, _ratio_curve, _row_blocks, _scratch

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

# Allowed imaginary residue of the inversions, relative to 1 + |real part|.
_IMAG_TOL = 1e-8

# Cutoff selection probes the estimated error CF at this many points below
# the cap, against the noise floor N**(-_CUTOFF_FLOOR_EXPONENT).
_CUTOFF_PROBES = 512
_CUTOFF_FLOOR_EXPONENT = 0.25


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


def _mean_exp(t: np.ndarray, points: np.ndarray, weights=None):
    """Means over points of exp(i t point) and, given ``weights``, of
    weights * exp(i t point), per t (None without weights); each block of t
    rows, sized by the kernel block budget, is exponentiated once and summed
    pairwise, so each value depends on its own t alone. On an odd-length
    grid with ``t[::-1] == -t`` only t >= 0 is evaluated: the values at -t
    are the conjugates, bit for bit, of those at t."""
    if len(t) > 1 and len(t) % 2 and np.array_equal(t[::-1], -t):
        mid = len(t) // 2
        halves = _mean_exp(t[mid:], points, weights)
        return tuple(None if v is None else np.concatenate([v[:0:-1].conj(), v])
                     for v in halves)
    scale = 1.0 / len(points)
    step = _block_len(len(points), itemsize=16)

    def block(start):
        rows = t[start:start + step, None]
        e = np.multiply(1j * rows, points, out=_scratch(0, (len(rows), len(points)), complex))
        np.exp(e, out=e)
        plain = e.sum(axis=1) * scale
        if weights is None:
            return plain, None
        e *= weights
        return plain, e.sum(axis=1) * scale

    return _joined(_row_blocks(block, len(t), step, len(points)))


def error_cf_from_replicates(rep: ReplicatedSample, t) -> CfTable:
    """Estimate the error CF from within-group pair differences.

    The estimate is the square root of the modulus of the average of
    exp(i t (u_jk1 - u_jk2)) over all within-group pairs; the value at
    t == 0 is exactly 1 and every value lies in [0, 1].
    """
    t = np.asarray(t, dtype=float)
    return CfTable(t=t, values=_error_cf(rep, t))


def _error_cf(rep: ReplicatedSample, t: np.ndarray) -> np.ndarray:
    """sqrt|mean over within-group pairs of exp(i t (u_jk1 - u_jk2))| per t."""
    return np.sqrt(np.abs(_mean_exp(t, rep.pair_differences())[0]))


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
        is finite with ``signal_decay + error_decay > 1``.
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
    probe_vals = _error_cf(rep, probe_t)
    floor = big_n ** (-_CUTOFF_FLOOR_EXPONENT)
    below = np.nonzero(probe_vals <= floor)[0]
    if len(below):
        tau = min(tau, float(probe_t[below[0]]))

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
    """Error-CF values on the inversion grid ``t`` from any CF source."""
    if isinstance(cf_source, ReplicatedSample):
        return error_cf_from_replicates(cf_source, t).values
    if isinstance(cf_source, CfTable):
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
        return np.asarray(cf_source.values[offset : offset + len(t)], dtype=float)
    if isinstance(cf_source, ErrorDensity):
        return np.asarray(cf_source.cf(t), dtype=float)
    return np.asarray(cf_source(t), dtype=float)


def invert_cf(
    sample: TrainingSample,
    cf_source: CfSource,
    cfg: FourierConfig,
    grid: EvalGrid,
) -> tuple:
    """Truncated Fourier inversions of the two empirical CFs.

    Returns the real parts of

        (2 pi)^-1  integral over |t| <= cutoff of  cf_hat(t) * err_cf(t) * exp(-i t x) dt

    for the plain empirical CF (denominator path) and its response-weighted
    companion (numerator path), as two arrays aligned with the grid. The
    imaginary residue must stay below 1e-8 * (1 + |real part|), which a
    symmetric grid and an even error CF guarantee up to roundoff.

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
        If a CF table does not match the frequency grid, or an inversion's
        imaginary residue exceeds the tolerance.
    """
    cfg = cfg.resolved(grid)
    x = grid.points
    if cfg.cutoff == 0.0:
        zero = np.zeros(len(x))
        return zero, zero.copy()
    t = symmetric_tgrid(cfg.cutoff, cfg.t_step)
    err_vals = _error_cf_values(cf_source, t)
    plain, weighted = empirical_cfs(sample, t)

    h = cfg.t_step
    w = np.full(len(t), h)
    w[0] = w[-1] = h / 2.0
    plain_w, weighted_w = plain.values * err_vals * w, weighted.values * err_vals * w
    # grid-row blocks of the G x T phase matrix and of its weighted copy, which
    # together fit one block budget, bound its memory for any node count
    step = _block_len(len(t), itemsize=32)

    def block(start):
        rows = x[start:start + step, None]
        shape = (len(rows), len(t))
        e = np.multiply(-1j * rows, t[None, :], out=_scratch(0, shape, complex))
        np.exp(e, out=e)
        product = np.multiply(e, plain_w, out=_scratch(1, shape, complex))
        den = product.sum(axis=1) / (2.0 * math.pi)
        np.multiply(e, weighted_w, out=product)
        return den, product.sum(axis=1) / (2.0 * math.pi)

    den, num = _joined(_row_blocks(block, len(x), step, len(t)))

    for name, arr in (("denominator", den), ("numerator", num)):
        residue = np.abs(arr.imag)
        limit = _IMAG_TOL * (1.0 + np.abs(arr.real))
        if np.any(residue > limit):
            raise ValueError(
                f"{name} inversion has imaginary residue {residue.max():.3e} "
                "beyond tolerance; the frequency grid is not symmetric enough "
                "or the error CF is not even"
            )
    return den.real, num.real


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
