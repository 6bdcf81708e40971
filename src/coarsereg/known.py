"""Smoothing-free ratio estimator for regression on coarsened predictors.

With the error density known, the regression of Y on the coarsened
predictor at x is estimated by the ratio of two sample averages weighted by
the error density at the offsets x - w_i. No bandwidth is involved and the
estimator converges at the parametric root-n rate.

Grid points where the denominator average falls below
``DEGENERACY_THRESHOLD`` are flagged as undefined (NaN in curves) rather
than returned as garbage ratios. That rule lives here alone, in
:func:`_defined` and the strict :func:`_moments_at`; every estimator,
interval and study in the package asks them which points are defined.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import EvalGrid, RegressionCurve, TrainingSample
from .densities import ErrorDensity
from .errors import DegenerateDenominatorError

# Absolute floor under which the denominator average is treated as zero.
DEGENERACY_THRESHOLD = 1e-12

# Coarse-scan resolution used by the extremum and zero finders.
SCAN_POINTS = 512

_GOLDEN = (5.0**0.5 - 1.0) / 2.0


# Byte budget of one block, the one size of every blocked loop: the kernel
# passes, the covariance's column blocks (at least 2G columns), the band
# draws, the CFs and their inversion, LOO-CV and the oracle's quadrature
# rows. Dense paths so take O(n + G + block) memory. A loop keeps at most two
# blocks live per thread (a kernel pass with a per-row statistic: its
# offsets, overwritten by the kernel, and the k * y scratch; without one,
# k * y overwrites the kernel), so 512 KiB keeps them in a 1 MiB per-core L2
# cache through the block's ~9 elementwise passes; 4 MiB blocks ran from L3.
# Each row's results depend on that row alone, so the size moves no output
# but the band's bounds.
_BLOCK_BYTES = 512 << 10


def _block_len(width: int, itemsize: int = 8) -> int:
    """Rows of ``width`` items of ``itemsize`` bytes that fit in one block."""
    return max(1, _BLOCK_BYTES // (itemsize * width))


# Cells (grid rows x sample size) below which a blocked pass runs on the
# calling thread alone. With a second thread, Laplace kernel passes on a
# 2-vCPU Xeon VM (n = 5e3 and 5e4) ran 0.8-1.1x as fast at 2.5e5 cells for
# up to 56% more CPU, 1.4x at 5e5 cells for 22% more, and 1.3-1.65x from 1e6
# to 4e6 cells for 11-15% more; while the host held the other vCPU, 0.9-1.0x.
_POOL_MIN_CELLS = 1 << 20

# The one persistent pool thread of _row_blocks, made on first use; a forked
# child inherits the object but not the thread, so it makes its own. A pass
# takes no more threads than the caller and this one: each holds its own
# blocks, so a pass's memory stays within twice the serial pass's, a few
# blocks, on any machine, and more threads would want smaller blocks each.
_pool = None


def _forget_pool():
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _row_blocks(blocks_of, rows, step, width, serial=False):
    """Each block's value, in row order, from a pass over ``rows`` rows of
    ``width`` cells in blocks of ``step`` rows. ``blocks_of(starts)`` yields
    ``(start, value)`` for each block start it takes from the iterator
    ``starts``, reusing its buffers from block to block.

    The calling thread and the persistent pool thread share the blocks: each
    takes the next block when done with its last, so a thread late to start
    (an idle CPU can take milliseconds to wake) takes fewer, and the caller
    never waits for one that has not started. The pool thread runs in a copy
    of the caller's context, so its ``np.errstate`` holds there too; numpy
    drops the interpreter lock in the ufuncs and reductions the passes call.
    As each block's value depends on that block alone, the values are the
    serial ones, bit for bit, and the error of the first failing block is
    raised, as in one serial pass.

    The pass runs serially when ``serial`` is set (it runs user code, which
    need not be thread-safe, or its blocks are too small to pay), below
    ``_POOL_MIN_CELLS`` cells, off the main thread (a pooled pass's blocks
    start no pool), when this process may run on one CPU only (``taskset``,
    cgroups), or with fewer than two blocks per thread. A pass begun in a
    caller's block queues behind the busy pool thread; the caller runs it.
    """
    global _pool
    starts = iter(range(0, rows, step))
    if (serial or rows * width < _POOL_MIN_CELLS
            or threading.current_thread() is not threading.main_thread()
            or len(os.sched_getaffinity(0)) < 2 or -(-rows // step) < 4):
        done = list(blocks_of(starts))
    else:
        failures = []  # (start, error) of each thread's failing block

        def run():
            taken, blocks = [], []

            def take():
                # a range iterator's next() is atomic under the interpreter lock
                for start in starts:
                    if failures:
                        return  # every block before a failing one is taken
                    taken.append(start)
                    yield start

            try:
                blocks.extend(blocks_of(take()))
            except Exception as exc:
                failures.append((taken[-1], exc))
            return blocks

        if _pool is None:
            _pool = ThreadPoolExecutor(1, thread_name_prefix="coarsereg-rows")
        # a call cancelled behind the busy pool thread stays in its queue
        # until that thread comes free; emptying `job` lets the pass's
        # arrays go at once
        job = [run]
        future = _pool.submit(contextvars.copy_context().run, lambda: job.pop()())
        try:
            done = run()
        finally:
            failures.append((rows, None))  # stops the pool thread if the caller failed
            if future.cancel():
                job.clear()
                helped = []
            else:
                helped = future.result()
        _, error = min(failures, key=lambda failure: failure[0])
        if error is not None:
            raise error
        done = sorted(done + helped, key=lambda block: block[0])
    return [value for _, value in done]


def _joined(blocks):
    """The per-row arrays of a pass's :func:`_row_blocks` values, each joined
    in row order; a block's None stands for no rows, and None in every block
    gives None."""
    if len(blocks) == 1:
        return blocks[0]
    return tuple(None if all(a is None for a in arrays)
                 else np.concatenate([a for a in arrays if a is not None])
                 for arrays in zip(*blocks))


def _defined(den):
    """Where the ratio is defined: den at or above ``DEGENERACY_THRESHOLD``
    (so a NaN den is undefined)."""
    return den >= DEGENERACY_THRESHOLD


def _row_mean(a):
    """``np.mean(a, axis=1)`` of a float array, bit for bit: numpy's pairwise
    sum over each row divided by the row length, without ``np.mean``'s
    argument handling, which takes half the time of a 4 x 250 mean."""
    return np.add.reduce(a, axis=1) / a.shape[1]


def _kernel_moments(kernel, x, w, y, per_row=None, at=None):
    """den ``mean(k, axis=1)`` and num ``mean(k * y, axis=1)`` for
    ``k = kernel(x[:, None] - w[None, :], span)`` built in blocks of grid
    rows, with ``span`` at least every offset's absolute value in the block;
    with ``per_row`` (:func:`_centered_variance` or :func:`_flat_support`),
    also its values on each block's rows, or on those of the ascending row
    indices ``at`` alone, given the responses less their median.

    ``w`` and ``y`` may also be (c, n) stacks of c samples. The rows are then
    x's rows on each sample in turn, so den and num have c * len(x) entries
    and ``per_row`` c * len(at), sample by sample. A block of a stack holds
    whole samples (one at least), and the pass shares its blocks with the
    pool thread only when one sample's len(x) * n cells would.

    ``kernel`` may overwrite its argument, a block buffer reused by every
    block, and return it. Each row's values depend on that row alone: not on
    the blocking, the other samples of a stack, the thread of
    :func:`_row_blocks` that computes it, nor on the BLAS library or its
    thread count.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w, y = np.atleast_2d(w), np.atleast_2d(y)
    at = None if at is None else [int(row) for row in at]
    (c, n), g = w.shape, len(x)
    step = _block_len(n)
    if g and (c > 1 or step >= g):  # whole samples per block
        step = max(1, step // g) * g
    yc = None if per_row is None else y - np.median(y, axis=1, keepdims=True)
    starts = np.arange(0, c * g, step)
    if len(starts) > 1:
        # each block's largest |x - w|: the offsets are rounded differences,
        # and rounding is monotone, so none exceeds the rounded extreme one
        if c == 1:
            x_hi, x_lo = np.maximum.reduceat(x, starts), np.minimum.reduceat(x, starts)
            w_lo, w_hi = w.min(), w.max()
        else:
            x_hi, x_lo = x.max(), x.min()
            w_lo = np.minimum.reduceat(w.min(axis=1), starts // g)
            w_hi = np.maximum.reduceat(w.max(axis=1), starts // g)
        spans = np.maximum(x_hi - w_lo, w_hi - x_lo).tolist()
    else:  # one block, whose own search for far offsets costs about as much
        spans = [np.inf]

    def blocks_of(starts):
        u = ky = None  # made on a thread's first block, so one given none makes none
        for start in starts:
            stop = min(start + step, c * g)
            # the block is rows r0:r1 of x on samples s0:s1
            s0, r0 = divmod(start, g)
            s1, r1 = (s0 + 1, r0 + stop - start) if step < g else (stop // g, g)
            shape = (s1 - s0, r1 - r0, n)
            if u is None:
                u = np.empty((min(step, c * g), n))
            offsets = u[: stop - start]
            np.subtract(x[None, r0:r1, None], w[s0:s1, None, :], out=offsets.reshape(shape))
            k = kernel(offsets, spans[start // step])
            # numpy reductions over the sample axis accumulate pairwise,
            # keeping long replication studies deterministic and
            # well-conditioned
            den = _row_mean(k)
            rows = None if at is None else [row - r0 for row in at if r0 <= row < r1]
            # per_row runs on the block's rows of at, if it has any, and on
            # the first block always, so that an empty at gives an empty array
            per_block = per_row is not None and (rows is None or len(rows) > 0 or start == 0)
            if ky is None and (per_row is not None or k is not offsets):
                # per_row needs k beside k * y, and k may be a custom pdf's
                # own array. The scratch is made after the first kernel, on
                # the first block: made before it, or on a later block, it
                # took fresh pages from the OS on every call (165 minor
                # faults and 3x the time of the call at n = 250, G = 101;
                # 398 faults per replicate of a study at n = 2e4 when made
                # on the block of its first coverage point)
                ky = np.empty(u.shape)
            # without per_row, k * y overwrites the kernel's own block
            scratch = k if not per_block and k is offsets else ky[: len(k)]
            np.multiply(k.reshape(shape), y[s0:s1, None, :], out=scratch.reshape(shape))
            num = _row_mean(scratch)
            if not per_block:
                yield start, (den, num, None)
                continue
            k_at, den_at, yc_at = k, den, yc[s0]
            if rows is not None:
                k_at = k.reshape(shape)[:, rows].reshape(-1, n)
                den_at = den.reshape(shape[:2])[:, rows].ravel()
            if s1 - s0 > 1:  # each row's own sample's responses
                yc_at = np.repeat(yc[s0:s1], len(k_at) // (s1 - s0), axis=0)
            yield start, (den, num, per_row(k_at, yc_at, den_at, scratch[: len(k_at)]))

    # a custom density's pdf is the user's code, which need not be thread-safe
    custom = getattr(getattr(kernel, "__self__", None), "kind", None) == "custom"
    moments = _joined(_row_blocks(blocks_of, c * g, step, n,
                                  serial=custom or g * n < _POOL_MIN_CELLS))
    return moments[:2] if per_row is None else moments


def _centered_variance(k, yc, den, scratch=None):
    """The plug-in variance E[f(x - W)^2 (Y - m(x))^2] / f_X(x)^2 of the ratio
    at each kernel row's point, as ``mean(b**2) / den**2`` over the row with
    ``b = k * (yc - mean(k * yc) / den)``, built in ``scratch`` (k's shape)
    when given; ``yc`` is the responses less a sample constant, which cancels
    in ``b``. It is >= 0, NaN where den is 0, and each row's value does not
    depend on the other rows. It is exactly 0 on the rows of
    :func:`_flat_support`, as the centered terms are; the rounded center
    alone would leave roundoff.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.multiply(k, yc, out=scratch)
        np.subtract(yc, (_row_mean(b) / den)[:, None], out=b)
        b *= k
        b *= b
        var = _row_mean(b) / den**2
    var[_flat_support(k, yc, den)] = 0.0
    return var


def _flat_support(k, yc, den, scratch=None):
    """Rows with den > 0 on whose kernel support (``k > 0``) ``yc`` takes
    one value; ``yc`` is one row of responses for every kernel row, or one
    per kernel row. ``scratch`` is unused; it keeps the signature of
    :func:`_centered_variance`."""
    if k.min(initial=np.inf) > 0:  # every row's support is its whole sample
        flat = np.broadcast_to(np.all(yc == yc[..., :1], axis=-1), len(k))
    else:
        # a response on each row's support
        ref = np.take_along_axis(np.broadcast_to(yc, k.shape), np.argmax(k, axis=1)[:, None], 1)
        flat = ~np.any((yc != ref) & (k > 0), axis=1)
    return flat & (den > 0)  # a row with no support is not flat


def _undefined(den, xs):
    """The DegenerateDenominatorError naming the first point of ``xs`` where
    ``den`` leaves the ratio undefined, or None."""
    bad = np.flatnonzero(~_defined(den))
    if bad.size:
        i = bad[0]
        return DegenerateDenominatorError(
            f"denominator {den[i]:.3e} below {DEGENERACY_THRESHOLD:.0e} at x={xs[i]}"
        )
    return None


def _moments_at(kernel, xs, w, y, per_row=None):
    """:func:`_kernel_moments` at ``xs`` (a point or a sequence of points),
    the one entry point of the queries that must be defined at every point.

    Raises
    ------
    DegenerateDenominatorError
        Naming the first point of ``xs`` where the ratio is undefined.
    """
    moments = _kernel_moments(kernel, xs, w, y, per_row)
    error = _undefined(moments[0], np.atleast_1d(xs))
    if error is not None:
        raise error
    return moments


def predictor_density(sample: TrainingSample, err: ErrorDensity, x):
    """Average of err.pdf(x - w_i): the estimated density of the coarsened
    predictor at ``x`` (the ratio denominator). Vectorized over ``x``.
    """
    den = _kernel_moments(err._pdf_into, x, sample.w, sample.y)[0]
    return den if den.size > 1 else float(den[0])


def response_weighted_density(sample: TrainingSample, err: ErrorDensity, x):
    """Average of y_i * err.pdf(x - w_i): the ratio numerator."""
    num = _kernel_moments(err._pdf_into, x, sample.w, sample.y)[1]
    return num if num.size > 1 else float(num[0])


def regression_at(sample: TrainingSample, err: ErrorDensity, x: float) -> float:
    """Point estimate of the regression at ``x``.

    Raises
    ------
    DegenerateDenominatorError
        If the denominator average at ``x`` is below the threshold.
    """
    den, num = _moments_at(err._pdf_into, x, sample.w, sample.y)
    return float(num[0]) / float(den[0])


def _ratio_curve(grid, den, num, meta: dict) -> RegressionCurve:
    """The curve num / den, NaN where den is below the threshold, with the
    count of such points added to ``meta`` as ``"undefined"``.

    Raises DegenerateDenominatorError if every point is undefined.
    """
    defined = _defined(den)
    if not np.any(defined):
        raise DegenerateDenominatorError("estimate undefined on the whole grid")
    values = np.full(len(grid), np.nan)
    values[defined] = num[defined] / den[defined]
    meta["undefined"] = int(np.sum(~defined))
    return RegressionCurve(grid=grid, values=values, meta=meta)


def fit_known(sample: TrainingSample, err: ErrorDensity, grid: EvalGrid) -> RegressionCurve:
    """Fit the ratio estimator on a grid.

    Undefined grid points (degenerate denominator) carry NaN and are
    reported in the curve's ``meta["undefined"]`` count.

    Raises
    ------
    DegenerateDenominatorError
        If every grid point is undefined.
    """
    den, num = _kernel_moments(err._pdf_into, grid.points, sample.w, sample.y)
    return _known_curve(err, grid, den, num)


def _known_curve(err, grid, den, num) -> RegressionCurve:
    """:func:`fit_known`'s curve from its den/num."""
    return _ratio_curve(grid, den, num, {"estimator": "known-error ratio",
                                         "density": err.describe()})


def regression_derivative_at(sample: TrainingSample, err: ErrorDensity, x: float) -> float:
    """First derivative of the ratio estimate at ``x`` (quotient rule with
    the density-derivative plug-ins).

    Raises
    ------
    UnsupportedDerivativeError
        If the density has no first derivative (uniform kind).
    DegenerateDenominatorError
        As in :func:`regression_at`.
    """
    den, num = (float(m[0]) for m in _moments_at(err._pdf_into, x, sample.w, sample.y))
    (den_d,), (num_d,) = _kernel_moments(lambda u, span: err.pdf_derivative(u, 1), x,
                                         sample.w, sample.y)
    return float((num_d * den - num * den_d) / den**2)


def _golden_section(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section minimizer of ``f`` on [lo, hi] to absolute ``xtol``."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _scan_grid(lo, hi, scan_points):
    """The ``scan_points`` points of the extremum and zero finders' scan."""
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    if not scan_points >= 2:
        raise ValueError(f"scan_points must be at least 2, got {scan_points}")
    return np.linspace(lo, hi, scan_points)


def find_extremum(
    sample: TrainingSample,
    err: ErrorDensity,
    lo: float,
    hi: float,
    kind: str = "max",
    scan_points: int = SCAN_POINTS,
):
    """Locate an extremum of the fitted curve on [lo, hi].

    Coarse scan on ``scan_points`` locations, then golden-section
    refinement around the best bracket to 1e-8 in x. The interval must stay
    clear of the degeneracy threshold throughout.

    Returns
    -------
    (location, value)
    """
    if kind not in ("max", "min"):
        raise ValueError(f"kind must be 'max' or 'min', got {kind!r}")
    xs = _scan_grid(lo, hi, scan_points)
    den, num = _moments_at(err._pdf_into, xs, sample.w, sample.y)
    vals = num / den
    sign = -1.0 if kind == "max" else 1.0
    best = int(np.argmin(sign * vals))
    bracket_lo = xs[max(best - 1, 0)]
    bracket_hi = xs[min(best + 1, len(xs) - 1)]
    loc = _golden_section(
        lambda x: sign * regression_at(sample, err, x), bracket_lo, bracket_hi, 1e-8
    )
    return loc, regression_at(sample, err, loc)


def _straddle(a, b) -> bool:
    """Whether ``a`` and ``b`` have strictly opposite signs: ``a * b < 0``
    by comparisons, which cannot overflow or underflow."""
    return (a < 0.0 < b) or (b < 0.0 < a)


def find_zeros(
    sample: TrainingSample,
    err: ErrorDensity,
    lo: float,
    hi: float,
    level: float = 0.0,
    scan_points: int = SCAN_POINTS,
) -> np.ndarray:
    """All crossings of the fitted curve through ``level`` on [lo, hi].

    Sign changes on a ``scan_points`` scan, each refined by bisection to
    1e-10. A scan point sitting exactly on the level counts only when its
    neighbors straddle the level. The returned array may be empty.
    """
    xs = _scan_grid(lo, hi, scan_points)
    if not np.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    den, num = _moments_at(err._pdf_into, xs, sample.w, sample.y)
    f = num / den - level
    # strict sign changes only; a scan point sitting exactly on the level
    # counts only when its neighbors straddle the level (so constant
    # sections do not spray spurious roots)
    roots = [
        float(xs[i])
        for i in range(1, len(xs) - 1)
        if f[i] == 0.0 and _straddle(f[i - 1], f[i + 1])
    ]
    for i in range(len(xs) - 1):
        if _straddle(f[i], f[i + 1]):
            a, b = xs[i], xs[i + 1]
            fa = f[i]
            while b - a > 1e-10:
                mid = 0.5 * (a + b)
                fm = regression_at(sample, err, mid) - level
                if fm == 0.0:
                    a = b = mid
                elif _straddle(fa, fm):
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return np.array(sorted(roots))
