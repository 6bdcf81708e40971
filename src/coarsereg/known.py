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

Every value the package returns comes from a dense kernel pass,
:func:`_kernel_moments`. The coarse scans of :func:`find_extremum` and
:func:`find_zeros` use their values only to decide (the argmin, each
point's sign), so under a Laplace density they decide from O(n + G)
recursive kernel sums with a certified error radius (:func:`_scan_ratios`)
and take dense rows only for the points the radius leaves open; their
results are the dense scan's, bit for bit.
"""

from __future__ import annotations

import contextvars
import math
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

# Unit roundoff of float64.
_U = 2.0**-53


# Byte budget of one block, the one size of every blocked loop: the kernel
# passes, the covariance's column blocks (at least 2G columns), the band
# draws, the CFs and their inversion, LOO-CV and the oracle's quadrature
# rows. Dense paths so take O(n + G + block) memory. A loop holds at most two
# blocks per thread, the two slots of _scratch (a kernel pass with a per-row
# statistic: its offsets, overwritten by the kernel, and the k * y scratch;
# without one, k * y overwrites the kernel), so 512 KiB keeps them in a 1 MiB
# per-core L2 cache through the block's ~9 elementwise passes; 4 MiB blocks
# ran from L3. Each row's results depend on that row alone, so the size
# moves no output but the band's bounds.
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
# Set while a pass shares the pool thread; a pass begun meanwhile runs serially.
_busy = False


def _forget_pool():
    global _pool, _busy
    _pool, _busy = None, False


os.register_at_fork(after_in_child=_forget_pool)


def _row_blocks(body, rows, step, width, serial=False, fold=None):
    """``[body(start) for start in range(0, rows, step)]``: a pass over
    ``rows`` rows of ``width`` cells in blocks of ``step`` rows, each
    block's value ``body(start)``. With ``fold``, the pass instead calls
    ``fold(value)`` on each block's value in block order and returns None.

    The calling thread and the persistent pool thread share the blocks: each
    takes the next block when done with its last, so a thread late to start
    (an idle CPU can take milliseconds to wake) takes fewer, and the caller
    never waits for one that has not started. The pool thread runs in a copy
    of the caller's context, so its ``np.errstate`` holds there too; numpy
    drops the interpreter lock in the ufuncs, reductions and BLAS products
    the passes call. As each block's value depends on that block alone, the
    values are the serial ones, bit for bit. A thread done with block i
    folds its value once block i - 1 is folded, so the folds run in the
    serial order, and each thread holds at most one value waiting for its
    turn. The error of the first failing block or fold is raised, as in one
    serial pass; a failure wakes every thread waiting behind it.

    The pass runs serially when ``serial`` is set (it runs user code, which
    need not be thread-safe, or its blocks are too small to pay), below
    ``_POOL_MIN_CELLS`` cells, off the main thread, while another pass shares
    the pool thread (so a pass begun in a pooled pass's block submits
    nothing to wait behind the busy pool thread), when this process may run
    on one CPU only (``taskset``, cgroups), or with fewer than two blocks
    per thread.
    """
    global _pool, _busy
    starts = range(0, rows, step)
    if (serial or _busy or rows * width < _POOL_MIN_CELLS
            or threading.current_thread() is not threading.main_thread()
            or len(os.sched_getaffinity(0)) < 2 or len(starts) < 4):
        if fold is None:
            return [body(start) for start in starts]
        for start in starts:
            fold(body(start))
        return None
    values = [None] * len(starts)
    failures = []  # (index, error) of each thread's failing block or fold
    blocks = iter(range(len(starts)))  # its next() is atomic under the interpreter lock
    turn = threading.Condition()  # guards folded and wakes the threads waiting to fold
    folded = 0  # blocks 0 to folded - 1 are folded

    def settle(i, value):
        """Fold block i's value in its turn; False, folding nothing, once an
        earlier block has failed."""
        nonlocal folded
        with turn:
            turn.wait_for(lambda: folded == i or any(f < i for f, _ in failures))
            if folded < i:
                return False
            fold(value)
            folded += 1
            turn.notify_all()
        return True

    def run():
        for i in blocks:
            if failures:
                return  # every block before a failing one is taken
            try:
                # the value is held no longer than its fold
                if fold is None:
                    values[i] = body(starts[i])
                elif not settle(i, body(starts[i])):
                    return
            except Exception as exc:
                with turn:
                    failures.append((i, exc))
                    turn.notify_all()
                return

    if _pool is None:
        _pool = ThreadPoolExecutor(1, thread_name_prefix="coarsereg-rows")
    future = _pool.submit(contextvars.copy_context().run, run)
    _busy = True
    try:
        run()
        future.result()
    except BaseException:
        # the caller was interrupted, in its blocks or waiting for the pool
        # thread: that thread, waiting for its turn or not, stops after its block
        with turn:
            failures.append((-1, None))
            turn.notify_all()
        raise
    finally:
        _busy = False
    _, error = min(failures, key=lambda failure: failure[0], default=(0, None))
    if error is not None:
        raise error
    return values if fold is None else None


# Each thread's two slots of _scratch, kept from pass to pass.
_slots = threading.local()


def _scratch(slot, shape, dtype=float):
    """An uninitialised C-contiguous array of ``shape`` and ``dtype``, the
    block buffers of every blocked loop: a view of this thread's slot 0 or
    1, each ``_BLOCK_BYTES`` kept from pass to pass, so a pass takes no
    fresh pages from the OS; or, for a request larger than ``_BLOCK_BYTES``,
    a fresh array that is not kept, so a thread keeps two blocks at most.

    A view is valid until the thread next asks for its slot, so a block
    body must not start another pass while it holds one. None does: the
    kernel bodies call only the density and the per-row statistic, and a
    study's replicate body holds no slot.
    """
    nbytes = np.dtype(dtype).itemsize * math.prod(shape)
    if nbytes > _BLOCK_BYTES:
        return np.empty(shape, dtype)
    kept = vars(_slots)
    if slot not in kept or kept[slot].nbytes != _BLOCK_BYTES:
        kept[slot] = np.empty(_BLOCK_BYTES, np.uint8)
    return kept[slot][:nbytes].view(dtype).reshape(shape)


def _joined(blocks):
    """The per-row arrays of a pass's :func:`_row_blocks` values, each
    joined in row order."""
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*blocks))


def _defined(den):
    """Where the ratio is defined: den at or above ``DEGENERACY_THRESHOLD``
    (so a NaN den is undefined)."""
    return den >= DEGENERACY_THRESHOLD


def _row_mean(a):
    """``np.mean(a, axis=1)`` of a float array, bit for bit: numpy's pairwise
    sum over each row divided by the row length, without ``np.mean``'s
    argument handling, which takes half the time of a 4 x 250 mean."""
    return np.add.reduce(a, axis=1) / a.shape[1]


def _kernel_moments(kernel, x, w, y, per_row=None):
    """den ``mean(k, axis=1)`` and num ``mean(k * y, axis=1)`` for
    ``k = kernel(x[:, None] - w[None, :], span)`` built in blocks of grid
    rows, with ``span`` at least every |offset| of the pass, not the block;
    with ``per_row`` (:func:`_centered_variance` or :func:`_flat_support`),
    also its values on each block, given the responses less their median.

    ``w`` and ``y`` may also be (c, n) stacks of c samples. The rows are then
    x's rows on each sample in turn, so every result has c * len(x) entries,
    sample by sample. A block of a stack holds whole samples (one at least),
    and the pass pools by :func:`_row_blocks`' rule on its c * len(x) * n cells.

    ``kernel`` may overwrite its argument, the offsets in slot 0 of
    :func:`_scratch`, and return it. ``k * y``, and ``per_row``'s work after
    it, go to slot 1, or over the kernel's values when there is no
    ``per_row`` and they are in the offsets' block. Each row's values depend
    on that row alone: not on the blocking, the other rows of ``x``, the
    other samples of a stack, the thread of :func:`_row_blocks` that
    computes it, nor on the BLAS library or its thread count.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w, y = np.atleast_2d(w), np.atleast_2d(y)
    (c, n), g = w.shape, len(x)
    if not g:  # no rows: every result is empty
        return tuple(np.empty(0) for _ in range(2 if per_row is None else 3))
    step = _block_len(n)
    if c > 1 or step >= g:  # whole samples per block
        step = max(1, step // g) * g
    yc = None if per_row is None else y - np.median(y, axis=1, keepdims=True)
    # at least every |x - w|, since rounding is monotone; a one-block pass
    # leaves the search for far offsets to the kernel, which costs as much
    span = max(x.max() - w.min(), w.max() - x.min()) if step < c * g else np.inf

    def block(start):
        stop = min(start + step, c * g)
        # the block is rows r0:r1 of x on samples s0:s1
        s0, r0 = divmod(start, g)
        s1, r1 = (s0 + 1, r0 + stop - start) if step < g else (stop // g, g)
        shape = (s1 - s0, r1 - r0, n)
        offsets = _scratch(0, (stop - start, n))
        np.subtract(x[None, r0:r1, None], w[s0:s1, None, :], out=offsets.reshape(shape))
        k = kernel(offsets, span)
        # numpy reductions over the sample axis accumulate pairwise,
        # keeping long replication studies deterministic and
        # well-conditioned
        den = _row_mean(k)
        # per_row needs k beside k * y, and k may be a custom pdf's own
        # array; otherwise k * y overwrites the kernel's own block
        scratch = k if per_row is None and k is offsets else _scratch(1, k.shape)
        np.multiply(k.reshape(shape), y[s0:s1, None, :], out=scratch.reshape(shape))
        num = _row_mean(scratch)
        if per_row is None:
            return den, num
        # each row's own sample's responses
        rows_yc = yc[s0] if s1 - s0 == 1 else np.repeat(yc[s0:s1], r1 - r0, axis=0)
        return den, num, per_row(k, rows_yc, den, scratch)

    # a custom density's pdf is the user's code, which need not be thread-safe
    custom = getattr(getattr(kernel, "__self__", None), "kind", None) == "custom"
    return _joined(_row_blocks(block, c * g, step, n, serial=custom))


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
    return den if den.size != 1 else float(den[0])


def response_weighted_density(sample: TrainingSample, err: ErrorDensity, x):
    """Average of y_i * err.pdf(x - w_i): the ratio numerator."""
    num = _kernel_moments(err._pdf_into, x, sample.w, sample.y)[1]
    return num if num.size != 1 else float(num[0])


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
    """Golden-section minimizer of ``f`` on [lo, hi] to absolute ``xtol``.
    It also stops once rounding leaves the interior points out of strict
    order inside the bracket, which happens only when the bracket is a few
    float spacings wide; every step it takes shrinks the bracket, so it
    ends at any magnitude."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol and a < c < d < b:
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


def _scan_ratios(err, xs, w, y):
    """The ratios ``r`` of the scan at the ascending points ``xs`` and radii
    ``e`` with ``|r - r_dense| <= e``, where ``r_dense`` is num / den of
    :func:`_moments_at` at ``xs``. A point left undecided has ``r = 0`` and
    ``e = inf``. The one scan of :func:`find_extremum` and
    :func:`find_zeros`.

    Under a Laplace density of scale b, the kernel sums
    ``S_g = sum_i v_i k(x_g - w_i)`` for v = 1, y and |y| (D, N and A) are
    O(n + G) recursions. With ``seg_i`` the first g where x_g >= w_i and
    ``a_g = exp(-(x_g - x_{g-1}) / b)``, ``S_g = L_g + R_g`` where

        L_g = a_g L_{g-1} + sum_{seg_i = g} v_i k(x_g - w_i),
        R_g = a_{g+1} R_{g+1} + sum_{seg_i = g+1} v_i k(w_i - x_g),

    as each term's product of a's is its own kernel ratio. Every exponent
    is at most 0. The local terms are ``err``'s pdf, the dense pass's own
    formula, summed by ``np.bincount``; the recursions take one loop over
    the G points.

    The radius bounds both sums' errors against the exact ones, taking
    np.exp within 4 ulp (8u, u the unit roundoff) and s = span / b, span the
    largest |x_g - w_i|:

    - the dense row: the offset and the division by -b round the exponent
      by 2u relative, so the exp by 2.01 s u; the exp 8u; the division by
      2b and the product with y 2u; numpy's pairwise mean, at most
      log2(n) + 19 roundings deep; in all (2.01 s + log2 n + 29) u;
    - the recursion: the same 2.01 s u, as a term's exponents (its local
      one and its a's) sum to its own; the local term's 10u; the
      bincount's sequential sum, up to n - 1 roundings; each of up to G
      steps an exp, a product and a sum, 10u; L + R, u; in all
      (n + 10 G + 2.01 s + 11) u.

    Their sum, (n + 10 G + 4.02 s + log2 n + 40) u relative to the sum of
    |v_i| k_i, doubled for second-order terms and for bounding the exact
    sum of |v_i| k_i by the computed one, is within
    ``c = 2 (n + 10 G + 5 s + log2 n + 40) u``, which the certificate
    requires below 1/2. Results below the normal range have absolute
    errors instead: 4 ulp of 2^-1074 from an exp, so 2^-1074 / b once
    divided by 2b, and 2^-1075 per rounding, over n terms, G steps and the
    mean's division by n on both sides; doubled as c is, that is within
    ``tiny = 16 (n + G) 2^-1074 (1 + 1 / b)``. So, in sums of k (n times
    den and num), |D - D_dense| <= e_D = c D + tiny and
    |N - N_dense| <= e_N = c A + tiny, and

        e = (e_N + |r| e_D) / (D - e_D) + 4 u |r|,

    the last term for the divisions by n and the two ratios' roundings (a
    ratio rounded to a subnormal is off by at most 2^-1075, less than
    e_N / D, as D <= n / (2b)). The few roundings of e itself are within
    the slack of c's constants.

    A point is undecided where r is not finite or e is not finite and
    positive. Unless every point is certainly defined, (D - 2 e_D) / n at
    or above ``DEGENERACY_THRESHOLD`` (which puts D - e_D above it,
    roundings included), the dense scan runs instead and raises
    DegenerateDenominatorError as it does. Every other density kind runs
    the dense scan, with e = 0 where r is finite. No floating-point warning
    escapes.
    """
    g, n = len(xs), len(w)
    e = None
    with np.errstate(all="ignore"):
        if err.kind == "laplace":
            b = err.scale
            seg = np.searchsorted(xs, w, "left")
            # each w_i's kernel to the nearest scan point at or right of it
            # (row 0, for L) and left of it (row 1, for R); a w_i with none
            # on one side gets a finite term in a bin that is dropped
            k = np.empty((2, n))
            np.subtract(xs[np.minimum(seg, g - 1)], w, out=k[0])
            np.subtract(w, xs[np.maximum(seg - 1, 0)], out=k[1])
            k = err._pdf_into(k)
            local = np.empty((2, 3, g))
            for side, bins in enumerate((slice(0, g), slice(1, g + 1))):
                for j, v in enumerate((1.0, y, np.abs(y))):
                    local[side, j] = np.bincount(seg, k[side] * v, g + 1)[bins]
            a = np.exp(np.diff(xs) / -b).tolist()

            def sweep(a, local):
                # s_j = a[j] s_{j-1} + local[:, j] from s_{-1} = 0, in floats
                sums, out = [0.0, 0.0, 0.0], []
                for aj, *terms in zip(a, *local.tolist()):
                    sums = [aj * s + t for s, t in zip(sums, terms)]
                    out.append(sums)
                return np.array(out).T

            den, num, mag = (sweep([0.0, *a], local[0])
                             + sweep([0.0, *a[::-1]], local[1][:, ::-1])[:, ::-1])
            span = np.maximum(xs[-1] - w.min(), w.max() - xs[0])
            c = 2.0 * (n + 10 * g + 5 * (span / b) + np.log2(n) + 40) * _U
            tiny = 16 * (n + g) * 2.0**-1074 * (1.0 + 1.0 / b)
            e_den = c * den + tiny
            if c < 0.5 and np.all(_defined((den - 2.0 * e_den) / n)):
                r = num / den
                e = (c * mag + tiny + np.abs(r) * e_den) / (den - e_den) + 4.0 * _U * np.abs(r)
                e[~(e > 0.0)] = np.inf  # a radius lost to underflow or NaN
        if e is None:
            den, num = _moments_at(err._pdf_into, xs, w, y)
            r, e = num / den, np.zeros(g)
        undecided = ~(np.isfinite(r) & np.isfinite(e))
        r[undecided], e[undecided] = 0.0, np.inf
    return r, e


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
    refinement around the best bracket to 1e-8 in x, or to a few float
    spacings where those are wider. The interval must stay clear of the
    degeneracy threshold throughout.

    The scan's best point is the first argmin of the dense ratios. Under a
    Laplace density it is decided by certified approximate ratios
    (:func:`_scan_ratios`): only the points whose interval could hold the
    minimum get their dense rows, and each row's bits depend on that row
    alone, so the result is the dense scan's.

    Returns
    -------
    (location, value)
    """
    if kind not in ("max", "min"):
        raise ValueError(f"kind must be 'max' or 'min', got {kind!r}")
    xs = _scan_grid(lo, hi, scan_points)
    sign = -1.0 if kind == "max" else 1.0
    r, e = _scan_ratios(err, xs, sample.w, sample.y)
    v = sign * r
    # rounding is monotone, so the first argmin is among these
    cand = np.flatnonzero(v - e <= np.min(v + e))
    den, num = _moments_at(err._pdf_into, xs[cand], sample.w, sample.y)
    best = int(cand[np.argmin(sign * (num / den))])
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
    1e-10, or to adjacent floats where their spacing is wider. A scan point
    sitting exactly on the level counts only when its neighbors straddle
    the level. The returned array may be empty.

    Only the signs of the dense scan's ratios less the level are used.
    Under a Laplace density, a point whose certified approximate ratio
    (:func:`_scan_ratios`) lies farther from the level than its radius has
    the dense ratio's sign; the others get their dense rows. The result is
    the dense scan's.
    """
    xs = _scan_grid(lo, hi, scan_points)
    if not np.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    r, e = _scan_ratios(err, xs, sample.w, sample.y)
    f = r - level
    near = np.flatnonzero(np.abs(f) <= e)
    den, num = _moments_at(err._pdf_into, xs[near], sample.w, sample.y)
    f[near] = num / den - level
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
                if not a < mid < b:  # a and b are adjacent floats
                    break
                fm = regression_at(sample, err, mid) - level
                if fm == 0.0:
                    a = b = mid
                elif _straddle(fa, fm):
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return np.array(sorted(roots))
