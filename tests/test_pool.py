"""The worker pool of the blocked passes (``known._row_blocks``): a pass split
over worker threads gives the serial pass's bits, raises the serial pass's
errors and honours the caller's ``np.errstate``. A replication study's
chunks of replicates, and leave-one-out CV's blocks of held-out rows, are
the blocks of one such pass."""

import gc
import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarsereg import (
    DegenerateDenominatorError, ErrorDensity, EstimatorSpec, EvalGrid, ScenarioConfig,
    TrainingSample, covariance_matrix, fourier, known, nw, run_replications, simulation,
)
from coarsereg.known import _kernel_moments, _moments_at
from pooling import pool_of, replicate_threads

pytestmark = pytest.mark.thorough

# gaussian(0.02) underflows from offsets of about 0.75, so grids past the
# data hit the exp's underflow and, for the uniform kind, undefined points
DENSITIES = [ErrorDensity.gaussian(0.1), ErrorDensity.gaussian(0.02),
             ErrorDensity.laplace(0.05), ErrorDensity.uniform(0.1)]
PER_ROW = [False, True]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def outcome(f, raising):
    """The bytes of the arrays ``f`` returns, or its error's type and message,
    under ``np.errstate(all="raise")`` when ``raising``."""
    try:
        with np.errstate(all="raise") if raising else nullcontext():
            return [None if a is None else a.tobytes() for a in f()]
    except (FloatingPointError, ValueError) as exc:  # DegenerateDenominatorError too
        return type(exc), str(exc)


@st.composite
def passes(draw):
    n = draw(st.integers(1, 60))
    g = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, n)
    y = np.round(rng.normal(size=n), draw(st.sampled_from([0, 3])))  # ties: flat rows
    hi = draw(st.sampled_from([1.0, 1.5, 3.0]))
    x = np.linspace(-0.2, hi, g)
    kind = draw(st.sampled_from(["density", "nw", "cf", "weighted cf", "inversion",
                                 "covariance", "loo"]))
    row_bytes = 8 * n
    if kind == "density":
        kernel = draw(st.sampled_from(DENSITIES))._pdf_into
    elif kind == "nw":
        h = draw(st.sampled_from([0.01, 0.1]))
        kernel = nw._kernel(h)
    if kind.endswith("cf"):
        # a symmetric odd-length grid, of which _mean_exp evaluates t >= 0
        t = np.linspace(-20.0, 20.0, 2 * g + 1)
        weights = y if kind == "weighted cf" else None
        call = lambda: fourier._mean_exp(t, w, weights)  # noqa: E731
    elif kind == "inversion":
        # x's rows against 2 * nodes + 1 frequencies, each 16 bytes
        nodes = draw(st.integers(fourier.MIN_NODES, 40))
        cfg = fourier.FourierConfig(20.0, 20.0 / nodes)
        err = draw(st.sampled_from(DENSITIES))
        sample, grid = TrainingSample(w, y), EvalGrid(np.append(x, x[-1] + 1.0))
        call = lambda: fourier.invert_cf(sample, err, cfg, grid)  # noqa: E731
        row_bytes = 16 * (2 * nodes + 1)
    elif kind == "covariance":
        # column blocks of at least 2G sample columns, each column G floats:
        # a few grid points make up to 30 blocks of the 60 samples
        err = draw(st.sampled_from(DENSITIES))
        grid = EvalGrid.linspace(-0.2, hi, draw(st.integers(2, 8)))
        call = lambda: [covariance_matrix(TrainingSample(w, y), err, grid).entries]  # noqa: E731
        row_bytes = 8 * len(grid)
    elif kind == "loo":
        # blocks of held-out rows of n distances each; at the smallest
        # bandwidths some held-out point's weights all underflow, so those
        # score inf
        bandwidths = np.geomspace(draw(st.sampled_from([1e-4, 1e-3, 0.01])), 0.5, g)
        call = lambda: [nw._loo_scores(TrainingSample(w, y), bandwidths)]  # noqa: E731
    else:
        moments = draw(st.sampled_from([_kernel_moments, _moments_at]))
        per_row = draw(st.sampled_from(PER_ROW))
        call = lambda: moments(kernel, x, w, y, per_row)  # noqa: E731
    # from one row of floats per block, often, to the whole pass in one block
    rows = draw(st.integers(1, 3) | st.integers(1, 2 * g + 1))
    budget = row_bytes * rows + draw(st.integers(0, row_bytes))
    return call, budget


@given(passes(), st.integers(1, 3), st.booleans())
def test_pooled_passes_match_serial_bits(case, workers, raising):
    call, budget = case
    with pool_of(1, budget):
        want = outcome(call, raising)
    with pool_of(workers, budget):
        assert outcome(call, raising) == want


@st.composite
def stacks(draw):
    """A pass over a stack of samples, and the same pass sample by sample."""
    c, n, g = draw(st.integers(1, 5)), draw(st.integers(1, 60)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, 1.0, (c, n))
    # each sample its own median; ties for the variance's flat rows
    y = np.round(rng.normal(size=(c, n)) + rng.normal(0.0, 5.0, (c, 1)),
                 draw(st.sampled_from([0, 3])))
    x = np.linspace(-0.2, draw(st.sampled_from([1.0, 1.5, 3.0])), g)
    if draw(st.booleans()):
        kernel = draw(st.sampled_from(DENSITIES))._pdf_into
    else:
        h = draw(st.sampled_from([0.01, 0.1]))
        kernel = nw._kernel(h)
    per_row = draw(st.sampled_from(PER_ROW))
    at = draw(st.lists(st.integers(0, g - 1), min_size=1, unique=True).map(sorted))
    rows = draw(st.integers(1, 3) | st.integers(1, 2 * c * g))
    budget = 8 * n * rows + draw(st.integers(0, 8 * n))
    return kernel, x, w, y, per_row, at, budget


@given(stacks(), st.integers(1, 3))
def test_a_stack_gives_each_sample_its_own_rows(case, workers):
    # whole samples per block, or row blocks of a one-sample stack, serial
    # or pooled: each row keeps the bits of its sample's own pass, in a pass
    # over all of x and in one over the rows x[at] alone, as a study's
    # variance pass over its coverage points
    kernel, x, w, y, per_row, at, budget = case
    alone = [_kernel_moments(kernel, x, w_i, y_i, per_row) for w_i, y_i in zip(w, y)]
    for rows in (slice(None), at):
        want = [np.concatenate([m[i][rows] for m in alone]) for i in range(len(alone[0]))]
        with pool_of(workers, budget):
            got = _kernel_moments(kernel, x[rows], w, y, per_row)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_errstate_and_errors_reach_the_workers():
    # only the rows of the second half (x above 3.5, past the data) underflow;
    # the caller's first block is slow, so a pool thread takes all the others
    # and must raise, as the serial pass does, under the caller's errstate
    w = np.linspace(0.0, 0.1, 50)
    x = np.linspace(0.0, 7.0, 40)
    err = ErrorDensity.gaussian(0.1)
    threads, delay = set(), [0.0]

    def kernel(u, span):
        if threading.current_thread() is threading.main_thread():
            time.sleep(delay.pop() if delay else 0.0)
        else:
            threads.add(threading.current_thread().name)
        return err._pdf_into(u, span)

    def call():
        return _kernel_moments(kernel, x, w, w)

    with pool_of(1, 8 * 50):
        serial = outcome(call, raising=True)
    assert serial[0] is FloatingPointError and serial[1].startswith("underflow")
    with pool_of(2, 8 * 50):
        delay[:] = [0.2]
        assert outcome(call, raising=False) != serial  # the default only warns
        delay[:] = [0.2]
        threads.clear()
        assert outcome(call, raising=True) == serial
    assert threads  # a pool thread took blocks


def test_the_first_failing_block_raises():
    # every block fails; the caller's first one fails last, after a pool
    # thread has failed on a later block
    w = np.linspace(0.0, 1.0, 50)
    x = np.linspace(0.0, 1.0, 40)
    delay = [0.0]

    def kernel(u, span):
        if threading.current_thread() is threading.main_thread():
            time.sleep(delay.pop() if delay else 0.0)
        raise ValueError(f"block at x={u[0, 0] + w[0]}")

    def call():
        return _kernel_moments(kernel, x, w, w)

    with pool_of(1, 8 * 50):
        serial = outcome(call, raising=False)
    assert serial == (ValueError, "block at x=0.0")
    with pool_of(2, 8 * 50):
        delay[:] = [0.2]
        assert outcome(call, raising=False) == serial


COV_N, COV_G = 80, 5
# a budget of 2G columns of G floats: eight covariance column blocks of 2G
COV_BUDGET = 8 * COV_G * 2 * COV_G


def covariance_with(hook):
    """The entries of ``covariance_matrix`` on a 5-point grid over eight
    column blocks, with ``hook(i)`` called as column block i's kernel is
    built, before it (the first pass's kernel rows call nothing)."""
    rng = np.random.default_rng(97)
    w = np.sort(rng.uniform(0.0, 1.0, COV_N))
    y = rng.normal(size=COV_N)
    grid = EvalGrid.linspace(0.0, 1.0, COV_G)
    # each column block's first offset, x_0 less its first w, tells it apart
    firsts = [grid.points[0] - w[start] for start in range(0, COV_N, 2 * COV_G)]
    pdf_into = ErrorDensity._pdf_into

    def kernel(self, u, span=np.inf):
        if u.shape == (COV_G, 2 * COV_G):
            hook(firsts.index(u[0, 0]))
        return pdf_into(self, u, span)

    with mock.patch.object(ErrorDensity, "_pdf_into", kernel):
        return [covariance_matrix(TrainingSample(w, y), ErrorDensity.gaussian(0.2),
                                  grid).entries]


class Hang(BaseException):
    """A pass that took too long; a BaseException, so no block takes it for
    its own error."""


@contextmanager
def deadline(seconds):
    """Raise Hang in the main thread, which must run the block, once
    ``seconds`` have passed, even while it waits on a lock."""
    def expire(signum, frame):
        raise Hang(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_covariance_folds_in_block_order_when_later_blocks_finish_first():
    # the caller's first column block sleeps, so the pool thread builds a
    # later block first; its product waits for its turn, and the products
    # are summed in block order, giving the serial bytes
    built, delay = [], [0.0]

    def hook(i):
        if threading.current_thread() is threading.main_thread():
            time.sleep(delay.pop() if delay else 0.0)
        built.append(i)

    with pool_of(1, COV_BUDGET):
        want = outcome(lambda: covariance_with(hook), raising=True)
    assert built == list(range(8))
    built.clear()
    delay[:] = [0.2]
    with pool_of(2, COV_BUDGET), deadline(30):
        assert outcome(lambda: covariance_with(hook), raising=True) == want
    assert sorted(built) == list(range(8)) and built != sorted(built)


def test_a_failing_middle_block_wakes_the_fold_waiting_behind_it():
    # column block 3 fails after a delay, while the other thread, done with
    # block 4, waits for block 3 to be folded: the failure must wake it, and
    # the pass raise block 3's error, as the serial pass does
    delay = [0.0]

    def hook(i):
        if i == 3:
            time.sleep(delay.pop() if delay else 0.0)
            raise ValueError("column block 3")

    with pool_of(1, COV_BUDGET):
        want = outcome(lambda: covariance_with(hook), raising=False)
    assert want == (ValueError, "column block 3")
    delay[:] = [0.2]
    with pool_of(2, COV_BUDGET), deadline(30):
        assert outcome(lambda: covariance_with(hook), raising=False) == want
    assert not known._busy


def test_a_pass_queued_behind_the_busy_pool_thread_holds_nothing_after():
    # each of the caller's blocks starts a pass of its own while the pool
    # thread is busy with the outer pass; that pass runs serially on the
    # caller and submits nothing, so once it returns nothing holds its
    # data, and a study's shared replicates do not pile up in memory
    class Data:
        pass

    freed = []

    def inner(data):
        return lambda start: data is not None

    def outer(start):
        if threading.current_thread() is threading.main_thread():
            data = Data()
            ref = weakref.ref(data)
            assert known._row_blocks(inner(data), 8, 1, 1) == [True] * 8
            del data
            gc.collect()
            freed.append(ref() is None)
        else:
            time.sleep(0.05)
        return start

    with pool_of(2):
        assert known._row_blocks(outer, 8, 1, 1) == list(range(8))
    assert freed and all(freed)


def count_submits():
    """Patch the pool thread's ``submit`` (made first by a pooled pass) to
    count its calls."""
    with pool_of(2):
        known._row_blocks(lambda start: start, 8, 1, 1)
    return mock.patch.object(known._pool, "submit", wraps=known._pool.submit)


def test_a_pass_begun_in_a_pooled_block_submits_nothing():
    # the caller's blocks each start a pass while the pool thread is busy
    # with the outer one: those run serially, calling no submit
    inner = []

    def outer(start):
        if threading.current_thread() is threading.main_thread():
            inner.append(known._row_blocks(lambda i: i, 8, 1, 1))
        else:
            time.sleep(0.05)
        return start

    with count_submits() as submit, pool_of(2):
        assert known._row_blocks(outer, 8, 1, 1) == list(range(8))
    assert inner and all(values == list(range(8)) for values in inner)
    assert submit.call_count == 1  # the outer pass's own


def test_the_pool_is_free_again_after_a_pooled_pass_raises():
    threads = []

    def failing(start):
        raise ValueError(f"block {start}")

    def recording(start):
        threads.append(threading.current_thread().name)
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.05)  # the pool thread, when asked, takes the others
        return start

    with count_submits() as submit, pool_of(2):
        with pytest.raises(ValueError, match="block 0"):
            known._row_blocks(failing, 8, 1, 1)
        assert not known._busy
        assert known._row_blocks(recording, 8, 1, 1) == list(range(8))
    assert submit.call_count == 2
    assert any(name.startswith("coarsereg-rows") for name in threads)


def test_blocks_keep_their_places_and_slots_under_fast_switching():
    # the threads switch as often as the interpreter lets them: every
    # block's value lands in its own place, and each thread's slot views
    # are its own, so no other block writes into them meanwhile
    threads = set()

    def body(start):
        threads.add(threading.current_thread().name)
        view = known._scratch(start % 2, (64,))
        view[:] = start
        time.sleep(0)
        return float(view.sum()) / 64

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pool_of(2):
            assert known._row_blocks(body, 2000, 1, 1) == list(range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 2


def test_first_undefined_point_is_named_from_a_worker_range():
    w = np.linspace(0.0, 1.0, 30)
    x = np.concatenate([np.linspace(0.0, 1.0, 20), [7.0, 5.0]])
    kernel = ErrorDensity.uniform(0.1)._pdf_into
    with pool_of(2, 8 * 30):
        with pytest.raises(DegenerateDenominatorError, match="at x=7.0"):
            _moments_at(kernel, x, w, w)


def test_serial_off_the_main_thread_and_for_custom_densities():
    w = np.linspace(0.0, 1.0, 50)
    x = np.linspace(0.0, 1.0, 40)
    custom = ErrorDensity.custom(lambda u: np.maximum(1.0 - np.abs(u), 0.0), scale=0.5)
    threads = set()  # the thread of each block

    def spy(body, *args, **kwargs):
        def recording(start):
            threads.add(threading.current_thread().name)
            return body(start)
        return row_blocks(recording, *args, **kwargs)

    row_blocks = known._row_blocks
    with pool_of(2, 8 * 50), mock.patch.object(known, "_row_blocks", spy):
        _kernel_moments(custom._pdf_into, x, w, w)
        assert threads == {"MainThread"}
        threads.clear()
        side = threading.Thread(target=_kernel_moments,
                                args=(ErrorDensity.laplace(0.1)._pdf_into, x, w, w))
        side.start()
        side.join(timeout=60)
        assert not side.is_alive()
        assert threads == {side.name}


def spy_on_loo_blocks(passes, delay=()):
    """Patch LOO-CV's block pass to record, per pass, its calling thread and
    the threads of its blocks in ``passes``; the caller's first block sleeps
    the first of ``delay`` seconds, if any, so that the pool thread, if the
    pass shares its blocks, takes the next ones."""
    row_blocks, delays = nw._row_blocks, list(delay)

    def spy(body, *args, **kwargs):
        caller, seen = threading.current_thread().name, set()

        def recording(start):
            if threading.current_thread() is threading.main_thread():
                time.sleep(delays.pop() if delays else 0.0)
            seen.add(threading.current_thread().name)
            return body(start)

        values = row_blocks(recording, *args, **kwargs)
        passes.append((caller, seen))
        return values

    return mock.patch.object(nw, "_row_blocks", spy)


LOO_N = 60


@pytest.mark.parametrize("blocks", [1, 5, LOO_N])
def test_a_pooled_loo_pass_gives_the_serial_bytes(blocks):
    # one block, a few and one held-out row per block, over a bandwidth
    # grid whose smallest entries score inf: from four blocks on, the pool
    # thread takes the blocks the caller's slow first one leaves, and the
    # two threads, switching as often as the interpreter lets them, write
    # their own rows of the shared arrays
    rng = np.random.default_rng(41)
    sample = TrainingSample(rng.uniform(0.0, 1.0, LOO_N), rng.normal(size=LOO_N))
    bandwidths = np.geomspace(1e-4, 0.5, 12)
    budget = 8 * LOO_N * -(-LOO_N // blocks)
    with pool_of(1, budget):
        want = nw._loo_scores(sample, bandwidths)
    assert np.isinf(want[0]) and np.all(np.isfinite(want[-6:]))
    passes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for delay in ([0.2], []):
            with pool_of(2, budget), spy_on_loo_blocks(passes, delay):
                assert nw._loo_scores(sample, bandwidths).tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)
    (caller, seen), _ = passes
    assert caller == "MainThread"
    assert any(name.startswith("coarsereg-rows") for name in seen) == (blocks >= 4)


M1 = ScenarioConfig(model="m1", n=60, predictor_noise=0.25, response_noise=0.1, seed=5)


def test_custom_density_studies_call_the_pdf_on_one_thread():
    threads = set()

    def pdf(u):
        threads.add(threading.current_thread().name)
        return np.exp(-0.5 * (u / 0.1) ** 2) / (0.1 * np.sqrt(2.0 * np.pi))

    spec = EstimatorSpec(density=ErrorDensity.custom(pdf, scale=0.1))
    with pool_of(2):
        report = run_replications(M1, spec, reps=8, master_seed=3, rmse_points=(0.5,))
    assert report.failures == 0
    assert threads == {"MainThread"}


@pytest.mark.parametrize("spec, points", [
    (EstimatorSpec(), dict(coverage_points=(0.25, 0.5), rmse_points=(0.5, 0.75))),
    (EstimatorSpec(method="nw"), dict(rmse_points=(0.5,))),
    (EstimatorSpec(method="nw", bandwidth=0.05), dict(rmse_points=(0.5,))),
])
def test_pooled_studies_give_the_serial_bytes(spec, points):
    with pool_of(1):
        want = run_replications(M1, spec, reps=8, master_seed=9, **points).to_json()
    threads, recording = replicate_threads(delay=0.2)
    with pool_of(2), recording:
        assert run_replications(M1, spec, reps=8, master_seed=9, **points).to_json() == want
    assert any(name.startswith("coarsereg-rows") for name in threads)


def test_a_replicate_error_is_raised_as_in_the_serial_loop():
    # replicates 0 and 3 raise; the caller's replicate 0 raises last, after
    # the pool thread has raised on replicate 3
    states = [np.random.default_rng((9, idx)).bit_generator.state for idx in range(8)]
    generate, threads, delay = simulation.generate, set(), [0.0]

    def failing(scn, rng):
        idx = states.index(rng.bit_generator.state)
        threads.add(threading.current_thread().name)
        if idx in (0, 3):
            time.sleep(delay.pop() if idx == 0 and delay else 0.0)
            raise RuntimeError(f"replicate {idx}")
        return generate(scn, rng)

    def study():
        with mock.patch.object(simulation, "generate", failing):
            run_replications(M1, EstimatorSpec(), reps=8, master_seed=9)

    with pool_of(1), pytest.raises(RuntimeError, match="replicate 0"):
        study()
    delay[:] = [0.2]
    threads.clear()
    with pool_of(2), pytest.raises(RuntimeError, match="replicate 0"):
        study()
    assert any(name.startswith("coarsereg-rows") for name in threads)


def test_shared_nw_failures_are_logged_in_index_order(caplog):
    # a fixed narrow bandwidth leaves the rmse point undefined on most of
    # the five-point samples; the pool thread runs replicates 1 to 11 while
    # the caller's replicate 0 sleeps, yet the warnings follow the indices
    scn = ScenarioConfig(model="m1", n=5, predictor_noise=0.25, response_noise=0.1, seed=6)

    def study():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="coarsereg.simulation"):
            report = run_replications(scn, EstimatorSpec(method="nw", bandwidth=0.01), reps=12,
                                      master_seed=6, rmse_points=(0.5,))
        return report.to_json(), [record.getMessage() for record in caplog.records]

    with pool_of(1):
        want = study()
    threads, recording = replicate_threads(delay=0.2)
    with pool_of(2), recording:
        assert study() == want
    assert any(name.startswith("coarsereg-rows") for name in threads)
    failed = [int(message.split()[1]) for message in want[1]]
    assert 1 < len(failed) < 12 and failed == sorted(failed)


def test_failed_nw_cross_validations_are_logged_in_index_order(caplog):
    # the study-nw benchmark's m1 cell, with cv_bandwidth failing on the
    # samples of replicates 3 and 11, chosen by their predictors and not by
    # call order, so the pool thread may fail first; the report and the
    # warnings are the serial ones, and the other replicates are untouched
    scn = ScenarioConfig(model="m1", n=250, predictor_noise=0.25, response_noise=0.1)
    failing = {simulation.generate(scn, np.random.default_rng((8, idx))).x.tobytes()
               for idx in (3, 11)}
    cv_bandwidth = simulation.cv_bandwidth

    def failing_cv(sample):
        if sample.w.tobytes() in failing:
            raise DegenerateDenominatorError("cross-validation failed")
        return cv_bandwidth(sample)

    def study():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="coarsereg.simulation"):
            report = run_replications(scn, EstimatorSpec(method="nw"), reps=20, master_seed=8,
                                      rmse_points=(0.5,))
        return report, [record.getMessage() for record in caplog.records]

    clean, _ = study()
    with mock.patch.object(simulation, "cv_bandwidth", failing_cv):
        with pool_of(1):
            want, logged = study()
        threads, recording = replicate_threads(delay=0.2)
        with pool_of(2), recording:
            got, got_logged = study()
    assert got.to_json() == want.to_json() and got_logged == logged
    assert any(name.startswith("coarsereg-rows") for name in threads)
    assert clean.failures == 0 and want.failures == 2
    assert [int(message.split()[1]) for message in logged] == [3, 11]
    assert want.ise == [None if idx in (3, 11) else ise for idx, ise in enumerate(clean.ise)]


def test_an_nw_study_runs_each_loo_pass_on_its_replicate_thread():
    # the replicates are shared with the pool thread; each one's LOO-CV
    # pass, 15 blocks of 4 held-out rows, runs serially on the thread that
    # runs the replicate, as the pool thread is busy with the study
    passes = []
    threads, recording = replicate_threads(delay=0.2)
    with pool_of(2, 8 * M1.n * 4), recording, spy_on_loo_blocks(passes):
        report = run_replications(M1, EstimatorSpec(method="nw"), reps=8, master_seed=9)
    assert report.failures == 0 and len(passes) == 8
    callers = {caller for caller, _ in passes}
    assert "MainThread" in callers
    assert any(name.startswith("coarsereg-rows") for name in callers)
    assert all(seen == {caller} for caller, seen in passes)


@pytest.mark.parametrize("method, scn, pooled", [
    # the largest known cell of the benchmark: 101 x 500 cells per replicate
    ("known", ScenarioConfig(model="logistic", n=500, predictor_noise=0.5,
                             error_kind="uniform", seed=1), False),
    # an NW cell: 101 x 250 cells and 32 LOO-CV passes of 250 x 250
    ("nw", ScenarioConfig(model="sine2", n=250, predictor_noise=0.25, seed=2), True),
])
def test_a_study_pools_its_replicates_by_their_work(method, scn, pooled):
    threads, recording = replicate_threads(delay=0.2)
    with mock.patch.object(known.os, "sched_getaffinity", lambda pid: {0, 1}), recording:
        run_replications(scn, EstimatorSpec(method=method), reps=5, master_seed=4)
    assert any(name.startswith("coarsereg-rows") for name in threads) == pooled
    assert len(threads) == 5


def spy_on_passes(passes):
    """Patch the block engine to record each pass's rows, width and block
    threads in ``passes``; the caller's first block of a pass that may pool
    sleeps 0.2 s, so that the pool thread, if it shares the pass, takes the
    next blocks."""
    row_blocks = known._row_blocks

    def spy(body, rows, step, width, serial=False, **kwargs):
        seen = set()
        delay = [] if serial or rows * width < known._POOL_MIN_CELLS else [0.2]

        def recording(start):
            if threading.current_thread() is threading.main_thread():
                time.sleep(delay.pop() if delay else 0.0)
            seen.add(threading.current_thread().name)
            return body(start)

        values = row_blocks(recording, rows, step, width, serial, **kwargs)
        passes.append((rows, width, seen))
        return values

    return mock.patch.object(known, "_row_blocks", spy)


# the study-known benchmark's m1 cell: 101 grid points and three coverage
# points (0.5 also the rmse point) on samples of 250
BENCH_M1 = ScenarioConfig(model="m1", n=250, predictor_noise=0.25, response_noise=0.1, seed=7)
BENCH_M1_POINTS = dict(coverage_points=(0.25, 0.5, 0.75), rmse_points=(0.5,))


def known_study(reps, cpus):
    """The report of the m1 cell's known-error study on ``cpus`` CPUs, with
    the threads of its replicates and its kernel and replicate passes: those
    of width n and n x 101, not the oracle's serial quadrature passes over
    2^k + 1 nodes."""
    passes = []
    threads, recording = replicate_threads()
    with mock.patch.object(known.os, "sched_getaffinity", lambda pid: set(range(cpus))), \
            recording, spy_on_passes(passes):
        report = run_replications(BENCH_M1, EstimatorSpec(), reps=reps, master_seed=7,
                                  **BENCH_M1_POINTS)
    assert report.failures == 0 and len(threads) == reps
    n = BENCH_M1.n
    return report.to_json(), threads, [p for p in passes if p[1] in (n, n * 101)]


def test_a_known_study_shares_its_stacked_pass_with_the_pool_thread():
    # the 200 replicates form one chunk on the calling thread; its stacked
    # grid pass, 200 x 104 rows of 250 cells in blocks of two samples, is
    # 5.2e6 cells and pools, and its variance pass, 200 x 3 rows, does not
    report, threads, passes = known_study(200, cpus=2)
    assert set(threads) == {"MainThread"}
    (stack, stack_seen), (variance, variance_seen), (study, study_seen) = [
        ((rows, width), seen) for rows, width, seen in passes]
    assert stack == (200 * 104, 250)
    assert {name.split("_")[0] for name in stack_seen} == {"MainThread", "coarsereg-rows"}
    assert variance == (200 * 3, 250) and variance_seen == {"MainThread"}
    assert study == (200, 250 * 101) and study_seen == {"MainThread"}
    assert known_study(200, cpus=1)[0] == report


def test_a_known_study_below_the_crossover_stays_on_one_thread():
    # three replicates stack to 3 x 104 x 250 = 7.8e4 cells
    _, threads, passes = known_study(3, cpus=2)
    assert len(passes) == 3 and set(threads) == {"MainThread"}
    assert all(seen == {"MainThread"} for _, _, seen in passes)


CHILD = """
import os, sys, threading
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from coarsereg.cli import main
for i, argv in enumerate(sys.argv[2:]):
    assert main(argv.split() + ["--out", f"out{i}"]) == 0, argv
print(sum(t.name.startswith("coarsereg-rows") for t in threading.enumerate()))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="a one-CPU machine runs every pass serially, pinned or not")
def test_cli_outputs_do_not_depend_on_the_cpu_count(tmp_path):
    # sizes above the pool's crossover: n = 8 000 against 201 grid points,
    # 512 scan points and 401 frequencies
    rng = np.random.default_rng(83)
    n = 8_000
    w = rng.uniform(0.0, 1.0, n)
    y = np.sin(3.0 * w) + rng.normal(0.0, 0.3, n)
    u = rng.uniform(0.0, 1.0, (1_000, 1)) + rng.laplace(0.0, 0.1, (1_000, 3))
    w_cal = rng.uniform(0.0, 1.0, 500)
    np.savetxt(tmp_path / "train.csv", np.column_stack([w, y]), delimiter=",",
               header="w,y", comments="")
    np.savetxt(tmp_path / "pairs.csv", np.column_stack([1.0 + 2.0 * w_cal, w_cal]),
               delimiter=",", header="t,x", comments="")
    np.savetxt(tmp_path / "train_t.csv", np.column_stack([1.0 + 2.0 * w, y]),
               delimiter=",", header="t,y", comments="")
    with open(tmp_path / "reps.csv", "w") as fh:
        fh.write("group,u\n" + "".join(f"g{i},{v!r}\n" for i, row in enumerate(u)
                                       for v in row.tolist()))
    known_args = f"--train {tmp_path}/train.csv --delta laplace:0.1"
    commands = [
        f"fit-known {known_args} --grid 0:1:201",
        f"ci {known_args} --grid 0:1:201",
        f"extrema {known_args} --interval 0.2:0.8",
        f"zeros {known_args} --interval 0:1 --level 0.5",
        f"nw --train {tmp_path}/train.csv --grid 0:1:201 --bandwidth 0.05",
        f"fit-fourier --train {tmp_path}/train.csv --replicates {tmp_path}/reps.csv "
        "--grid 0:1:201 --tau 20 --tstep 0.05",
        f"cf --replicates {tmp_path}/reps.csv --tmax 20 --tstep 0.05",
        f"fit-proxy --pairs {tmp_path}/pairs.csv --train {tmp_path}/train_t.csv "
        "--delta laplace:0.1 --grid 0:1:201",
        # 20 covariance column blocks of 2G = 402 samples
        f"band {known_args} --grid 0:1:201 --nsim 2000 --seed 3",
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    outputs, pools = {}, {}
    for mode in ("pinned", "free"):
        cwd = tmp_path / mode
        cwd.mkdir()
        run = subprocess.run([sys.executable, "-c", CHILD, mode, *commands], cwd=cwd, env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        pools[mode] = int(run.stdout)
        outputs[mode] = [(cwd / f"out{i}").read_bytes() for i in range(len(commands))]
    assert pools["pinned"] == 0 and pools["free"] >= 1  # the pool ran unpinned only
    for command, pinned, free in zip(commands, outputs["pinned"], outputs["free"]):
        assert pinned == free, command.split()[0]


STUDY_CHILD = """
import os, sys, threading
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from coarsereg.simulation import EstimatorSpec, ScenarioConfig, run_replications
scn = ScenarioConfig(model="m1", n=11_000, predictor_noise=0.25, response_noise=0.1, seed=12)
report = run_replications(scn, EstimatorSpec(), reps=6, master_seed=12,
                          coverage_points=(0.25, 0.5), rmse_points=(0.5, 0.75))
print(sum(t.name.startswith("coarsereg-rows") for t in threading.enumerate()))
print(report.to_json())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="a one-CPU machine runs every study serially, pinned or not")
def test_known_study_above_the_crossover_does_not_depend_on_the_cpu_count(tmp_path):
    # 101 x 11 000 cells per replicate, above the pool's crossover: free,
    # the replicates are shared with the pool thread, one per chunk; pinned
    # to one CPU they run serially
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    outputs = {}
    for mode in ("pinned", "free"):
        run = subprocess.run([sys.executable, "-c", STUDY_CHILD, mode], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        outputs[mode] = run.stdout.split("\n", 1)
    assert outputs["pinned"][0] == "0" and outputs["free"][0] == "1"  # the pool ran free only
    assert outputs["pinned"][1] == outputs["free"][1]
    assert json.loads(outputs["free"][1])["failures"] == 0
