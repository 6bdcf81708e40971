"""The worker pool of the blocked passes (``known._row_blocks``): a pass split
over worker threads gives the serial pass's bits, raises the serial pass's
errors and honours the caller's ``np.errstate``."""

import os
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarsereg import DegenerateDenominatorError, ErrorDensity, fourier, known
from coarsereg.known import _centered_variance, _flat_support, _kernel_moments, _moments_at
from coarsereg.nw import _gauss

# gaussian(0.02) underflows from offsets of about 0.75, so grids past the
# data hit the exp's underflow and, for the uniform kind, undefined points
DENSITIES = [ErrorDensity.gaussian(0.1), ErrorDensity.gaussian(0.02),
             ErrorDensity.laplace(0.05), ErrorDensity.uniform(0.1)]
PER_ROW = [None, _centered_variance, _flat_support]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def pool_of(workers, budget=None):
    """Let every pass split over ``workers`` CPUs, however small, under a
    block budget of ``budget`` bytes (the default when None)."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(known.os, "sched_getaffinity",
                                          lambda pid: set(range(workers))))
    stack.enter_context(mock.patch.object(known, "_POOL_MIN_CELLS", 0))
    if budget is not None:
        stack.enter_context(mock.patch.object(known, "_BLOCK_BYTES", budget))
    return stack


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
    y = np.round(rng.normal(size=n), draw(st.sampled_from([0, 3])))  # ties for _flat_support
    x = np.linspace(-0.2, draw(st.sampled_from([1.0, 1.5, 3.0])), g)
    kind = draw(st.sampled_from(["density", "nw", "cf", "weighted cf"]))
    if kind == "density":
        kernel = draw(st.sampled_from(DENSITIES))._pdf_into
    elif kind == "nw":
        h = draw(st.sampled_from([0.01, 0.1]))
        kernel = lambda u, span: _gauss(u, h, span)  # noqa: E731
    if kind.endswith("cf"):
        # a symmetric odd-length grid, of which _mean_exp evaluates t >= 0
        t = np.linspace(-20.0, 20.0, 2 * g + 1)
        weights = y if kind == "weighted cf" else None
        call = lambda: fourier._mean_exp(t, w, weights)  # noqa: E731
    else:
        moments = draw(st.sampled_from([_kernel_moments, _moments_at]))
        per_row = draw(st.sampled_from(PER_ROW))
        call = lambda: moments(kernel, x, w, y, per_row)  # noqa: E731
    # from one row of floats per block, often, to the whole pass in one block
    rows = draw(st.integers(1, 3) | st.integers(1, 2 * g + 1))
    budget = 8 * n * rows + draw(st.integers(0, 8 * n))
    return call, budget


@given(passes(), st.integers(1, 3), st.booleans())
def test_pooled_passes_match_serial_bits(case, workers, raising):
    call, budget = case
    with pool_of(1, budget):
        want = outcome(call, raising)
    with pool_of(workers, budget):
        assert outcome(call, raising) == want


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
    threads = []

    def spy(blocks_of, *args, **kwargs):
        def recording(starts):
            threads.append(threading.current_thread().name)
            return blocks_of(starts)
        return row_blocks(recording, *args, **kwargs)

    row_blocks = known._row_blocks
    with pool_of(2, 8 * 50), mock.patch.object(known, "_row_blocks", spy):
        _kernel_moments(custom._pdf_into, x, w, w)
        assert threads == ["MainThread"]
        threads.clear()
        side = threading.Thread(target=_kernel_moments,
                                args=(ErrorDensity.laplace(0.1)._pdf_into, x, w, w))
        side.start()
        side.join(timeout=60)
        assert not side.is_alive()
        assert threads == [side.name]


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
