"""Test helpers that steer the block engine (``known._row_blocks``): how
many CPUs a pass sees, whether a small pass pools, and which thread draws
each replicate of a study."""

import threading
import time
from contextlib import ExitStack
from unittest import mock

from coarsereg import known, simulation


def cpus(count):
    """Let every pass see ``count`` CPUs, pooling by the engine's own rule."""
    return mock.patch.object(known.os, "sched_getaffinity", lambda pid: set(range(count)))


def pool_of(workers, budget=None):
    """Let every pass split over ``workers`` CPUs, however small, under a
    block budget of ``budget`` bytes (the default when None)."""
    stack = ExitStack()
    stack.enter_context(cpus(workers))
    stack.enter_context(mock.patch.object(known, "_POOL_MIN_CELLS", 0))
    if budget is not None:
        stack.enter_context(mock.patch.object(known, "_BLOCK_BYTES", budget))
    return stack


def replicate_threads(delay=0.0):
    """Patch the study's data draw to record the thread of each replicate,
    the caller's first draw sleeping ``delay`` seconds so that the pool
    thread, if the study starts one, takes the next replicates."""
    threads, generate, delays = [], simulation.generate, [delay]

    def recording(scn, rng):
        if threading.current_thread() is threading.main_thread():
            time.sleep(delays.pop() if delays else 0.0)
        threads.append(threading.current_thread().name)
        return generate(scn, rng)

    return threads, mock.patch.object(simulation, "generate", recording)
