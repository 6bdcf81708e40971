"""Outputs that do not depend on the BLAS thread count.

Every sample-axis moment (the kernel den and num, the empirical CFs and the
Fourier inversions) is an elementwise product summed by numpy's pairwise
reduction, so no BLAS call decides its bits. LOO-CV's scores are BLAS
products, each block of kernel rows times the responses and a column of
ones, so ``nw --bandwidth cv`` checks that their bits, and the bandwidth
they choose, do not move with the thread count. ``band``'s covariance is a
BLAS rank-k update, its square root comes from LAPACK's ``eigh`` and its
draws from a BLAS product, and OpenBLAS would split each of those among its
threads in a way that moves their last bits; the band runs them on one
OpenBLAS thread, so its bytes are the one-thread bytes under any count.
Each command runs in a fresh interpreter, since OpenBLAS reads its thread
count once, at import."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import coarsereg

SRC = pathlib.Path(coarsereg.__file__).parents[1]
N = 20_000
GROUPS = 2_000
# LOO-CV holds n x n kernel rows per bandwidth, so it runs on a file of its own
N_CV = 2_000
LAPLACE_B = 0.1
COMMANDS = {
    "fit-known": ["fit-known", "--train", "{train}", "--delta", f"laplace:{LAPLACE_B}"],
    "ci": ["ci", "--train", "{train}", "--delta", f"laplace:{LAPLACE_B}"],
    "nw": ["nw", "--train", "{train}", "--bandwidth", "0.05"],
    "nw-cv": ["nw", "--train", "{train_cv}", "--bandwidth", "cv"],
    "fit-fourier": ["fit-fourier", "--train", "{train}", "--tau", "20", "--replicates",
                    "{reps}"],
    "band": ["band", "--train", "{train}", "--delta", f"laplace:{LAPLACE_B}", "--nsim", "2000",
             "--seed", "3"],
}
# two threads everywhere, and every CPU where there are more
THREADS = sorted({2, os.cpu_count() or 1} - {1})
# the CLI with the OpenBLAS lookup finding nothing, so nothing is pinned
UNPINNED = ("import sys, coarsereg.inference; coarsereg.inference._openblas = lambda: None; "
            "from coarsereg.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The directory of the runs and its input files: training CSVs of N and
    N_CV rows with Laplace-contaminated predictors, and a file of replicate
    pairs with the same contamination."""
    directory = tmp_path_factory.mktemp("blas_threads")
    rng = np.random.default_rng(20_000)
    paths = {}
    for name, n in (("train", N), ("train_cv", N_CV)):
        w = rng.uniform(0.0, 1.0, n)
        y = np.sin(2.0 * np.pi * w) + rng.normal(0.0, 0.5, n)
        paths[name] = directory / f"{name}.csv"
        np.savetxt(paths[name], np.column_stack((w + rng.laplace(0.0, LAPLACE_B, n), y)),
                   fmt="%.17g", delimiter=",", header="w,y", comments="")
    u = rng.uniform(0.0, 1.0, GROUPS)[:, None] + rng.laplace(0.0, LAPLACE_B, (GROUPS, 2))
    paths["reps"] = directory / "reps.csv"
    paths["reps"].write_text("group,u\n" + "".join(
        f"g{g},{v:.17g}\n" for g, v in zip(np.repeat(np.arange(GROUPS), 2), u.ravel())))
    return directory, paths


def run(command, inputs, threads, unpinned=False):
    directory, paths = inputs
    argv = [a.format(**paths) for a in COMMANDS[command]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    entry = ["-c", UNPINNED] if unpinned else ["-m", "coarsereg.cli"]
    done = subprocess.run([sys.executable, *entry, *argv, "--grid", "0:1:201"],
                          env=env, cwd=directory, capture_output=True, check=True)
    return done.stdout


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_does_not_depend_on_blas_threads(inputs, command):
    one = run(command, inputs, 1)
    assert one.count(b"\n") > 200  # a header and 201 grid rows, at least
    for threads in THREADS:
        assert run(command, inputs, threads) == one


def test_band_pin_gives_the_one_thread_bytes(inputs):
    # without the pin, on one thread by the environment, the band writes
    # what the pinned band writes on two
    assert run("band", inputs, 1, unpinned=True) == run("band", inputs, 2)
