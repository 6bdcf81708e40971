"""Outputs that do not depend on the BLAS thread count.

Every sample-axis moment (the kernel den and num, the empirical CFs and the
Fourier inversions) is an elementwise product summed by numpy's pairwise
reduction, so no BLAS call decides its bits. Each command runs in a fresh
interpreter, since OpenBLAS reads its thread count once, at import.

``band`` is left out: its covariance is a BLAS rank-k update, its square
root comes from LAPACK's ``eigh`` and its draws from a BLAS product, and
OpenBLAS splits each of those among its threads differently, so the
covariance, the eigenpairs and the draws all move with the thread count.
"""

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
LAPLACE_B = 0.1
COMMANDS = {
    "fit-known": ["fit-known", "--delta", f"laplace:{LAPLACE_B}"],
    "ci": ["ci", "--delta", f"laplace:{LAPLACE_B}"],
    "nw": ["nw", "--bandwidth", "0.05"],
    "fit-fourier": ["fit-fourier", "--tau", "20", "--replicates", "{reps}"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A training CSV with Laplace-contaminated predictors, and a file of
    replicate pairs with the same contamination."""
    directory = tmp_path_factory.mktemp("blas_threads")
    rng = np.random.default_rng(20_000)
    w = rng.uniform(0.0, 1.0, N)
    y = np.sin(2.0 * np.pi * w) + rng.normal(0.0, 0.5, N)
    train = directory / "train.csv"
    np.savetxt(train, np.column_stack((w + rng.laplace(0.0, LAPLACE_B, N), y)),
               fmt="%.17g", delimiter=",", header="w,y", comments="")
    u = rng.uniform(0.0, 1.0, GROUPS)[:, None] + rng.laplace(0.0, LAPLACE_B, (GROUPS, 2))
    reps = directory / "reps.csv"
    reps.write_text("group,u\n" + "".join(
        f"g{g},{v:.17g}\n" for g, v in zip(np.repeat(np.arange(GROUPS), 2), u.ravel())))
    return directory, train, reps


def run(command, inputs, threads):
    directory, train, reps = inputs
    argv = [a.format(reps=reps) for a in COMMANDS[command]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "coarsereg.cli", *argv, "--train", str(train),
         "--grid", "0:1:201"],
        env=env, cwd=directory, capture_output=True, check=True)
    return done.stdout


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_does_not_depend_on_blas_threads(inputs, command):
    one = run(command, inputs, 1)
    assert one.count(b"\n") > 200  # a header and 201 grid rows, at least
    assert run(command, inputs, 2) == one
