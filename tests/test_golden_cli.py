"""CSV output of the Fourier and Nadaraya-Watson subcommands pinned byte for byte.

``tests/data/golden_cli.json`` maps each case below to the text the command
writes, captured at commit 4153d1f. The inputs are generated here from a
fixed seed and written with ``%.17g``: an m1 sample of n = 400 with normal
response noise, the same responses on Laplace-contaminated predictors for
the baseline, and 150 groups of 3 Laplace replicates. Regenerate (only on
purpose, from the repository root) with::

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import json
import math
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from coarsereg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_cli.json"

SEED = 20080
N = 400
GROUPS, GROUP_SIZE = 150, 3
LAPLACE_B = 0.1
GRID = "0:1:41"

# name -> argv without --train/--replicates/--out
CASES = {
    "fit-fourier-policy": ["fit-fourier", "--grid", GRID, "--lambdadelta", "2"],
    "fit-fourier-tau": ["fit-fourier", "--grid", GRID, "--tau", "20", "--tstep", "0.05"],
    "cf": ["cf", "--tmax", "5", "--tstep", "0.1"],
    "nw-cv": ["nw", "--grid", GRID, "--bandwidth", "cv"],
    "nw-fixed": ["nw", "--grid", GRID, "--bandwidth", "0.05"],
}


def write_inputs(directory: pathlib.Path) -> dict:
    """Write train.csv (w, y), noisy.csv (w + delta, y) and reps.csv."""
    rng = np.random.default_rng(SEED)
    w = rng.uniform(0.0, 1.0, N)
    y = (3.0 * w + 20.0 / math.sqrt(2.0 * math.pi) * np.exp(-200.0 * (w - 0.5) ** 2)
         + rng.normal(0.0, 1.0, N))
    x = w + rng.laplace(0.0, LAPLACE_B, N)
    centers = rng.uniform(0.0, 1.0, GROUPS)
    u = centers[:, None] + rng.laplace(0.0, LAPLACE_B, (GROUPS, GROUP_SIZE))
    paths = {name: directory / f"{name}.csv" for name in ("train", "noisy", "reps")}
    for name, cols in (("train", (w, y)), ("noisy", (x, y))):
        np.savetxt(paths[name], np.column_stack(cols), fmt="%.17g", delimiter=",",
                   header="w,y", comments="")
    groups = np.repeat([f"g{g}" for g in range(GROUPS)], GROUP_SIZE)
    lines = ["group,u"] + [f"{g},{v:.17g}" for g, v in zip(groups, u.ravel())]
    paths["reps"].write_text("\n".join(lines) + "\n")
    return paths


def run_case(name: str, paths: dict, directory: pathlib.Path) -> str:
    argv = list(CASES[name])
    if argv[0] == "fit-fourier":
        argv += ["--train", str(paths["train"]), "--replicates", str(paths["reps"])]
    elif argv[0] == "cf":
        argv += ["--replicates", str(paths["reps"])]
    else:
        argv += ["--train", str(paths["noisy"])]
    out = directory / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_cli")
    return directory, write_inputs(directory)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(golden, inputs, name):
    directory, paths = inputs
    assert run_case(name, paths, directory) == golden[name]


def _write():
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        paths = write_inputs(directory)
        out = {name: run_case(name, paths, directory) for name in CASES}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    _write()
