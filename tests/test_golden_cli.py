"""The output of every subcommand pinned byte for byte, in CSV and JSON.

``tests/data/golden_cli.json`` maps each case below to the text the command
writes. The Fourier, Nadaraya-Watson and ``cf`` CSV cases were captured at
commit 4153d1f, the others at commit 197e63d; the two ``band`` cases were
captured again when the band took the pointwise variance of ``ci``, so
both write the same ``v_hat`` column. Every case whose numbers come from
a kernel or CF moment was captured again when num became a pairwise mean
instead of a BLAS product. The inputs are generated here
from fixed seeds and written with ``%.17g``: an m1 sample of n = 400 with
normal response noise, the same responses on Laplace-contaminated
predictors, 150 groups of 3 Laplace replicates, and, from a second seed,
proxy calibration pairs ``t,x`` and analysis pairs ``t,y``. A third seed
makes an n = 8 000 sample of a sine with normal noise, whose 512-point
scans (4.1e6 kernel cells) are above the row pool's crossover; its cases
were captured at commit 3403a0f, before the Laplace scans became certified
O(n + G) sums, and pin a Laplace maximum, minimum and three zeros, and a
Gaussian maximum, whose scan stays dense. JSON outputs
embed the temporary directory in ``provenance.command``; it is replaced by
``TMP`` before the comparison. ``simulate`` also writes a deciles CSV next
to its report, pinned under its own key. Regenerate (only on purpose, from
the repository root) with::

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
PROXY_SEED = 20081
PROXY_N = 120
DELTA = f"laplace:{LAPLACE_B}"
JSON = ["--format", "json"]
LARGE_SEED = 20082
LARGE_N = 8000

# name -> argv without --train/--out, run on the n = 8 000 sample
LARGE_CASES = {
    "n8000-extrema-max": ["extrema", "--delta", DELTA, "--interval", "0:1", "--kind", "max"],
    "n8000-extrema-min": ["extrema", "--delta", DELTA, "--interval", "0:1", "--kind", "min"],
    "n8000-zeros": ["zeros", "--delta", DELTA, "--interval", "0:1", "--level", "0"],
    "n8000-extrema-gaussian": ["extrema", "--delta", "gaussian:0.1", "--interval", "0:1"],
}

# name -> argv without --train/--replicates/--pairs/--out
CASES = {
    "fit-fourier-policy": ["fit-fourier", "--grid", GRID, "--lambdadelta", "2"],
    "fit-fourier-tau": ["fit-fourier", "--grid", GRID, "--tau", "20", "--tstep", "0.05"],
    "cf": ["cf", "--tmax", "5", "--tstep", "0.1"],
    "nw-cv": ["nw", "--grid", GRID, "--bandwidth", "cv"],
    "nw-fixed": ["nw", "--grid", GRID, "--bandwidth", "0.05"],
    "fit-known": ["fit-known", "--delta", DELTA, "--grid", GRID],
    "ci": ["ci", "--delta", DELTA, "--grid", "0.1:0.9:17"],
    "band": ["band", "--delta", DELTA, "--grid", "0.1:0.9:17", "--nsim", "2000",
             "--seed", "3"],
    "extrema": ["extrema", "--delta", DELTA, "--interval", "0.3:0.7"],
    "zeros": ["zeros", "--delta", DELTA, "--interval", "0:1", "--level", "4"],
    "zeros-none": ["zeros", "--delta", DELTA, "--interval", "0:1", "--level", "100"],
    "fit-proxy-train": ["fit-proxy", "--delta", "gaussian:0.1", "--grid", "0:1:21"],
    "fit-proxy-pairs": ["fit-proxy"],
    "simulate": ["simulate", "--model", "m1", "--n", "60", "--nsdelta", "0.2",
                 "--nseps", "0.5", "--reps", "4", "--grid", "0.1:0.9:9",
                 "--coverage-at", "0.5", "--rmse-at", "0.5", "--seed", "7"],
    "fit-known-json": ["fit-known", "--delta", DELTA, "--grid", GRID, *JSON],
    "fit-fourier-tau-json": ["fit-fourier", "--grid", GRID, "--tau", "20",
                             "--tstep", "0.05", *JSON],
    "nw-fixed-json": ["nw", "--grid", GRID, "--bandwidth", "0.05", *JSON],
    "ci-json": ["ci", "--delta", DELTA, "--grid", "0.1:0.9:17", *JSON],
    "band-json": ["band", "--delta", DELTA, "--grid", "0.1:0.9:17", "--nsim", "2000",
                  "--seed", "3", *JSON],
    "cf-json": ["cf", "--tmax", "5", "--tstep", "0.1", *JSON],
    "extrema-json": ["extrema", "--delta", DELTA, "--interval", "0.3:0.7", *JSON],
    "zeros-json": ["zeros", "--delta", DELTA, "--interval", "0:1", "--level", "4", *JSON],
    "fit-proxy-train-csv": ["fit-proxy", "--delta", "gaussian:0.1", "--grid", "0:1:21",
                            "--format", "csv"],
    **LARGE_CASES,
}

# key -> (case, suffix): a further file a case writes next to its --out
SIDE_FILES = {"simulate-deciles": ("simulate", "_deciles.csv")}


def write_inputs(directory: pathlib.Path) -> dict:
    """Write train.csv (w, y), noisy.csv (w + delta, y), reps.csv, the
    proxy inputs pairs.csv (t, x) and proxy.csv (t, y), and large.csv (w, y)
    of n = 8 000."""
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

    rng = np.random.default_rng(PROXY_SEED)
    t_fit = rng.uniform(0.0, 1.0, PROXY_N)
    x_fit = 0.5 + 0.8 * t_fit + rng.normal(0.0, 0.1, PROXY_N)
    t = rng.uniform(0.0, 1.0, N)
    y = np.sin(2.0 * math.pi * (0.5 + 0.8 * t)) + rng.normal(0.0, 0.2, N)
    for name, header, cols in (("pairs", "t,x", (t_fit, x_fit)), ("proxy", "t,y", (t, y))):
        paths[name] = directory / f"{name}.csv"
        np.savetxt(paths[name], np.column_stack(cols), fmt="%.17g", delimiter=",",
                   header=header, comments="")

    rng = np.random.default_rng(LARGE_SEED)
    w = rng.uniform(0.0, 1.0, LARGE_N)
    y = np.sin(4.0 * math.pi * w) + rng.normal(0.0, 0.5, LARGE_N)
    paths["large"] = directory / "large.csv"
    np.savetxt(paths["large"], np.column_stack((w, y)), fmt="%.17g", delimiter=",",
               header="w,y", comments="")
    return paths


def run_case(name: str, paths: dict, directory: pathlib.Path) -> str:
    """Run one case; return what it wrote to --out, temp directory masked."""
    argv = list(CASES[name])
    if argv[0] == "fit-fourier":
        argv += ["--train", str(paths["train"]), "--replicates", str(paths["reps"])]
    elif argv[0] == "cf":
        argv += ["--replicates", str(paths["reps"])]
    elif argv[0] == "fit-proxy":
        argv += ["--pairs", str(paths["pairs"])]
        if "--delta" in argv:
            argv += ["--train", str(paths["proxy"])]
    elif name in LARGE_CASES:
        argv += ["--train", str(paths["large"])]
    elif argv[0] != "simulate":
        argv += ["--train", str(paths["noisy"])]
    out = directory / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text().replace(str(directory), "TMP")


def run_all(directory: pathlib.Path) -> dict:
    paths = write_inputs(directory)
    texts = {name: run_case(name, paths, directory) for name in CASES}
    for key, (name, suffix) in SIDE_FILES.items():
        texts[key] = (directory / f"{name}{suffix}").read_text()
    return texts


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden_cli"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted([*CASES, *SIDE_FILES])


@pytest.mark.golden
@pytest.mark.parametrize("name", sorted([*CASES, *SIDE_FILES]))
def test_output_is_byte_identical(golden, outputs, name):
    assert outputs[name] == golden[name]


def _write():
    with tempfile.TemporaryDirectory() as tmp:
        out = run_all(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    _write()
