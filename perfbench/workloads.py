"""Workload definitions: seeded input files and the job plan of each workload.

Inputs are made here with numpy from the workload seed, so the program under
test receives only files and argv. A job is one ``coarsereg`` command line;
its ``--out`` path is relative, so the worker decides where it lands.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("analysis", "study-known", "study-nw")

# analysis: m1 responses, Laplace contamination, one large file
ANALYSIS_N = 50_000
ANALYSIS_B = 0.1
ANALYSIS_GRID = (0.0, 1.0, 201)
ANALYSIS_RESPONSE_SD = 1.0
ANALYSIS_GROUPS = 2_000
ANALYSIS_GROUP_SIZE = 3
ANALYSIS_PAIRS = 2_000
# proxy covariate t = PROXY_A + PROXY_B * w, so the fitted line maps t back to w
PROXY_A, PROXY_B = 1.0, 2.0

# Nominal cost of one unit of work on the reference machine (2 vCPU Xeon):
# a run does round(seconds / nominal) units, the same work on every commit,
# so job counts, ranks and percentiles line up between runs.
NOMINAL_UNIT_S = {"analysis": 5.0, "study-known": 0.45, "study-nw": 0.7}

STUDY_KNOWN_CELLS = (
    ("m1", "gaussian", ["--nsdelta", "0.25", "--nseps", "0.1", "--n", "250",
                        "--coverage-at", "0.25,0.5,0.75", "--rmse-at", "0.5"]),
    ("logistic", "uniform", ["--nsdelta", "0.5", "--n", "500", "--rmse-at", "0"]),
    ("sine4", "gaussian", ["--nsdelta", "0.1", "--n", "100", "--coverage-at", "0.5"]),
    ("sine2", "gaussian", ["--nsdelta", "0.25", "--n", "250"]),
)
STUDY_KNOWN_REPS = 200

STUDY_NW_CELLS = (
    ("m1", "gaussian", ["--nsdelta", "0.25", "--nseps", "0.1", "--n", "250",
                        "--rmse-at", "0.5"]),
    ("sine2", "gaussian", ["--nsdelta", "0.25", "--n", "250"]),
)
STUDY_NW_REPS = 20


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cell_args(cell) -> list:
    model, kind, rest = cell
    return ["--model", model, "--deltakind", kind, *rest]


def m1(w):
    return 3.0 * w + 20.0 / math.sqrt(2.0 * math.pi) * np.exp(-200.0 * (w - 0.5) ** 2)


def _write_csv(path, header, columns, fmt="%.17g"):
    np.savetxt(path, np.column_stack(columns), fmt=fmt, delimiter=",",
               header=header, comments="")


def make_analysis_inputs(rng: np.random.Generator, directory: str) -> dict:
    """Write the analysis files and return their paths.

    ``train.csv`` holds (w, y); ``noisy.csv`` holds (w + delta, y) under the
    same header, for the Nadaraya-Watson baseline, which is fitted on
    contaminated predictors; ``reps.csv`` holds replicate groups with
    Laplace errors; ``pairs.csv`` (t, x) and ``train_t.csv`` (t, y) form the
    proxy pair, with t an exact affine image of w.
    """
    n = ANALYSIS_N
    w = rng.uniform(0.0, 1.0, n)
    y = m1(w) + rng.normal(0.0, ANALYSIS_RESPONSE_SD, n)
    x = w + rng.laplace(0.0, ANALYSIS_B, n)
    centers = rng.uniform(0.0, 1.0, ANALYSIS_GROUPS)
    u = centers[:, None] + rng.laplace(0.0, ANALYSIS_B, (ANALYSIS_GROUPS, ANALYSIS_GROUP_SIZE))
    w_cal = rng.uniform(0.0, 1.0, ANALYSIS_PAIRS)

    paths = {name: os.path.join(directory, name + ".csv")
             for name in ("train", "noisy", "reps", "pairs", "train_t")}
    _write_csv(paths["train"], "w,y", [w, y])
    _write_csv(paths["noisy"], "w,y", [x, y])
    with open(paths["reps"], "w") as fh:
        fh.write("group,u\n")
        for g, row in enumerate(u):
            for v in row:
                fh.write(f"g{g},{float(v)!r}\n")
    _write_csv(paths["pairs"], "t,x", [PROXY_A + PROXY_B * w_cal, w_cal])
    _write_csv(paths["train_t"], "t,y", [PROXY_A + PROXY_B * w, y])
    return paths


def analysis_kinds(paths: dict) -> list:
    """(kind, argv without --out/--seed) in round-robin order."""
    grid = "{:g}:{:g}:{}".format(*ANALYSIS_GRID)
    delta = f"laplace:{ANALYSIS_B:g}"
    known = ["--train", paths["train"], "--delta", delta]
    fourier = ["fit-fourier", "--train", paths["train"], "--replicates", paths["reps"],
               "--grid", grid]
    return [
        ("fit-known", ["fit-known", *known, "--grid", grid]),
        ("ci", ["ci", *known, "--grid", grid]),
        ("band", ["band", *known, "--grid", grid]),
        ("extrema", ["extrema", *known, "--interval", "0.3:0.7"]),
        ("zeros", ["zeros", *known, "--interval", "0:1", "--level", "3"]),
        ("fit-fourier-policy", [*fourier, "--lambdadelta", "2"]),
        ("fit-fourier-tau", [*fourier, "--tau", "20"]),
        ("cf", ["cf", "--replicates", paths["reps"], "--tmax", "20", "--tstep", "0.05"]),
        ("nw", ["nw", "--train", paths["noisy"], "--grid", grid, "--bandwidth", "0.02"]),
        ("fit-proxy", ["fit-proxy", "--pairs", paths["pairs"], "--train", paths["train_t"],
                       "--delta", delta, "--grid", grid]),
    ]


_EXT = {"simulate": ".json", "fit-proxy": ".json"}


def _job(index, kind, argv, seed):
    out = f"j{index:05d}" + _EXT.get(argv[0], ".csv")
    return {"kind": kind, "argv": [*argv, "--seed", str(seed), "--out", out], "out": out}


def plan(workload: str, seed: int, seconds: float, directory: str) -> dict:
    """Generate the inputs of one run and its job list.

    Returns ``{"warmup": job, "jobs": [job, ...]}``; every job has a
    distinct ``--seed`` drawn from the workload seed, and the warm-up job's
    seed is used by no timed job.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    units = max(1, round(seconds / NOMINAL_UNIT_S[workload]))
    if workload == "analysis":
        cycle = analysis_kinds(make_analysis_inputs(rng, directory))
    else:
        if workload == "study-known":
            cells, reps, threads = STUDY_KNOWN_CELLS, STUDY_KNOWN_REPS, 1
        else:
            cells, reps, threads = STUDY_NW_CELLS, STUDY_NW_REPS, nproc()
        estimator = "known" if workload == "study-known" else "nw"
        cycle = [
            (f"{c[0]}-{c[1]}", ["simulate", *cell_args(c), "--estimator", estimator,
                                "--reps", str(reps), "--threads", str(threads)])
            for c in cells
        ]
    sequence = [k for _ in range(units) for k in cycle]
    seeds = rng.choice(2**31 - 1, size=len(sequence) + 1, replace=False)
    jobs = [_job(i, kind, argv, int(s)) for i, ((kind, argv), s) in
            enumerate(zip(sequence, seeds[1:]))]
    warmup = _job(0, cycle[0][0], cycle[0][1], int(seeds[0]))
    return {"warmup": warmup, "jobs": jobs}
