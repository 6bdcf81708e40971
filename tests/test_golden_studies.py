"""Replication-study reports pinned byte for byte.

``tests/data/golden_studies.json`` holds ``StudyReport.to_json()`` and the
replicate-failure warnings of each case below, captured at commit 3e09061,
when each replicate still asked the oracle for the truth on every grid point
and built one kernel per query point, and captured again when num became a
pairwise mean instead of a BLAS product. Regenerate (only on purpose, from
the repository root) with::

    PYTHONPATH=src python tests/test_golden_studies.py --write

The cases cover the four ``study-known`` benchmark cells at 25 replicates,
m1 with uniform contamination, one Nadaraya-Watson cell, grids that run past
the reachable support (the truth has NaNs and the squared-error integral
skips subintervals), and cells where some replicates fail.
"""

import json
import logging
import pathlib
import sys

import numpy as np
import pytest

from coarsereg.data import EvalGrid
from coarsereg.simulation import EstimatorSpec, ScenarioConfig, run_replications

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_studies.json"

# name -> (scenario kwargs, run kwargs); the scenario seed is the master seed,
# as in the ``simulate`` command
CASES = {
    "known-m1-gaussian": (
        dict(model="m1", n=250, predictor_noise=0.25, response_noise=0.1),
        dict(reps=25, coverage_points=(0.25, 0.5, 0.75), rmse_points=(0.5,)),
    ),
    "known-logistic-uniform": (
        dict(model="logistic", n=500, predictor_noise=0.5, error_kind="uniform"),
        dict(reps=25, rmse_points=(0.0,)),
    ),
    "known-sine4-gaussian": (
        dict(model="sine4", n=100, predictor_noise=0.1),
        dict(reps=25, coverage_points=(0.5,)),
    ),
    "known-sine2-gaussian": (
        dict(model="sine2", n=250, predictor_noise=0.25),
        dict(reps=25),
    ),
    "known-m1-uniform": (
        dict(model="m1", n=250, predictor_noise=0.25, response_noise=0.1,
             error_kind="uniform"),
        dict(reps=25, coverage_points=(0.25, 0.5, 0.75), rmse_points=(0.5,)),
    ),
    "nw-m1-gaussian": (
        dict(model="m1", n=250, predictor_noise=0.25, response_noise=0.1),
        dict(reps=5, rmse_points=(0.5,), method="nw"),
    ),
    "known-m1-gaussian-past-support": (
        dict(model="m1", n=100, predictor_noise=0.01, response_noise=0.1),
        dict(reps=10, grid=(-0.5, 1.5, 41), coverage_points=(0.5,), rmse_points=(0.5,)),
    ),
    "known-logistic-uniform-past-support": (
        dict(model="logistic", n=100, predictor_noise=0.25, error_kind="uniform"),
        dict(reps=10, grid=(-1.0, 1.0, 41), coverage_points=(0.0,)),
    ),
    "known-m1-uniform-failures": (
        dict(model="m1", n=5, predictor_noise=0.25, response_noise=0.1,
             error_kind="uniform"),
        dict(reps=30, grid=(0.3, 0.7, 5), coverage_points=(1.2, -0.2),
             rmse_points=(1.1,)),
    ),
    "known-sine2-gaussian-failures": (
        dict(model="sine2", n=4, predictor_noise=0.01),
        dict(reps=20, grid=(0.0, 1.0, 11), coverage_points=(0.5,)),
    ),
}
SEEDS = {name: 101 + i for i, name in enumerate(CASES)}


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def run_case(name):
    """(report JSON, replicate-failure warnings) of one case."""
    scn_kwargs, run_kwargs = CASES[name]
    run_kwargs = dict(run_kwargs)
    seed = SEEDS[name]
    spec = EstimatorSpec(method=run_kwargs.pop("method", "known"))
    grid = run_kwargs.pop("grid", None)
    if grid is not None:
        grid = EvalGrid(np.linspace(*grid))
    logger = logging.getLogger("coarsereg.simulation")
    handler = _Messages()
    logger.addHandler(handler)
    try:
        report = run_replications(ScenarioConfig(seed=seed, **scn_kwargs), spec,
                                  grid=grid, master_seed=seed, **run_kwargs)
    finally:
        logger.removeHandler(handler)
    return report.to_json(), handler.messages


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(golden, name):
    report, warnings = run_case(name)
    assert report == golden[name]["report"]
    assert warnings == golden[name]["warnings"]


def test_cases_exercise_undefined_truth_and_failures(golden):
    reports = {name: json.loads(golden[name]["report"]) for name in CASES}
    for name in ("known-m1-uniform-failures", "known-sine2-gaussian-failures"):
        assert 0 < reports[name]["failures"] < reports[name]["replications"]
        assert len(golden[name]["warnings"]) == reports[name]["failures"]


def _write():
    out = {}
    for name in CASES:
        report, warnings = run_case(name)
        out[name] = {"report": report, "warnings": warnings}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_studies.py --write")
    _write()
