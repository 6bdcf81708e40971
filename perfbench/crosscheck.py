"""Cross-check the benchmark's reference curves against the program's own
oracle, ``coarsereg.true_regression``, on the study cells (Gaussian and
uniform delta), over each cell's default grid.

Run from the repository root:  python3 perfbench/crosscheck.py
Prints the largest absolute difference per cell and overall.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from coarsereg.simulation import ScenarioConfig, default_grid, true_regression  # noqa: E402


def _value(args, flag):
    return float(args[args.index(flag) + 1]) if flag in args else None


def main() -> int:
    worst = 0.0
    scenarios = {
        ScenarioConfig(model=model, n=int(_value(rest, "--n")),
                       predictor_noise=_value(rest, "--nsdelta"),
                       response_noise=_value(rest, "--nseps"), error_kind=kind)
        for model, kind, rest in workloads.STUDY_KNOWN_CELLS + workloads.STUDY_NW_CELLS
    }
    for scn in sorted(scenarios, key=lambda s: (s.model, s.error_kind)):
        model, kind = scn.model, scn.error_kind
        xs = default_grid(scn).points
        ours = reference.curve(model, kind, reference.study_scale(kind, scn.predictor_noise), xs)
        theirs = [true_regression(scn, float(x)) for x in xs]
        diff = max(abs(a - b) for a, b in zip(ours, theirs))
        worst = max(worst, diff)
        print(f"{model:9s} {kind:9s} nsdelta={scn.predictor_noise:<5g} "
              f"max|reference - true_regression| = {diff:.3e}")
    print(f"largest difference: {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
