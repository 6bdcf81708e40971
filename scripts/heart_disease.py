#!/usr/bin/env python3
"""Coronary heart-disease proxy workflow.

Runs the documented cleanup-and-calibration recipe (log transforms, one-shot
outlier deletion, least squares of log total cholesterol on log LDL) and then
fits the regression of disease incidence on log total cholesterol using the
calibrated proxy, with a Gaussian error density whose variance comes from the
calibration differences.

The dataset is not bundled. Download the South African heart-disease data
(462 rows; the ``SAheart`` dataset of the Elements of Statistical Learning
site, https://hastie.su.domains/ElemStatLearn/) or an equivalent CSV with at
least ``ldl``, total-cholesterol and ``chd`` columns, and pass its path.

Usage:
    python scripts/heart_disease.py SAheart.csv [--chol-col chol] [--grid lo:hi:n]
"""

import argparse
import json
import sys

import numpy as np

from coarsereg import ErrorDensity, EvalGrid, error_variance, fit_known_proxy
from coarsereg.cli import exit_status, parse_grid
from coarsereg.heart import calibrate_columns
from coarsereg.io import curve_csv_text, read_columns, write_output


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("data", help="CSV with ldl, total-cholesterol and chd columns")
    parser.add_argument("--chol-col", default="chol")
    parser.add_argument("--ldl-col", default="ldl")
    parser.add_argument("--chd-col", default="chd")
    parser.add_argument("--grid", default=None, help="lo:hi:count for the fitted curve")
    parser.add_argument("--out", default=None, help="curve CSV path (stdout if omitted)")
    args = parser.parse_args(argv)
    # errors are reported as the coarsereg command reports them
    return exit_status(lambda: run(args))


def run(args):
    grid = parse_grid(args.grid) if args.grid else None
    cols = read_columns(args.data, (args.chol_col, args.ldl_col, args.chd_col))
    result = calibrate_columns(cols[args.chol_col], cols[args.ldl_col], args.data)
    fit = result["fit"]
    print(json.dumps({
        "intercept": fit.intercept,
        "slope": fit.slope,
        "n_used": result["n_used"],
        "deleted": result["deleted"],
        "residual_variance": fit.residual_variance,
    }, indent=2), file=sys.stderr)

    log_chol = np.log(cols[args.chol_col])
    log_ldl = np.log(cols[args.ldl_col])
    chd = cols[args.chd_col]

    # error variance from the differences between the observed proxy and the
    # calibrated imputation, then the ratio fit on (log LDL, CHD)
    var = error_variance(fit, log_ldl, log_chol)
    density = ErrorDensity.gaussian(float(np.sqrt(var)))
    if grid is None:
        grid = EvalGrid.linspace(float(log_chol.min()), float(log_chol.max()), 101)
    curve = fit_known_proxy(fit, log_ldl, chd, density, grid)
    write_output(args.out, curve_csv_text(curve))


if __name__ == "__main__":
    sys.exit(main())
