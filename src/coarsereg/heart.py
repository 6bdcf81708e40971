"""Proxy calibration recipe for the coronary heart-disease workflow.

The workflow regresses log total cholesterol on log LDL cholesterol after a
one-shot outlier cleanup, then uses the fitted line to impute a precise
predictor for the ratio estimator. The dataset (a South African
heart-disease study, 462 males, available from the Elements of Statistical
Learning site at https://hastie.su.domains/ElemStatLearn/ as ``SAheart``)
is not bundled; callers supply a CSV containing at least total-cholesterol
and LDL columns.

Cleanup (one-shot: deletion sets are computed once, the line is fitted
once in between, nothing is refitted between single deletions):

1. drop the observation with the smallest total cholesterol and the two
   with the largest;
2. drop the three smallest and two largest LDL observations;
3. fit least squares of log(chol) on log(ldl) and drop the eight points
   furthest from the line (largest absolute residuals; perpendicular
   distance orders points identically for a fixed line);
4. refit on the remainder.

Whether the original analysis refit the line between deletions is not
recorded; the one-shot reading is the documented choice here.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError
from .io import read_columns
from .proxy import LinearProxyFit, fit_linear_proxy


def heart_disease_calibration(path, *, chol_col="chol", ldl_col="ldl") -> dict:
    """Run the cleanup-and-fit recipe on a user-supplied CSV.

    Returns a dict with the final :class:`LinearProxyFit` (log-chol on
    log-ldl), the retained sample size, and the deletion tally.
    """
    cols = read_columns(path, (chol_col, ldl_col))
    return calibrate_columns(cols[chol_col], cols[ldl_col], path)


def calibrate_columns(chol, ldl, path) -> dict:
    """:func:`heart_disease_calibration` on the columns read from ``path``."""
    if np.any(chol <= 0) or np.any(ldl <= 0):
        raise DataFormatError("cholesterol values must be positive for the log transform",
                              file=str(path))
    t = np.log(ldl)
    x = np.log(chol)
    n = len(t)

    drop = set()
    order_chol = np.argsort(chol, kind="stable")
    drop.update(order_chol[:1])      # smallest total cholesterol
    drop.update(order_chol[-2:])     # two largest
    order_ldl = np.argsort(ldl, kind="stable")
    drop.update(order_ldl[:3])       # three smallest LDL
    drop.update(order_ldl[-2:])      # two largest

    keep = np.array(sorted(set(range(n)) - drop))
    first = fit_linear_proxy(t[keep], x[keep])
    resid = np.abs(x[keep] - first.intercept - first.slope * t[keep])
    far = keep[np.argsort(resid, kind="stable")[-8:]]
    keep = np.array(sorted(set(keep) - set(far)))

    fit: LinearProxyFit = fit_linear_proxy(t[keep], x[keep])
    return {
        "fit": fit,
        "n_used": len(keep),
        "deleted": n - len(keep),
        "value_deletions": len(drop),
    }
