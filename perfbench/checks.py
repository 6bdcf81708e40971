"""Per-job output checks, and the residuals that feed ``oracle_rmse``.

``check(job, path, context)`` returns ``(error, residuals)``: ``error`` is
None for a good output or a one-line reason; ``residuals`` are
(output curve - reference curve) over the curve's defined grid points (empty
for outputs that are not regression curves).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference
import workloads


# Largest RMS distance from the reference that a correct curve shows: about
# three times the largest seen over several seeds. The Fourier fit with the
# policy-selected cutoff oversmooths at these sizes, hence its wide ceiling.
CURVE_RMSE_MAX = {
    "analysis/fit-known": 0.05, "analysis/ci": 0.05, "analysis/band": 0.05,
    "analysis/fit-proxy": 0.05, "analysis/nw": 0.15, "analysis/fit-fourier-tau": 0.5,
    "analysis/fit-fourier-policy": 2.0,
    "study-known/m1-gaussian": 0.5, "study-known/logistic-uniform": 0.1,
    "study-known/sine4-gaussian": 0.3, "study-known/sine2-gaussian": 0.15,
    "study-nw/m1-gaussian": 1.0, "study-nw/sine2-gaussian": 0.3,
}


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _csv(path, header):
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(lines and lines[0] == ",".join(header),
             f"header {lines[0] if lines else ''!r}, expected {','.join(header)!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), "ragged rows")
    data = np.array([[float(c) for c in r] for r in rows]).reshape(-1, len(header))
    _require(not np.any(np.isinf(data)), "infinite value")
    return {h: data[:, i] for i, h in enumerate(header)}


def _values(x):
    return np.array([math.nan if v is None else float(v) for v in x])


def _curve(x, m_hat, grid, ref):
    _require(len(x) == len(grid) and np.allclose(x, grid, rtol=0, atol=1e-12),
             "grid mismatch")
    defined = np.isfinite(m_hat)
    _require(defined.any(), "curve undefined everywhere")
    return m_hat[defined] - ref[defined], defined


def _interval(cols, defined):
    lo, m, hi, v = cols["lower"], cols["m_hat"], cols["upper"], cols["v_hat"]
    d = defined
    _require(np.all(np.isfinite(lo[d]) & np.isfinite(hi[d]) & np.isfinite(v[d])),
             "interval not finite where the estimate is defined")
    _require(np.all(v[d] >= 0), "negative variance")
    _require(np.all((lo[d] <= m[d]) & (m[d] <= hi[d])), "interval does not enclose the estimate")


def _analysis(job, path, ctx):
    kind = job["kind"]
    grid, ref = ctx["grid"], ctx["ref"]
    if kind in ("fit-known", "nw", "fit-fourier-policy", "fit-fourier-tau"):
        cols = _csv(path, ("x", "m_hat"))
        return _curve(cols["x"], cols["m_hat"], grid, ref)[0]
    if kind in ("ci", "band"):
        cols = _csv(path, ("x", "m_hat", "v_hat", "lower", "upper"))
        res, defined = _curve(cols["x"], cols["m_hat"], grid, ref)
        _interval(cols, defined)
        return res
    if kind == "extrema":
        cols = _csv(path, ("location", "value"))
        _require(len(cols["location"]) == 1, "expected one extremum")
        loc, val = cols["location"][0], cols["value"][0]
        _require(0.3 <= loc <= 0.7 and math.isfinite(val), f"extremum {loc} outside [0.3, 0.7]")
        ref_loc, ref_val = ctx["ref_max"]
        _require(abs(loc - ref_loc) < 0.02 and abs(val - ref_val) < 0.2,
                 f"maximum ({loc:.4f}, {val:.4f}) far from the reference "
                 f"({ref_loc:.4f}, {ref_val:.4f})")
        return ()
    if kind == "zeros":
        roots = _csv(path, ("location",))["location"]
        _require(np.all(np.diff(roots) > 0), "zeros not sorted")
        _require(np.all((roots >= 0.0) & (roots <= 1.0)), "zero outside [0, 1]")
        _require(len(roots) == len(ctx["ref_zeros"]),
                 f"{len(roots)} zeros, the reference crosses {len(ctx['ref_zeros'])} times")
        _require(np.all(np.abs(roots - ctx["ref_zeros"]) < 0.01), "zeros far from the reference")
        return ()
    if kind == "cf":
        cols = _csv(path, ("t", "cf"))
        t, cf = cols["t"], cols["cf"]
        _require(len(t) == 801 and np.allclose(t, -t[::-1], atol=1e-9), "t grid not symmetric")
        _require(np.all((cf >= 0) & (cf <= 1)), "error CF outside [0, 1]")
        _require(abs(cf[400] - 1.0) < 1e-12, "error CF at t=0 is not 1")
        return ()
    if kind == "fit-proxy":
        with open(path) as fh:
            body = json.load(fh)
        fit = body["proxy_fit"]
        _require(fit["n"] == workloads.ANALYSIS_PAIRS, "calibration size")
        _require(abs(fit["slope"] - 1.0 / workloads.PROXY_B) < 1e-9
                 and abs(fit["intercept"] + workloads.PROXY_A / workloads.PROXY_B) < 1e-9,
                 "proxy line does not map t back to w")
        c = body["curve"]
        return _curve(_values(c["x"]), _values(c["m_hat"]), grid, ref)[0]
    raise CheckError(f"unknown job kind {kind}")


def _study(job, path, ctx):
    with open(path) as fh:
        report = json.load(fh)["report"]
    argv = job["argv"]
    reps = int(argv[argv.index("--reps") + 1])
    _require(report["replications"] == reps, "replications differ from --reps")
    _require(0 <= report["failures"] < reps, "every replicate failed")
    grid = np.array(report["grid"])
    for label in ("d1", "d5", "d9"):
        vals = _values(report["decile_curves"][label]["values"])
        _require(len(vals) == len(grid), f"{label} not aligned with the grid")
        _require(not np.any(np.isinf(vals)), f"{label} has an infinite value")
    for point in report["coverage"].get("points", {}).values():
        _require(0.0 <= point["rate"] <= 1.0, "coverage rate outside [0, 1]")
    _require(all(v is not None and v >= 0 for v in report["rmse"].values()), "bad rmse")
    dec = _csv(os.path.splitext(path)[0] + "_deciles.csv", ("x", "d1", "d5", "d9"))
    _require(len(dec["x"]) == len(grid), "decile CSV not aligned with the report grid")
    model = argv[argv.index("--model") + 1]
    kind = argv[argv.index("--deltakind") + 1]
    scale = reference.study_scale(kind, float(argv[argv.index("--nsdelta") + 1]))
    ref = reference.curve(model, kind, scale, grid)
    d5 = _values(report["decile_curves"]["d5"]["values"])
    ok = np.isfinite(d5) & np.isfinite(ref)
    return d5[ok] - ref[ok]


def analysis_context() -> dict:
    lo, hi, count = workloads.ANALYSIS_GRID
    grid = np.linspace(lo, hi, count)
    ref = reference.curve("m1", "laplace", workloads.ANALYSIS_B, grid)
    fine = np.linspace(0.0, 1.0, 2001)
    m = reference.curve("m1", "laplace", workloads.ANALYSIS_B, fine)
    f = m - 3.0
    inside = (fine >= 0.3) & (fine <= 0.7)
    peak = np.argmax(np.where(inside, m, -np.inf))
    return {"grid": grid, "ref": ref, "ref_zeros": fine[:-1][f[:-1] * f[1:] < 0],
            "ref_max": (fine[peak], m[peak])}


def check(workload, job, path, ctx):
    """Check one job's output file; see the module docstring."""
    try:
        _require(os.path.exists(path), "no output file")
        residuals = (_analysis if workload == "analysis" else _study)(job, path, ctx)
        if len(residuals):
            rmse = math.sqrt(float(np.mean(np.square(residuals))))
            limit = CURVE_RMSE_MAX[f"{workload}/{job['kind']}"]
            _require(rmse <= limit, f"curve RMSE {rmse:.4g} from the reference exceeds {limit}")
        return None, residuals
    except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}", ()
