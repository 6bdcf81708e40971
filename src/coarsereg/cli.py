"""Command-line surface.

Subcommands cover every workflow: ``fit-known``, ``fit-fourier``,
``fit-proxy``, ``nw``, ``ci``, ``band``, ``cf``, ``extrema``, ``zeros`` and
``simulate``. Shared conventions:

* ``--grid lo:hi:count`` builds the evaluation grid;
* ``--delta gaussian:SIGMA | laplace:B | uniform:A`` specifies the error
  density;
* ``--seed`` fixes all randomness;
* ``--out`` writes atomically (stdout when omitted); ``--format csv|json``
  picks the rendering (JSON outputs carry a provenance block with the
  command line, seed and package version).

Exit status is 0 on success; data problems print a machine-readable JSON
error record to stderr and exit 1; usage problems exit 2 via argparse.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys

import numpy as np

from . import __version__
from .data import EvalGrid, RegressionCurve
from .densities import ErrorDensity
from .errors import CoarseRegError, DataFormatError
from .fourier import FourierConfig, error_cf_from_replicates, fit_fourier, select_cutoff, symmetric_tgrid
from .inference import pointwise_band, simultaneous_band
from .io import (
    curve_csv_text,
    format_float,
    json_text,
    read_pairs_csv,
    read_replicates_csv,
    read_training_csv,
    write_output,
)
from .known import find_extremum, find_zeros, fit_known
from .nw import NwConfig, cv_bandwidth, fit_nw
from .proxy import fit_known_proxy, fit_linear_proxy
from .simulation import EstimatorSpec, ScenarioConfig, run_replications


def parse_grid(text: str) -> EvalGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise CoarseRegError(f"--grid expects lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CoarseRegError(f"--grid expects numeric lo:hi:count, got {text!r}") from None
    return EvalGrid.linspace(lo, hi, count)


def parse_delta(text: str) -> ErrorDensity:
    kind, _, param = text.partition(":")
    try:
        value = float(param)
    except ValueError:
        raise CoarseRegError(f"--delta expects kind:scale, got {text!r}") from None
    if kind == "gaussian":
        return ErrorDensity.gaussian(value)
    if kind == "laplace":
        return ErrorDensity.laplace(value)
    if kind == "uniform":
        return ErrorDensity.uniform(value)
    raise CoarseRegError(f"--delta kind must be gaussian, laplace or uniform, got {kind!r}")


def parse_interval(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise CoarseRegError(f"--interval expects lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise CoarseRegError(f"--interval expects numeric lo:hi, got {text!r}") from None
    if not lo < hi:
        raise CoarseRegError(f"--interval needs lo < hi, got {text!r}")
    return lo, hi


def _provenance(args) -> dict:
    return {
        "command": shlex.join(["coarsereg"] + args._argv),
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _curve_payload(curve: RegressionCurve, ci: bool = False) -> dict:
    payload = {
        "x": list(curve.grid.points),
        "m_hat": list(curve.values),
        "meta": curve.meta,
    }
    if ci:
        payload["v_hat"] = list(curve.variance)
        payload["lower"] = list(curve.band_lower)
        payload["upper"] = list(curve.band_upper)
    return payload


def _emit_curve(args, curve: RegressionCurve, ci: bool = False):
    if args.format == "json":
        write_output(args.out, json_text({"provenance": _provenance(args),
                                          "curve": _curve_payload(curve, ci)}))
    else:
        write_output(args.out, curve_csv_text(curve, kind="ci" if ci else "fit"))


def _cmd_fit_known(args):
    sample = read_training_csv(args.train)
    curve = fit_known(sample, parse_delta(args.delta), parse_grid(args.grid))
    _emit_curve(args, curve)
    return 0


def _cmd_fit_fourier(args):
    sample = read_training_csv(args.train)
    rep = read_replicates_csv(args.replicates)
    grid = parse_grid(args.grid)
    cutoff = args.tau
    if cutoff is None:
        cutoff = select_cutoff(
            rep,
            sample.n,
            error_decay=args.lambdadelta,
            signal_decay=getattr(args, "lambda"),
        )
    cfg = FourierConfig(
        cutoff=cutoff,
        t_step=args.tstep,
        signal_decay=getattr(args, "lambda"),
        error_decay=args.lambdadelta,
    )
    curve = fit_fourier(sample, rep, cfg, grid)
    _emit_curve(args, curve)
    return 0


def _cmd_fit_proxy(args):
    t_fit, x_fit = read_pairs_csv(args.pairs, columns=("t", "x"))
    fit = fit_linear_proxy(t_fit, x_fit)
    payload = {
        "intercept": fit.intercept,
        "slope": fit.slope,
        "n": fit.n_obs,
        "residual_variance": fit.residual_variance,
    }
    curve = None
    if args.train is not None:
        t, y = read_pairs_csv(args.train, columns=("t", "y"))
        if args.delta is not None:
            density = parse_delta(args.delta)
        else:
            if fit.residual_variance <= 0:
                raise CoarseRegError(
                    "cannot infer an error density from a perfect fit; pass --delta"
                )
            density = ErrorDensity.gaussian(math.sqrt(fit.residual_variance))
        payload["delta"] = density.describe()
        curve = fit_known_proxy(fit, t, y, density, parse_grid(args.grid))
    if args.format == "json" or curve is None:
        body = {"provenance": _provenance(args), "proxy_fit": payload}
        if curve is not None:
            body["curve"] = _curve_payload(curve)
        write_output(args.out, json_text(body))
    else:
        write_output(args.out, curve_csv_text(curve))
    return 0


def _cmd_nw(args):
    sample = read_training_csv(args.train)
    if args.bandwidth == "cv":
        h = cv_bandwidth(sample, NwConfig())
    else:
        h = float(args.bandwidth)
    curve = fit_nw(sample, h, parse_grid(args.grid))
    _emit_curve(args, curve)
    return 0


def _cmd_ci(args):
    sample = read_training_csv(args.train)
    curve = pointwise_band(sample, parse_delta(args.delta), parse_grid(args.grid), args.alpha)
    _emit_curve(args, curve, ci=True)
    return 0


def _cmd_band(args):
    sample = read_training_csv(args.train)
    curve = simultaneous_band(
        sample,
        parse_delta(args.delta),
        parse_grid(args.grid),
        alpha=args.alpha,
        n_sim=args.nsim,
        seed=args.seed,
    )
    _emit_curve(args, curve, ci=True)
    return 0


def _cmd_cf(args):
    rep = read_replicates_csv(args.replicates)
    t = symmetric_tgrid(args.tmax, args.tstep)
    table = error_cf_from_replicates(rep, t)
    if args.format == "json":
        write_output(args.out, json_text({
            "provenance": _provenance(args),
            "cf": {"t": list(table.t), "value": list(np.asarray(table.values, dtype=float))},
        }))
    else:
        lines = ["t,cf"]
        for ti, vi in zip(table.t, np.asarray(table.values, dtype=float)):
            lines.append(f"{format_float(ti)},{format_float(vi)}")
        write_output(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_extrema(args):
    sample = read_training_csv(args.train)
    lo, hi = parse_interval(args.interval)
    loc, value = find_extremum(sample, parse_delta(args.delta), lo, hi, kind=args.kind)
    if args.format == "json":
        write_output(args.out, json_text({
            "provenance": _provenance(args),
            "extremum": {"kind": args.kind, "location": loc, "value": value},
        }))
    else:
        write_output(args.out, f"location,value\n{format_float(loc)},{format_float(value)}\n")
    return 0


def _cmd_zeros(args):
    sample = read_training_csv(args.train)
    lo, hi = parse_interval(args.interval)
    roots = find_zeros(sample, parse_delta(args.delta), lo, hi, level=args.level)
    if args.format == "json":
        write_output(args.out, json_text({
            "provenance": _provenance(args),
            "zeros": {"level": args.level, "locations": list(roots)},
        }))
    else:
        lines = ["location"] + [format_float(r) for r in roots]
        write_output(args.out, "\n".join(lines) + "\n")
    return 0


def _parse_points(text):
    if not text:
        return ()
    return tuple(float(p) for p in text.split(","))


def _cmd_simulate(args):
    scn = ScenarioConfig(
        model=args.model,
        n=args.n,
        predictor_noise=args.nsdelta,
        response_noise=args.nseps,
        error_kind=args.deltakind,
        seed=args.seed,
    )
    if args.estimator == "known":
        spec = EstimatorSpec(method="known")
    else:
        spec = EstimatorSpec(method="nw")
    grid = parse_grid(args.grid) if args.grid else None
    report = run_replications(
        scn,
        spec,
        reps=args.reps,
        grid=grid,
        master_seed=args.seed,
        coverage_points=_parse_points(args.coverage_at),
        alpha=args.alpha,
        rmse_points=_parse_points(args.rmse_at),
        threads=args.threads,
    )
    body = {"provenance": _provenance(args), "report": report.to_dict()}
    write_output(args.out, json_text(body))
    if args.out is not None:
        base, _ = os.path.splitext(args.out)
        lines = ["x,d1,d5,d9"]
        dec = report.decile_curves
        for i, x in enumerate(report.grid):
            cells = [format_float(x)] + [
                format_float(_none_to_nan(dec[k]["values"][i])) for k in ("d1", "d5", "d9")
            ]
            lines.append(",".join(cells))
        write_output(base + "_deciles.csv", "\n".join(lines) + "\n")
    return 0


def _none_to_nan(v):
    return float("nan") if v is None else float(v)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsereg",
        description="Root-n nonparametric regression for coarsened predictors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed_default=0):
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument(
            "--threads",
            type=int,
            default=int(os.environ.get("COARSEREG_THREADS", "1")),
            help="worker threads for replication studies",
        )

    p = sub.add_parser("fit-known", help="ratio estimator with a known error density")
    p.add_argument("--train", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--grid", required=True)
    common(p)
    p.set_defaults(func=_cmd_fit_known)

    p = sub.add_parser("fit-fourier", help="Fourier-inversion estimator from replicates")
    p.add_argument("--train", required=True)
    p.add_argument("--replicates", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--tau", type=float, help="cutoff override (policy-selected when omitted)")
    p.add_argument("--tstep", type=float, help="frequency spacing (derived when omitted)")
    p.add_argument("--lambda", dest="lambda", type=float,
                   help="predictor-CF polynomial decay exponent")
    p.add_argument("--lambdadelta", type=float,
                   help="error-CF polynomial decay exponent")
    common(p)
    p.set_defaults(func=_cmd_fit_fourier)

    p = sub.add_parser("fit-proxy", help="least-squares proxy calibration, then fit")
    p.add_argument("--pairs", required=True, help="calibration CSV with header t,x")
    p.add_argument("--train", help="analysis CSV with header t,y")
    p.add_argument("--delta", help="error density (default: gaussian with the residual variance)")
    p.add_argument("--grid", default="0:1:101")
    common(p)
    p.set_defaults(func=_cmd_fit_proxy, format="json")

    p = sub.add_parser("nw", help="Nadaraya-Watson baseline")
    p.add_argument("--train", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--bandwidth", default="cv", help="'cv' or a positive number")
    common(p)
    p.set_defaults(func=_cmd_nw)

    p = sub.add_parser("ci", help="pointwise confidence intervals on a grid")
    p.add_argument("--train", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    common(p)
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("band", help="simultaneous confidence band on a grid")
    p.add_argument("--train", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--nsim", type=int, default=10_000)
    common(p)
    p.set_defaults(func=_cmd_band)

    p = sub.add_parser("cf", help="dump the replicate-based error-CF table")
    p.add_argument("--replicates", required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--tstep", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("extrema", help="locate an extremum of the fitted curve")
    p.add_argument("--train", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--interval", required=True, help="lo:hi")
    p.add_argument("--kind", choices=("max", "min"), default="max")
    common(p)
    p.set_defaults(func=_cmd_extrema)

    p = sub.add_parser("zeros", help="locate level crossings of the fitted curve")
    p.add_argument("--train", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--interval", required=True, help="lo:hi")
    p.add_argument("--level", type=float, default=0.0)
    common(p)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("simulate", help="replication study")
    p.add_argument("--model", required=True,
                   choices=("m1", "logistic", "sine2", "sine4", "constant"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nsdelta", type=float, required=True,
                   help="predictor noise-to-signal ratio")
    p.add_argument("--nseps", type=float, default=None,
                   help="response noise-to-signal ratio (continuous models)")
    p.add_argument("--deltakind", choices=("gaussian", "uniform"), default="gaussian")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--estimator", choices=("known", "nw"), default="known")
    p.add_argument("--grid", help="lo:hi:count (scenario default when omitted)")
    p.add_argument("--coverage-at", default="", help="comma-separated points")
    p.add_argument("--rmse-at", default="", help="comma-separated points")
    p.add_argument("--alpha", type=float, default=0.05)
    common(p, seed_default=0)
    p.set_defaults(func=_cmd_simulate, format="json")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(json.dumps(exc.record()), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # CoarseRegError subclasses ValueError; constructor validation
        # errors land here too
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
