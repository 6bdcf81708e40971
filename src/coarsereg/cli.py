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

Exit status is 0 on success; data problems, and sizes too large to
allocate, print a machine-readable JSON error record to stderr and exit 1;
usage problems exit 2 via argparse.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys

from . import __version__
from .data import EvalGrid, RegressionCurve
from .densities import ErrorDensity
from .errors import CoarseRegError, DataFormatError
from .fourier import FourierConfig, error_cf_from_replicates, fit_fourier, select_cutoff, symmetric_tgrid
from .inference import pointwise_band, simultaneous_band
from .io import (
    csv_text,
    curve_columns,
    json_text,
    read_pairs_csv,
    read_replicates_csv,
    read_training_csv,
    write_output,
)
from .known import find_extremum, find_zeros, fit_known
from .nw import cv_bandwidth, fit_nw
from .proxy import fit_known_proxy, fit_linear_proxy
from .simulation import EstimatorSpec, ScenarioConfig, run_replications


def _fields(flag, text, syntax="comma-separated numbers", types=float, sep=","):
    """``flag``'s ``sep``-separated fields in ``text``, converted by ``types`` (all by
    one type, none if empty), else a CoarseRegError naming ``flag`` and ``syntax``."""
    parts = text.split(sep) if text else []
    if isinstance(types, type):
        types = (types,) * len(parts)
    if len(parts) == len(types):
        try:
            return tuple(convert(part) for convert, part in zip(types, parts))
        except ValueError:
            pass
    raise CoarseRegError(f"{flag} expects {syntax}, got {text!r}")


def parse_grid(text: str) -> EvalGrid:
    return EvalGrid.linspace(*_fields("--grid", text, "numeric lo:hi:count", (float, float, int), ":"))


def parse_delta(text: str) -> ErrorDensity:
    kind, value = _fields("--delta", text, "kind:scale", (str, float), ":")
    if kind not in ("gaussian", "laplace", "uniform"):
        raise CoarseRegError(f"--delta kind must be gaussian, laplace or uniform, got {kind!r}")
    return getattr(ErrorDensity, kind)(value)


def parse_interval(text: str) -> tuple:
    lo, hi = _fields("--interval", text, "numeric lo:hi", (float, float), ":")
    if not lo < hi:
        raise CoarseRegError(f"--interval needs lo < hi, got {text!r}")
    return lo, hi


def _thread_count(text: str) -> int:
    """``--threads``: a whole number of at least 1, else a usage error."""
    try:
        count = int(text)
    except ValueError:
        count = None
    if count is None or count < 1:
        raise argparse.ArgumentTypeError(f"expects a whole number of at least 1, got {text!r}")
    return count


def _provenance(args) -> dict:
    return {
        "command": shlex.join(["coarsereg"] + args._argv),
        "seed": args.seed,
        "version": __version__,
    }


def _emit(args, body: dict, header=None, columns=()):
    """Write the table ``columns`` under ``header`` as CSV or, under
    ``--format json`` or without a table, ``body`` with a provenance block
    as JSON."""
    if header is None or args.format == "json":
        write_output(args.out, json_text({"provenance": _provenance(args), **body}))
    else:
        write_output(args.out, csv_text(header, columns))


def _emit_curve(args, curve: RegressionCurve, **body):
    columns = curve_columns(curve)
    _emit(args, {**body, "curve": {**columns, "meta": curve.meta}}, columns, columns.values())


def _emit_known(args, fit, **options):
    """Emit ``fit``'s curve on ``--train``, ``--delta`` and ``--grid``, read in turn."""
    sample = read_training_csv(args.train)
    _emit_curve(args, fit(sample, parse_delta(args.delta), parse_grid(args.grid), **options))


def _cmd_fit_known(args):
    _emit_known(args, fit_known)


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
    curve = fit_fourier(sample, rep, FourierConfig(cutoff=cutoff, t_step=args.tstep), grid)
    _emit_curve(args, curve)


def _cmd_fit_proxy(args):
    t_fit, x_fit = read_pairs_csv(args.pairs, columns=("t", "x"))
    fit = fit_linear_proxy(t_fit, x_fit)
    payload = {
        "intercept": fit.intercept,
        "slope": fit.slope,
        "n": fit.n_obs,
        "residual_variance": fit.residual_variance,
    }
    if args.train is None:
        _emit(args, {"proxy_fit": payload})
        return
    t, y = read_pairs_csv(args.train, columns=("t", "y"))
    if args.delta is not None:
        density = parse_delta(args.delta)
    elif fit.residual_variance > 0:
        density = ErrorDensity.gaussian(math.sqrt(fit.residual_variance))
    else:
        raise CoarseRegError("cannot infer an error density from a perfect fit; pass --delta")
    payload["delta"] = density.describe()
    curve = fit_known_proxy(fit, t, y, density, parse_grid(args.grid))
    _emit_curve(args, curve, proxy_fit=payload)


def _cmd_nw(args):
    sample = read_training_csv(args.train)
    h = cv_bandwidth(sample) if args.bandwidth == "cv" else float(args.bandwidth)
    curve = fit_nw(sample, h, parse_grid(args.grid))
    _emit_curve(args, curve)


def _cmd_ci(args):
    _emit_known(args, pointwise_band, alpha=args.alpha)


def _cmd_band(args):
    _emit_known(args, simultaneous_band, alpha=args.alpha, n_sim=args.nsim, seed=args.seed)


def _cmd_cf(args):
    rep = read_replicates_csv(args.replicates)
    table = error_cf_from_replicates(rep, symmetric_tgrid(args.tmax, args.tstep))
    _emit(args, {"cf": {"t": table.t, "value": table.values}},
          ("t", "cf"), (table.t, table.values))


def _cmd_extrema(args):
    sample = read_training_csv(args.train)
    lo, hi = parse_interval(args.interval)
    loc, value = find_extremum(sample, parse_delta(args.delta), lo, hi, kind=args.kind)
    _emit(args, {"extremum": {"kind": args.kind, "location": loc, "value": value}},
          ("location", "value"), ([loc], [value]))


def _cmd_zeros(args):
    sample = read_training_csv(args.train)
    lo, hi = parse_interval(args.interval)
    roots = find_zeros(sample, parse_delta(args.delta), lo, hi, level=args.level)
    _emit(args, {"zeros": {"level": args.level, "locations": list(roots)}},
          ("location",), (roots,))


def _cmd_simulate(args):
    scn = ScenarioConfig(
        model=args.model,
        n=args.n,
        predictor_noise=args.nsdelta,
        response_noise=args.nseps,
        error_kind=args.deltakind,
        seed=args.seed,
    )
    grid = parse_grid(args.grid) if args.grid else None
    report = run_replications(
        scn,
        EstimatorSpec(method=args.estimator),
        reps=args.reps,
        grid=grid,
        master_seed=args.seed,
        coverage_points=_fields("--coverage-at", args.coverage_at),
        alpha=args.alpha,
        rmse_points=_fields("--rmse-at", args.rmse_at),
    )
    if args.out is not None:
        deciles = [report.decile_curves[k]["values"] for k in ("d1", "d5", "d9")]
        write_output(os.path.splitext(args.out)[0] + "_deciles.csv",
                     csv_text(("x", "d1", "d5", "d9"), (report.grid, *deciles)))
    _emit(args, {"report": report.to_dict()})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsereg",
        description="Root-n nonparametric regression for coarsened predictors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *required_flags, **defaults):
        p = sub.add_parser(name, help=help)
        for flag in required_flags:
            p.add_argument(flag, required=True)
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func, **defaults)
        return p

    command("fit-known", _cmd_fit_known, "ratio estimator with a known error density",
            "--train", "--delta", "--grid")

    p = command("fit-fourier", _cmd_fit_fourier, "Fourier-inversion estimator from replicates",
                "--train", "--replicates", "--grid")
    p.add_argument("--tau", type=float, help="cutoff override (policy-selected when omitted)")
    p.add_argument("--tstep", type=float, help="frequency spacing (derived when omitted)")
    p.add_argument("--lambda", dest="lambda", type=float,
                   help="predictor-CF polynomial decay exponent (cutoff policy only)")
    p.add_argument("--lambdadelta", type=float,
                   help="error-CF polynomial decay exponent (cutoff policy only)")

    p = command("fit-proxy", _cmd_fit_proxy, "least-squares proxy calibration, then fit",
                format="json")
    p.add_argument("--pairs", required=True, help="calibration CSV with header t,x")
    p.add_argument("--train", help="analysis CSV with header t,y")
    p.add_argument("--delta", help="error density (default: gaussian with the residual variance)")
    p.add_argument("--grid", default="0:1:101")

    p = command("nw", _cmd_nw, "Nadaraya-Watson baseline", "--train", "--grid")
    p.add_argument("--bandwidth", default="cv", help="'cv' or a positive number")

    p = command("ci", _cmd_ci, "pointwise confidence intervals on a grid",
                "--train", "--delta", "--grid")
    p.add_argument("--alpha", type=float, default=0.05)

    p = command("band", _cmd_band, "simultaneous confidence band on a grid",
                "--train", "--delta", "--grid")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--nsim", type=int, default=10_000)

    p = command("cf", _cmd_cf, "dump the replicate-based error-CF table", "--replicates")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--tstep", type=float, required=True)

    p = command("extrema", _cmd_extrema, "locate an extremum of the fitted curve",
                "--train", "--delta")
    p.add_argument("--interval", required=True, help="lo:hi")
    p.add_argument("--kind", choices=("max", "min"), default="max")

    p = command("zeros", _cmd_zeros, "locate level crossings of the fitted curve",
                "--train", "--delta")
    p.add_argument("--interval", required=True, help="lo:hi")
    p.add_argument("--level", type=float, default=0.0)

    p = command("simulate", _cmd_simulate, "replication study", format="json")
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
    p.add_argument("--threads", type=_thread_count, default=1,
                   help="at least 1; ignored, as the replicates' work picks their threads")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    return exit_status(lambda: args.func(args))


def exit_status(run) -> int:
    """0 after ``run()``, or 1 after printing its error as one JSON record on stderr."""
    try:
        run()
    except DataFormatError as exc:
        print(json.dumps(exc.record()), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # CoarseRegError subclasses ValueError; constructor validation
        # errors land here too
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a size the machine cannot hold, such as a huge --nsim, --grid or --n
        print(json.dumps({"error": str(exc) or "out of memory"}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
