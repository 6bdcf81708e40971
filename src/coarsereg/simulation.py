"""Simulation scenarios, the quadrature oracle for the true target curve,
loss summaries, and the replication-study harness.

Scenario catalogue
------------------
``m1``        continuous response: g(w) = 3w + 20 (2 pi)^-1/2 exp(-200 (w - 1/2)^2)
              on [0, 1], predictors uniform on [0, 1], Gaussian response noise.
``logistic``  Bernoulli response with success probability exp(6w)/(1+exp(6w)),
              predictors uniform on [-1/2, 1/2].
``sine2``/``sine4``  Bernoulli with probability 0.45 sin(a pi w) + 0.5 (a = 2, 4),
              predictors uniform on [0, 1].
``constant``  synthetic sanity kind: g identically CONSTANT_LEVEL on [0, 1],
              continuous response (degenerate-noise checks use it).

Noise levels are calibrated from ratios: the predictor-noise ratio is
var(contamination)/var(predictor) and the response-noise ratio is
var(response error)/sup|g| (the latter follows the literal ratio definition
despite its unusual units).
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import known
from .data import EvalGrid, RegressionCurve, TrainingSample
from .densities import ErrorDensity
from .errors import CoarseRegError, DegenerateDenominatorError
from .inference import _check_alpha, _interval
from .io import json_text
from .known import _block_len, _defined, _golden_section
from .nw import _CV_POINTS, _kernel, cv_bandwidth

logger = logging.getLogger(__name__)

CONSTANT_LEVEL = 0.7

_MODELS = ("m1", "logistic", "sine2", "sine4", "constant")
_BERNOULLI = ("logistic", "sine2", "sine4")

# Predictor supports; every model draws W uniformly, so var(W) = 1/12.
_SUPPORT = {
    "m1": (0.0, 1.0),
    "logistic": (-0.5, 0.5),
    "sine2": (0.0, 1.0),
    "sine4": (0.0, 1.0),
    "constant": (0.0, 1.0),
}
_PREDICTOR_VAR = 1.0 / 12.0


def regression_function(model: str, w):
    """The data-generating regression g for a model, vectorized."""
    w = np.asarray(w, dtype=float)
    if model == "m1":
        out = 3.0 * w + 20.0 / math.sqrt(2.0 * math.pi) * np.exp(
            -200.0 * (w - 0.5) ** 2
        )
    elif model == "logistic":
        out = 1.0 / (1.0 + np.exp(-6.0 * w))
    elif model in ("sine2", "sine4"):
        a = 2.0 if model == "sine2" else 4.0
        out = 0.45 * np.sin(a * math.pi * w) + 0.5
    elif model == "constant":
        out = np.full_like(w, CONSTANT_LEVEL)
    else:
        raise ValueError(f"unknown model {model!r}")
    return out if out.ndim else float(out)


@lru_cache(maxsize=None)
def regression_bound(model: str) -> float:
    """sup of |g| over the predictor support (coarse scan + golden refine)."""
    lo, hi = _SUPPORT[model]
    xs = np.linspace(lo, hi, 100_001)
    vals = np.abs(regression_function(model, xs))
    i = int(np.argmax(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    x = _golden_section(lambda t: -abs(regression_function(model, t)), a, b, 1e-12)
    return float(max(vals[i], abs(regression_function(model, x))))


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully seeded simulation scenario.

    ``predictor_noise`` is var(contamination)/var(predictor);
    ``response_noise`` is var(response error)/sup|g| and must be None for
    the Bernoulli models (their response noise is intrinsic).
    """

    model: str
    n: int
    predictor_noise: float
    response_noise: Optional[float] = None
    error_kind: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not (math.isfinite(self.predictor_noise) and self.predictor_noise >= 0):
            raise ValueError("predictor_noise must be finite and nonnegative, "
                             f"got {self.predictor_noise}")
        if self.error_kind not in ("gaussian", "uniform"):
            raise ValueError(f"error_kind must be gaussian or uniform, got {self.error_kind!r}")
        if self.model in _BERNOULLI:
            if self.response_noise is not None:
                raise ValueError(f"{self.model} has a Bernoulli response; response_noise must be None")
        else:
            if self.response_noise is None or not (math.isfinite(self.response_noise)
                                                   and self.response_noise >= 0):
                raise ValueError(f"response_noise of {self.model} must be finite and "
                                 f"nonnegative, got {self.response_noise}")

    @property
    def support(self) -> tuple:
        return _SUPPORT[self.model]

    def as_dict(self) -> dict:
        return asdict(self)


def calibrate(scn: ScenarioConfig) -> tuple:
    """Noise variances implied by the scenario's ratios.

    Returns (contamination variance, response-error variance or None).
    The predictor variance is the analytic 1/12 of the uniform laws.
    """
    delta_var = scn.predictor_noise * _PREDICTOR_VAR
    if scn.model in _BERNOULLI:
        return delta_var, None
    return delta_var, scn.response_noise * regression_bound(scn.model)


def _spread(scn: ScenarioConfig) -> float:
    """The contamination's scale: its sd if Gaussian, its half-width if uniform."""
    delta_var, _ = calibrate(scn)
    return math.sqrt(delta_var) if scn.error_kind == "gaussian" else math.sqrt(3.0 * delta_var)


def make_density(scn: ScenarioConfig) -> ErrorDensity:
    """The scenario's true contamination density.

    Raises
    ------
    ValueError
        For a degenerate (zero-variance) contamination, which has no
        density representation.
    """
    if calibrate(scn)[0] <= 0:
        raise ValueError("degenerate contamination has no density representation")
    return getattr(ErrorDensity, scn.error_kind)(_spread(scn))


@dataclass(frozen=True)
class SimulatedDataset:
    """One simulated draw: precise predictors, contaminated versions, and
    responses, plus the scenario handle for oracle queries."""

    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    scenario: ScenarioConfig

    def training(self) -> TrainingSample:
        """(precise predictor, response) pairs."""
        return TrainingSample(self.w, self.y)

    def noisy_training(self) -> TrainingSample:
        """(contaminated predictor, response) pairs, for baselines."""
        return TrainingSample(self.x, self.y)


def generate(scn: ScenarioConfig, rng: Optional[np.random.Generator] = None) -> SimulatedDataset:
    """Draw one dataset. Deterministic given the generator state.

    Draw order is fixed (predictors, contamination, response noise) so a
    seeded generator reproduces the dataset bit for bit.
    """
    if rng is None:
        rng = np.random.default_rng(scn.seed)
    delta_var, eps_var = calibrate(scn)
    lo, hi = scn.support
    w = rng.uniform(lo, hi, scn.n)
    spread = _spread(scn)
    if scn.error_kind == "gaussian":
        delta = rng.normal(0.0, spread, scn.n) if delta_var > 0 else np.zeros(scn.n)
    else:
        delta = rng.uniform(-spread, spread, scn.n) if delta_var > 0 else np.zeros(scn.n)
    gw = regression_function(scn.model, w)
    if scn.model in _BERNOULLI:
        y = (rng.random(scn.n) < gw).astype(float)
    else:
        noise = rng.normal(0.0, math.sqrt(eps_var), scn.n) if eps_var > 0 else np.zeros(scn.n)
        y = gw + noise
    return SimulatedDataset(w=w, x=w + delta, y=y, scenario=scn)


# -- oracle --------------------------------------------------------------

_SIMPSON_TOL = 1e-8
_SIMPSON_START = 256
_SIMPSON_MAX = 2**20


def _simpson_adaptive(f, lo, hi, tol: float = _SIMPSON_TOL) -> np.ndarray:
    """Composite Simpson over [lo[i], hi[i]] for each row i, doubling the
    intervals until two successive sums differ by less than ``tol``; each row
    stops doubling on its own, and an empty interval integrates to 0.

    ``f(rows, m)`` gives the integrand at the m + 1 equally spaced nodes of
    each selected row, one row each. Rows are evaluated a block at a time,
    so memory stays bounded however far a row doubles. The oracle and the
    mass check of :meth:`ErrorDensity.custom` both integrate with it.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    m = _SIMPSON_START

    def simpson(rows, m):
        step = _block_len(m + 1)

        def block(start):
            chosen = rows[start:start + step]
            ys, h = f(chosen, m), (hi[chosen] - lo[chosen]) / m
            return h / 3.0 * (ys[:, 0] + ys[:, -1] + 4.0 * ys[:, 1:-1:2].sum(axis=1)
                              + 2.0 * ys[:, 2:-1:2].sum(axis=1))

        sums = known._row_blocks(block, len(rows), step, m + 1, serial=True)  # f: user code
        return np.concatenate([np.empty(0), *sums])  # no rows: an empty array

    result = np.zeros(len(lo))
    rows = np.flatnonzero(hi > lo)
    prev = simpson(rows, m)
    while m < _SIMPSON_MAX and rows.size:
        m *= 2
        cur = simpson(rows, m)
        done = np.abs(cur - prev) < tol
        result[rows[done]] = cur[done]
        rows, prev = rows[~done], cur[~done]
    result[rows] = prev
    return result


def _truth(scn: ScenarioConfig, x) -> np.ndarray:
    """:func:`true_regression` at every point of ``x``, NaN where it is
    undefined. Under Gaussian contamination the smoothing kernel is the
    pdf of :func:`make_density`, the density the estimators are given."""
    x = np.asarray(x, dtype=float)
    delta_var, _ = calibrate(scn)
    lo, hi = scn.support
    out = np.full(len(x), np.nan)
    if delta_var == 0.0:
        inside = (lo <= x) & (x <= hi)
        out[inside] = regression_function(scn.model, x[inside])
        return out

    if scn.error_kind == "uniform":
        half = _spread(scn)
        a, b = np.maximum(lo, x - half), np.minimum(hi, x + half)
        ok = np.flatnonzero(b > a)
        a, b = a[ok], b[ok]

        def smeared(rows, m):
            # one scalar linspace per row: with array endpoints numpy rounds
            # the nodes differently
            nodes = np.array([np.linspace(a[i], b[i], m + 1) for i in rows])
            return regression_function(scn.model, nodes)

        out[ok] = _simpson_adaptive(smeared, a, b) / (b - a)
        return out

    pdf_into = make_density(scn)._pdf_into

    def kernel(points, w):
        return pdf_into(np.subtract.outer(points, w))

    def moment(rows, m):
        w = np.linspace(lo, hi, m + 1)
        return regression_function(scn.model, w) * kernel(xs[rows], w)

    a, b = np.full(len(x), lo), np.full(len(x), hi)
    den = _simpson_adaptive(lambda rows, m: kernel(x[rows], np.linspace(lo, hi, m + 1)), a, b)
    ok = np.flatnonzero(_defined(den))
    xs = x[ok]
    out[ok] = _simpson_adaptive(moment, a[ok], b[ok]) / den[ok]
    return out


# why the truth is undefined, by oracle branch (no contamination, uniform,
# Gaussian)
_UNDEFINED = {
    None: "x={x} outside the predictor support",
    "uniform": "x={x} outside the contaminated support",
    "gaussian": "smeared density below threshold at x={x}",
}


@lru_cache(maxsize=200_000)
def true_regression(scn: ScenarioConfig, x: float) -> float:
    """The true target curve at ``x``: the ratio of the contamination-
    smeared response moment to the smeared predictor density, both by
    adaptive composite Simpson quadrature over the predictor support.

    This is :func:`_truth` on one point, cached per (scenario, x).

    Raises
    ------
    DegenerateDenominatorError
        Where the smeared predictor density vanishes (x outside the
        reachable range).
    """
    return float(_oracle(scn, [], [x])[1][0])


def _oracle(scn: ScenarioConfig, grid, points) -> tuple:
    """:func:`_truth` on ``grid`` and on ``points``, which must be defined."""
    truth = _truth(scn, np.concatenate([grid, points]))
    undefined = np.flatnonzero(np.isnan(truth[len(grid):]))
    if undefined.size:
        kind = scn.error_kind if calibrate(scn)[0] > 0.0 else None
        raise DegenerateDenominatorError(_UNDEFINED[kind].format(x=points[undefined[0]]))
    return truth[:len(grid)], truth[len(grid):]


def default_grid(scn: ScenarioConfig, count: int = 101) -> EvalGrid:
    """Evaluation grid over the contaminated predictor's high-density range:
    the predictor support expanded by twice the contamination sd (Gaussian)
    or by the half-width (uniform), trimmed one spacing inside so the
    endpoints stay clear of the exact support boundary."""
    lo, hi = scn.support
    e = 2.0 * _spread(scn) if scn.error_kind == "gaussian" else _spread(scn)
    pts = np.linspace(lo - e, hi + e, count + 2)[1:-1]
    return EvalGrid(pts)


def integrated_squared_error(curve: RegressionCurve, scn: ScenarioConfig) -> float:
    """Trapezoid rule of (estimate - truth)^2 over the curve's grid.

    Subintervals touching an undefined point (of the curve or of the truth)
    are excluded and logged.
    """
    x = curve.grid.points
    (ise,), (skipped,) = _ise(x, curve.values, _truth(scn, x))
    _log_excluded(skipped)
    return float(ise)


def _ise(x, values, truth):
    """:func:`integrated_squared_error` of each row of ``values`` (curves on
    the grid ``x``) given the truth on ``x``, and the count of subintervals
    each excludes. Each row's value is the pairwise sum of its own kept
    terms, so it does not depend on the other rows."""
    sq = (np.atleast_2d(values) - truth) ** 2
    ok = np.isfinite(sq)
    both = ok[:, :-1] & ok[:, 1:]
    terms = 0.5 * (sq[:, :-1] + sq[:, 1:]) * np.diff(x)
    ise = np.add.reduce(terms, axis=1)
    skipped = np.count_nonzero(~both, axis=1)
    for row in np.flatnonzero(skipped):
        ise[row] = np.sum(terms[row][both[row]])
    return ise, skipped


def _log_excluded(skipped):
    if skipped:
        logger.info("excluded %d undefined subintervals from the squared-error integral",
                    skipped)


# -- replication studies ---------------------------------------------------


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator a study runs on each replicate.

    ``known`` fits the ratio estimator on (precise predictor, response)
    using the scenario's true contamination density, or ``density`` when an
    explicit override is given (misspecification studies). ``nw`` fits the
    kernel baseline on (contaminated predictor, response) with an explicit
    positive ``bandwidth`` or ``"cv"``, leave-one-out CV.
    """

    method: str = "known"
    density: object = "true"
    bandwidth: object = "cv"

    def __post_init__(self):
        if self.method not in ("known", "nw"):
            raise ValueError(f"method must be 'known' or 'nw', got {self.method!r}")
        if self.method == "known":
            if not (self.density == "true" or isinstance(self.density, ErrorDensity)):
                raise ValueError("density must be 'true' or an ErrorDensity")
        elif self.bandwidth != "cv":
            try:  # nw's rule; a non-number is checked as NaN, which fails it
                _kernel(self.bandwidth if isinstance(self.bandwidth, (int, float)) else math.nan)
            except ValueError:
                raise ValueError(f"bandwidth must be 'cv' or positive and finite, "
                                 f"got {self.bandwidth}") from None

    def as_dict(self) -> dict:
        density = self.density if isinstance(self.density, str) else self.density.describe()
        out = {"method": self.method}
        if self.method == "known":
            out["density"] = density
        else:
            out["bandwidth"] = self.bandwidth if isinstance(self.bandwidth, str) else float(self.bandwidth)
        return out


@dataclass(frozen=True)
class StudyReport:
    """Deterministic summary of a replication study.

    ``ise`` is replicate-ordered (None where a replicate failed); decile
    curves are the fitted curves whose integrated-squared-error ranks sit
    at the nearest-rank first, fifth and ninth deciles.
    """

    scenario: dict
    estimator: dict
    replications: int
    master_seed: int
    grid: list
    failures: int
    ise: list
    decile_curves: dict
    coverage: dict
    rmse: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace, NaN encoded as null
        (:func:`io.json_text` without its closing newline)."""
        return json_text(self.to_dict())[:-1]


def _replicates(scn, spec, density, xs, g, cover, alpha, master_seed, idxs):
    """The results of the replicates ``idxs`` of a study of ``spec``, from
    one kernel pass over their samples, drawn one by one and stacked: the
    precise predictors under ``density``'s pdf for the known-error
    estimator, the contaminated ones under the NW kernel for the baseline,
    whose bandwidth is the fixed one or, for a chunk of one replicate, its
    own :func:`cv_bandwidth`. Each sample's rows are the points ``xs``: the
    ``g`` grid points, then the query points; a second pass computes the
    variance on the coverage rows ``cover`` of ``xs`` alone. Each row's
    values are the bits :func:`fit_known`, :func:`regression_at`,
    :func:`inference.pointwise_ci`, :func:`fit_nw` or :func:`nw_estimate`
    give that sample and point alone. A replicate that fails gets its error
    in place of its result, as those would raise it: first a failed CV, then
    a curve undefined on the whole grid, then the first undefined query
    point. Intervals are NaN off the coverage rows.
    """
    reps = len(idxs)
    w, y = np.empty((reps, scn.n)), np.empty((reps, scn.n))
    for row, idx in enumerate(idxs):
        data = generate(scn, np.random.default_rng((master_seed, idx)))
        w[row], y[row] = data.w if spec.method == "known" else data.x, data.y
    if spec.method == "known":
        kernel = density._pdf_into
    else:
        try:
            kernel = _kernel(cv_bandwidth(data.noisy_training()) if spec.bandwidth == "cv"
                             else float(spec.bandwidth))
        except CoarseRegError as exc:
            return [exc]
    den, num = (m.reshape(reps, -1) for m in known._kernel_moments(kernel, xs, w, y))
    if len(cover):
        var = known._kernel_moments(kernel, xs[cover], w, y, variance=True)[2]
    defined = _defined(den)
    lo, hi = np.full((2, reps, len(xs)), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):  # at the failing replicates' points
        est = num / den
        if len(cover):
            lo[:, cover], hi[:, cover] = _interval(num[:, cover], den[:, cover],
                                                   var.reshape(reps, -1), scn.n, alpha)
    values = np.where(defined[:, :g], est[:, :g], np.nan)
    whole_grid = ~np.any(defined[:, :g], axis=1)
    some_point = ~np.all(defined[:, g:], axis=1)
    return [DegenerateDenominatorError("estimate undefined on the whole grid") if whole_grid[row]
            else known._undefined(den[row, g:], xs[g:]) if some_point[row]
            else (values[row], est[row, g:], lo[row, g:], hi[row, g:])
            for row in range(reps)]


def run_replications(
    scn: ScenarioConfig,
    spec: EstimatorSpec,
    reps: int,
    grid: Optional[EvalGrid] = None,
    master_seed: int = 0,
    *,
    coverage_points: tuple = (),
    alpha: float = 0.05,
    rmse_points: tuple = (),
) -> StudyReport:
    """Run ``reps`` independent replicates and summarize.

    Per-replicate generators derive from (master_seed, replicate index), so
    the report is byte-identical for a given seed however the replicates
    run. The replicates are evaluated in chunks, one stacked kernel pass
    per chunk (:func:`_replicates`), for both estimators; an NW replicate
    that picks its bandwidth by CV is a chunk of its own. When one
    replicate's dense work (grid points x n, plus n^2 per LOO-CV bandwidth)
    reaches ``known._POOL_MIN_CELLS`` and the density is not a custom one,
    the replicates are shared, one at a time, by the calling thread and the
    pool thread of :func:`known._row_blocks`; otherwise the chunks run
    serially, and a chunk's stacked pass pools its blocks by the engine's
    rule on its own cells. Estimator failures are tallied, not fatal, and
    logged after the replicates, in index order; any other error of the
    first replicate raising one is raised. Coverage and RMSE points must be
    finite. Confidence-interval coverage is only defined for the known-error
    estimator.
    """
    if reps < 1:
        raise ValueError("need at least one replicate")
    if coverage_points and spec.method != "known":
        raise ValueError("coverage is only defined for the known-error estimator")
    if coverage_points:
        _check_alpha(alpha, scn.n)
    grid = grid or default_grid(scn)
    coverage_points = tuple(float(p) for p in coverage_points)
    rmse_points = tuple(float(p) for p in rmse_points)
    unfit = [p for p in coverage_points + rmse_points if not math.isfinite(p)]
    if unfit:
        raise ValueError("coverage and RMSE points must be finite, got "
                         + ", ".join(map(repr, unfit)))
    points = tuple(sorted(set(coverage_points) | set(rmse_points)))
    truth, at_points = _oracle(scn, grid.points, points)  # each value the one it gets alone
    truth_at = dict(zip(points, at_points.tolist()))

    cv = spec.method == "nw" and spec.bandwidth == "cv"
    cells = scn.n * (len(grid.points) + cv * _CV_POINTS * scn.n)
    custom = getattr(spec.density, "kind", None) == "custom"  # its pdf need not be thread-safe
    shared = not custom and cells >= known._POOL_MIN_CELLS
    known_true = spec.method == "known" and spec.density == "true"
    density = make_density(scn) if known_true else spec.density  # NW uses no density
    xs, g = np.concatenate([grid.points, points]), len(grid.points)
    cover = g + np.flatnonzero(np.isin(points, coverage_points))
    # a chunk's stacks (its samples, and its rows of moments) fill at most
    # one block each, and its kernel blocks hold whole replicates
    chunk = (1 if cv or shared or _block_len(scn.n) < len(xs)
             else _block_len(max(scn.n, len(xs))))
    blocks = known._row_blocks(
        lambda start: _replicates(scn, spec, density, xs, g, cover, alpha, master_seed,
                                  range(start, min(start + chunk, reps))),
        reps, chunk, cells, serial=not shared)
    results = [r for block in blocks for r in block]

    ok = [r for r in results if not isinstance(r, CoarseRegError)]
    values = np.array([r[0] for r in ok]).reshape(len(ok), len(grid.points))
    ise, skipped = _ise(grid.points, values, truth)
    kept = iter(zip(ise.tolist(), skipped))
    ise_ordered = []
    for idx, r in enumerate(results):  # the serial loop's log, in index order
        if isinstance(r, CoarseRegError):
            logger.warning("replicate %d failed: %s", idx, r)
            ise_ordered.append(None)
        else:
            value, excluded = next(kept)
            _log_excluded(excluded)
            ise_ordered.append(value)
    if not ok:
        raise CoarseRegError("every replicate failed")
    failures = reps - len(ok)
    at, lo, hi = (np.array([r[i] for r in ok]) for i in (1, 2, 3))
    order = np.argsort(ise, kind="stable")
    n_ok = len(ok)
    deciles = {}
    for label, tenth in (("d1", 1), ("d5", 5), ("d9", 9)):
        rank = math.ceil(tenth * n_ok / 10.0)
        chosen = order[rank - 1]
        deciles[label] = {
            "rank": rank,
            "ise": float(ise[chosen]),
            "values": values[chosen].tolist(),
        }

    coverage = {}
    if coverage_points:
        per_point = {}
        for p in coverage_points:
            j = points.index(p)
            hits = int(np.count_nonzero((lo[:, j] <= truth_at[p]) & (truth_at[p] <= hi[:, j])))
            per_point[repr(p)] = {
                "covered": hits,
                "total": n_ok,
                "rate": hits / n_ok,
            }
        coverage = {"alpha": alpha, "points": per_point}

    rmse = {}
    for p in rmse_points:
        errs = at[:, points.index(p)] - truth_at[p]
        rmse[repr(p)] = float(np.sqrt(np.mean(errs**2)))

    return StudyReport(
        scenario=scn.as_dict(),
        estimator=spec.as_dict(),
        replications=reps,
        master_seed=master_seed,
        grid=list(grid.points),
        failures=failures,
        ise=ise_ordered,
        decile_curves=deciles,
        coverage=coverage,
        rmse=rmse,
    )
