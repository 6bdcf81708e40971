import json
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsereg import (
    CoarseRegError,
    DegenerateDenominatorError,
    ErrorDensity,
    EstimatorSpec,
    EvalGrid,
    RegressionCurve,
    ScenarioConfig,
    calibrate,
    default_grid,
    fit_known,
    generate,
    integrated_squared_error,
    make_density,
    regression_bound,
    regression_function,
    run_replications,
    true_regression,
)
from coarsereg import known, simulation
from coarsereg.inference import _interval
from coarsereg.simulation import StudyReport, _truth
from pooling import cpus, pool_of, replicate_threads

M1 = ScenarioConfig(model="m1", n=100, predictor_noise=0.25, response_noise=0.1,
                    error_kind="uniform", seed=5)
LOGISTIC = ScenarioConfig(model="logistic", n=100, predictor_noise=0.25, seed=5)


class TestScenarioValidation:
    def test_bernoulli_rejects_response_noise(self):
        with pytest.raises(ValueError, match="Bernoulli"):
            ScenarioConfig(model="logistic", n=50, predictor_noise=0.1, response_noise=0.1)

    def test_continuous_requires_response_noise(self):
        with pytest.raises(ValueError, match="response_noise"):
            ScenarioConfig(model="m1", n=50, predictor_noise=0.1)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            ScenarioConfig(model="m3", n=50, predictor_noise=0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["predictor_noise", "response_noise"])
    def test_non_finite_noise_ratio(self, field, bad):
        # a nan response_noise used to pass the sign check and generate
        # noise-free responses
        ratios = {"predictor_noise": 0.1, "response_noise": 0.1, field: bad}
        with pytest.raises(ValueError, match=f"{field}.* must be finite and nonnegative, got {bad}"):
            ScenarioConfig(model="m1", n=50, **ratios)


class TestCalibrate:
    def test_predictor_noise_quarter(self):
        delta_var, _ = calibrate(M1)
        assert delta_var == pytest.approx(0.25 / 12.0, abs=1e-12)

    def test_zero_noise(self):
        scn = ScenarioConfig(model="m1", n=50, predictor_noise=0.0, response_noise=0.0)
        delta_var, eps_var = calibrate(scn)
        assert delta_var == 0.0 and eps_var == 0.0

    def test_m1_response_scale_from_bound_oracle(self):
        # oracle: million-point scan plus refinement of the peak
        w = np.linspace(0.0, 1.0, 1_000_001)
        vals = regression_function("m1", w)
        i = int(np.argmax(vals))
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda x: -regression_function("m1", x),
            bracket=(w[i - 1], w[i], w[i + 1]),
            method="golden",
            options={"xtol": 1e-13},
        )
        oracle = float(-res.fun)
        assert oracle == pytest.approx(9.480255711, abs=1e-8)
        assert regression_bound("m1") == pytest.approx(oracle, abs=1e-9)
        _, eps_var = calibrate(M1)
        assert eps_var == pytest.approx(0.1 * oracle, rel=1e-9)

    def test_logistic_bound(self):
        assert regression_bound("logistic") == pytest.approx(
            1.0 / (1.0 + math.exp(-3.0)), abs=1e-9
        )

    def test_uniform_half_width(self):
        d = make_density(M1)
        delta_var, _ = calibrate(M1)
        assert d.kind == "uniform"
        assert d.scale == pytest.approx(math.sqrt(3 * delta_var))
        assert d.variance == pytest.approx(delta_var)


class TestGenerate:
    def test_deterministic_given_seed(self):
        a = generate(M1)
        b = generate(M1)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_bernoulli_responses_binary(self):
        ds = generate(LOGISTIC)
        assert set(np.unique(ds.y)) <= {0.0, 1.0}

    def test_zero_response_noise_exact(self):
        scn = ScenarioConfig(model="m1", n=200, predictor_noise=0.25, response_noise=0.0)
        ds = generate(scn)
        np.testing.assert_array_equal(ds.y, regression_function("m1", ds.w))

    def test_contamination_moments(self):
        scn = ScenarioConfig(model="m1", n=200_000, predictor_noise=0.25,
                             response_noise=0.1, error_kind="uniform", seed=11)
        ds = generate(scn)
        delta = ds.x - ds.w
        delta_var, _ = calibrate(scn)
        assert np.mean(delta) == pytest.approx(0.0, abs=5e-3)
        assert np.var(delta) == pytest.approx(delta_var, rel=0.02)
        half = math.sqrt(3 * delta_var)
        assert np.max(np.abs(delta)) <= half

    def test_predictors_in_support(self):
        ds = generate(LOGISTIC)
        assert ds.w.min() >= -0.5 and ds.w.max() <= 0.5


class TestOracle:
    def test_constant_model(self):
        scn = ScenarioConfig(model="constant", n=50, predictor_noise=0.25,
                             response_noise=0.1)
        for x in (0.1,  0.5, 0.9):
            assert true_regression(scn, x) == pytest.approx(0.7, abs=1e-9)

    def test_degenerate_contamination_gives_g(self):
        scn = ScenarioConfig(model="m1", n=50, predictor_noise=0.0, response_noise=0.1)
        for x in (0.2, 0.5037, 0.9):
            assert true_regression(scn, x) == regression_function("m1", x)
        with pytest.raises(DegenerateDenominatorError):
            true_regression(scn, 1.5)

    def test_logistic_center_symmetry(self):
        assert true_regression(LOGISTIC, 0.0) == pytest.approx(0.5, abs=1e-8)

    def test_m1_uniform_against_midpoint_rule(self):
        # independent midpoint-rule oracle at 11 probe points
        delta_var, _ = calibrate(M1)
        half = math.sqrt(3 * delta_var)
        for x in np.linspace(0.0, 1.0, 11):
            a, b = max(0.0, x - half), min(1.0, x + half)
            m = 2_000_000
            mids = a + (np.arange(m) + 0.5) * (b - a) / m
            expected = float(np.mean(regression_function("m1", mids)))
            assert true_regression(M1, float(x)) == pytest.approx(expected, abs=1e-6)

    def test_gaussian_outside_reach(self):
        scn = ScenarioConfig(model="m1", n=50, predictor_noise=0.01, response_noise=0.1)
        with pytest.raises(DegenerateDenominatorError):
            true_regression(scn, 50.0)


class TestVectorisedOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(["m1", "logistic", "sine2", "sine4", "constant"]),
        kind=st.sampled_from(["gaussian", "uniform"]),
        noise=st.one_of(st.just(0.0), st.floats(0.001, 3.0)),
        lo=st.floats(-2.0, 1.0),
        span=st.floats(0.0, 3.0),
        count=st.integers(1, 30),
        one_row_blocks=st.booleans(),
    )
    def test_equals_the_pointwise_oracle(self, model, kind, noise, lo, span, count,
                                         one_row_blocks):
        # the grids reach past the predictor support, where the truth is
        # undefined; with one-row blocks each row is its own integrand call
        response = None if model in ("logistic", "sine2", "sine4") else 0.1
        scn = ScenarioConfig(model=model, n=10, predictor_noise=noise,
                             response_noise=response, error_kind=kind)
        x = np.linspace(lo, lo + span, count)
        want = np.full(count, np.nan)
        for i, xi in enumerate(x):
            try:
                want[i] = true_regression(scn, float(xi))
            except DegenerateDenominatorError:
                pass
        old = known._BLOCK_BYTES
        known._BLOCK_BYTES = 8 if one_row_blocks else old
        try:
            got = _truth(scn, x)
        finally:
            known._BLOCK_BYTES = old
        defined = ~np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), ~defined)
        assert got[defined].tobytes() == want[defined].tobytes()

    def test_undefined_messages_name_the_branch(self):
        cases = [
            (ScenarioConfig(model="m1", n=5, predictor_noise=0.0, response_noise=0.1),
             "x=1.5 outside the predictor support"),
            (ScenarioConfig(model="m1", n=5, predictor_noise=0.25, response_noise=0.1,
                            error_kind="uniform"), "x=1.5 outside the contaminated support"),
            (ScenarioConfig(model="m1", n=5, predictor_noise=0.01, response_noise=0.1),
             "smeared density below threshold at x=1.5"),
        ]
        for scn, message in cases:
            with pytest.raises(DegenerateDenominatorError, match=message):
                true_regression(scn, 1.5)

    def test_scalar_oracle_keeps_its_cache(self):
        # benchmark workers read the hit and miss counts
        assert callable(true_regression.cache_info)


class TestIse:
    def test_exact_curve_zero(self):
        grid = default_grid(M1, count=31)
        truth = np.array([true_regression(M1, float(x)) for x in grid.points])
        curve = RegressionCurve(grid=grid, values=truth)
        assert integrated_squared_error(curve, M1) == pytest.approx(0.0, abs=1e-20)

    def test_constant_offset(self):
        scn = ScenarioConfig(model="constant", n=50, predictor_noise=0.25,
                             response_noise=0.1)
        grid = EvalGrid(np.linspace(0.3, 0.8, 21))
        curve = RegressionCurve(grid=grid, values=np.full(21, 0.9))
        # flat integrand (0.9 - 0.7)^2 over a span of 0.5
        assert integrated_squared_error(curve, scn) == pytest.approx(
            0.04 * 0.5, rel=1e-12
        )

    def test_refinement_converges_to_closed_form(self):
        scn = ScenarioConfig(model="constant", n=50, predictor_noise=0.25,
                             response_noise=0.1)
        closed_form = 1.0 / 3.0  # integral of x^2 over [0.0, 1.0] shifted to truth 0.7
        errors = []
        for count in (11, 21, 41):
            grid = EvalGrid(np.linspace(0.0, 1.0, count))
            curve = RegressionCurve(grid=grid, values=0.7 + grid.points)
            errors.append(abs(integrated_squared_error(curve, scn) - closed_form))
        assert errors[0] > errors[1] > errors[2]

    def test_undefined_subintervals_excluded(self):
        grid = EvalGrid(np.linspace(0.3, 0.7, 5))
        vals = np.array([0.7, np.nan, 0.7, 0.7, 0.7])
        scn = ScenarioConfig(model="constant", n=50, predictor_noise=0.25,
                             response_noise=0.1)
        curve = RegressionCurve(grid=grid, values=vals)
        assert integrated_squared_error(curve, scn) == pytest.approx(0.0, abs=1e-20)


class TestEstimatorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorSpec(method="local-linear")
        with pytest.raises(ValueError):
            EstimatorSpec(method="known", density=3.0)

    def test_as_dict(self):
        assert EstimatorSpec(method="known").as_dict() == {
            "method": "known", "density": "true",
        }
        d = EstimatorSpec(method="known", density=ErrorDensity.gaussian(0.2))
        assert d.as_dict()["density"] == "gaussian:0.2"


class TestRunReplications:
    def test_single_replicate_deciles_collapse(self):
        rep = run_replications(LOGISTIC, EstimatorSpec(), reps=1,
                               grid=EvalGrid([-0.2, 0.0, 0.2]), master_seed=1)
        d = rep.decile_curves
        assert d["d1"]["values"] == d["d5"]["values"] == d["d9"]["values"]
        assert d["d1"]["rank"] == d["d5"]["rank"] == d["d9"]["rank"] == 1

    def test_decile_ise_nondecreasing(self):
        rep = run_replications(LOGISTIC, EstimatorSpec(), reps=40,
                               grid=EvalGrid([-0.2, 0.0, 0.2]), master_seed=2)
        d = rep.decile_curves
        assert d["d1"]["ise"] <= d["d5"]["ise"] <= d["d9"]["ise"]

    def test_degenerate_noise_sanity(self):
        # constant regression with all noise off: the fit reproduces the
        # truth exactly, whatever density the estimator assumes
        scn = ScenarioConfig(model="constant", n=40, predictor_noise=0.0,
                             response_noise=0.0)
        spec = EstimatorSpec(method="known", density=ErrorDensity.gaussian(0.1))
        rep = run_replications(scn, spec, reps=3,
                               grid=EvalGrid(np.linspace(0.2, 0.8, 13)), master_seed=3)
        assert all(v <= 1e-10 for v in rep.ise)

    def test_coverage_and_rmse_fields(self):
        rep = run_replications(LOGISTIC, EstimatorSpec(), reps=50,
                               grid=EvalGrid([-0.2, 0.0, 0.2]), master_seed=4,
                               coverage_points=(0.0,), alpha=0.05, rmse_points=(0.0,))
        pt = rep.coverage["points"][repr(0.0)]
        assert pt["total"] == 50
        assert 0.0 <= pt["rate"] <= 1.0
        assert rep.rmse[repr(0.0)] > 0.0

    def test_failure_tally(self):
        # uniform contamination with a tiny sample: some replicates have no
        # observation within the window of the far coverage point
        scn = ScenarioConfig(model="m1", n=5, predictor_noise=0.25,
                             response_noise=0.1, error_kind="uniform")
        rep = run_replications(scn, EstimatorSpec(), reps=30,
                               grid=EvalGrid(np.linspace(0.3, 0.7, 5)), master_seed=5,
                               coverage_points=(1.2,))
        assert rep.failures > 0
        assert sum(v is None for v in rep.ise) == rep.failures

    def test_oracle_asked_only_at_query_points(self):
        # the truth is computed once per study, in one oracle pass over the
        # grid and then the sorted query points, not looked up per replicate
        # nor point by point
        scn = ScenarioConfig(model="sine2", n=60, predictor_noise=0.2, seed=424242)
        grid = default_grid(scn)
        before = true_regression.cache_info()
        with mock.patch.object(simulation, "_truth", wraps=_truth) as oracle:
            run_replications(scn, EstimatorSpec(), reps=5, master_seed=1,
                             coverage_points=(0.5,), rmse_points=(0.25, 0.5))
        after = true_regression.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == 0
        (args, _), = oracle.call_args_list
        assert args[0] == scn
        assert args[1].tolist() == [*grid.points.tolist(), 0.25, 0.5]

    def test_known_study_stacks_its_replicates(self, monkeypatch):
        # two kernel passes per chunk of replicates: one whose rows, for each
        # replicate, are the 4 grid points, then the 3 query points (0.0,
        # 0.1, 0.2), and one computing the variance on the 2 coverage points
        shapes, variance_rows = [], []
        pdf_into, variance = ErrorDensity._pdf_into, known._centered_variance

        def recording(self, u, span=math.inf):
            # the oracle's kernel is the density's pdf too, on quadrature
            # rows of 2**k * 256 + 1 nodes; only the passes over the
            # n = 100 sample count here
            if np.shape(u)[1:] == (100,):
                shapes.append(np.shape(u))
            return pdf_into(self, u, span)

        def counting(k, *args):
            variance_rows.append(len(k))
            return variance(k, *args)

        monkeypatch.setattr(ErrorDensity, "_pdf_into", recording)
        monkeypatch.setattr(known, "_centered_variance", counting)

        def stacked(budget):
            shapes.clear()
            variance_rows.clear()
            with mock.patch.object(known, "_BLOCK_BYTES", budget):
                run_replications(LOGISTIC, EstimatorSpec(), reps=4,
                                 grid=EvalGrid([-0.2, 0.0, 0.2, 0.3]), master_seed=3,
                                 coverage_points=(0.0, 0.1), rmse_points=(0.2,))
            return shapes, variance_rows

        # every replicate in one block, in each pass
        assert stacked(known._BLOCK_BYTES) == ([(28, 100), (8, 100)], [8])
        # blocks of 15 sample rows hold two whole replicates of the first
        # pass, and all four of the second
        assert stacked(8 * 100 * 15) == ([(14, 100)] * 2 + [(8, 100)], [8])
        # blocks of 5 rows hold less than one replicate: one replicate per
        # chunk, its first pass in row blocks, its second in one block
        assert stacked(8 * 100 * 5) == ([(5, 100), (2, 100), (2, 100)] * 4, [2] * 4)

    def test_bad_alpha_rejected_up_front(self):
        with pytest.raises(ValueError, match="alpha"):
            run_replications(LOGISTIC, EstimatorSpec(), reps=2, coverage_points=(0.0,),
                             alpha=0.0)

    def test_nw_spec(self):
        rep = run_replications(LOGISTIC, EstimatorSpec(method="nw"), reps=3,
                               grid=EvalGrid([-0.2, 0.0, 0.2]), master_seed=6,
                               rmse_points=(0.0,))
        assert rep.estimator == {"method": "nw", "bandwidth": "cv"}

    def test_coverage_rejected_for_nw(self):
        with pytest.raises(ValueError, match="coverage"):
            run_replications(LOGISTIC, EstimatorSpec(method="nw"), reps=2,
                             coverage_points=(0.0,))

    @pytest.mark.parametrize("points, named", [
        (dict(rmse_points=(0.0, math.nan)), "nan"),
        (dict(coverage_points=(math.inf,)), "inf"),
        (dict(coverage_points=(-math.inf,), rmse_points=(0.0, math.nan)), "-inf, nan"),
    ])
    def test_non_finite_query_points_are_named(self, points, named):
        # refused before the oracle, which would report a density failure
        with mock.patch.object(simulation, "_oracle", side_effect=AssertionError), \
                pytest.raises(ValueError) as exc:
            run_replications(LOGISTIC, EstimatorSpec(), reps=2, **points)
        assert str(exc.value) == f"coverage and RMSE points must be finite, got {named}"

    def test_report_roundtrips_as_json(self):
        rep = run_replications(LOGISTIC, EstimatorSpec(), reps=4,
                               grid=EvalGrid([-0.2, 0.0, 0.2]), master_seed=7)
        parsed = json.loads(rep.to_json())
        assert parsed["replications"] == 4
        assert len(parsed["ise"]) == 4

    def test_byte_determinism_across_runs_and_threads(self):
        # one CPU: the replicates stack in chunks on the calling thread; two,
        # with every pass pooling: they are shared, one at a time, by the
        # calling thread and the pool thread
        kwargs = dict(reps=24, grid=EvalGrid([-0.2, 0.0, 0.2]), master_seed=8,
                      coverage_points=(0.0,), rmse_points=(0.0,))
        with cpus(1):
            a = run_replications(LOGISTIC, EstimatorSpec(), **kwargs)
        threads, recording = replicate_threads(delay=0.2)
        with pool_of(2), recording:
            b = run_replications(LOGISTIC, EstimatorSpec(), **kwargs)
        c = run_replications(LOGISTIC, EstimatorSpec(), **kwargs)
        assert any(name.startswith("coarsereg-rows") for name in threads)
        assert a.to_json() == b.to_json() == c.to_json()

    def test_nw_byte_determinism_across_threads(self):
        # 2.03e6 cells per replicate: on two CPUs the replicates are shared
        # with the pool thread at the real threshold
        scn = ScenarioConfig(model="m1", n=250, predictor_noise=0.25, response_noise=0.1,
                             seed=9)
        kwargs = dict(reps=4, master_seed=9, rmse_points=(0.5,))
        with cpus(1):
            a = run_replications(scn, EstimatorSpec(method="nw"), **kwargs)
        threads, recording = replicate_threads(delay=0.2)
        with cpus(2), recording:
            b = run_replications(scn, EstimatorSpec(method="nw"), **kwargs)
        assert any(name.startswith("coarsereg-rows") for name in threads)
        assert a.failures == 0
        assert a.to_json() == b.to_json()


def _triangular(u):
    return np.maximum(1.0 - np.abs(np.asarray(u, dtype=float)) / 0.1, 0.0) / 0.1


OVERRIDES = [None, ErrorDensity.gaussian(0.05), ErrorDensity.laplace(0.1),
             ErrorDensity.uniform(0.1), ErrorDensity.custom(_triangular, scale=0.1)]


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def logged(study):
    """``study()``'s report JSON, or its estimator error, and the messages
    it logged from the INFO level up."""
    logger = logging.getLogger("coarsereg.simulation")
    handler, level = _Messages(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        outcome = study().to_json()
    except CoarseRegError as exc:
        outcome = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return outcome, handler.messages


def replicate_by_replicate(scn, spec, reps, grid, master_seed, coverage_points, alpha,
                           rmse_points):
    """A known-error study as each replicate alone gives it: its curve from
    fit_known, its estimates and variances at the query points from one
    strict moment pass, and the summary over the replicates in index order."""
    coverage_points = tuple(float(p) for p in coverage_points)
    rmse_points = tuple(float(p) for p in rmse_points)
    points = tuple(sorted(set(coverage_points) | set(rmse_points)))
    truth_at = {p: true_regression(scn, p) for p in points}
    truth = _truth(scn, grid.points)
    density = make_density(scn) if spec.density == "true" else spec.density
    log = logging.getLogger("coarsereg.simulation")
    results = []
    for idx in range(reps):
        sample = generate(scn, np.random.default_rng((master_seed, idx))).training()
        try:
            curve = fit_known(sample, density, grid)
            at, ci = {}, {}
            if points:
                den, num, *var = known._moments_at(density._pdf_into, points, sample.w,
                                                   sample.y, bool(coverage_points))
                at = {p: float(num[i]) / float(den[i]) for i, p in enumerate(points)}
                ci = {p: _interval(float(num[i]), float(den[i]), var[0][i], sample.n, alpha)
                      for i, p in enumerate(points) if p in coverage_points}
        except DegenerateDenominatorError as exc:
            log.warning("replicate %d failed: %s", idx, exc)
            results.append(None)
            continue
        sq = (curve.values - truth) ** 2
        ok = np.isfinite(sq)
        both = ok[:-1] & ok[1:]
        if not both.all():
            log.info("excluded %d undefined subintervals from the squared-error integral",
                     int(np.sum(~both)))
        ise = float(np.sum(0.5 * (sq[:-1][both] + sq[1:][both]) * np.diff(grid.points)[both]))
        results.append({"ise": ise, "values": curve.values, "at": at, "ci": ci})
    ok = [r for r in results if r is not None]
    if not ok:
        raise CoarseRegError("every replicate failed")
    order = np.argsort([r["ise"] for r in ok], kind="stable")
    deciles = {}
    for label, tenth in (("d1", 1), ("d5", 5), ("d9", 9)):
        rank = math.ceil(tenth * len(ok) / 10.0)
        chosen = ok[order[rank - 1]]
        deciles[label] = {"rank": rank, "ise": chosen["ise"],
                          "values": [float(v) for v in chosen["values"]]}
    coverage = {}
    if coverage_points:
        hits = {p: sum(1 for r in ok if r["ci"][p][0] <= truth_at[p] <= r["ci"][p][1])
                for p in coverage_points}
        coverage = {"alpha": alpha, "points": {
            repr(p): {"covered": hits[p], "total": len(ok), "rate": hits[p] / len(ok)}
            for p in coverage_points}}
    rmse = {repr(p): float(np.sqrt(np.mean(np.array([r["at"][p] - truth_at[p] for r in ok])**2)))
            for p in rmse_points}
    return StudyReport(
        scenario=scn.as_dict(), estimator=spec.as_dict(), replications=reps,
        master_seed=master_seed, grid=list(grid.points), failures=reps - len(ok),
        ise=[None if r is None else r["ise"] for r in results], decile_curves=deciles,
        coverage=coverage, rmse=rmse)


@st.composite
def known_studies(draw):
    model = draw(st.sampled_from(["m1", "logistic", "sine2", "sine4", "constant"]))
    override = draw(st.sampled_from(OVERRIDES))
    noise = draw(st.sampled_from([0.01, 0.1, 0.25, 1.0] + ([0.0] if override else [])))
    # small samples leave the points of a narrow or uniform density undefined
    n = draw(st.integers(2, 8) | st.integers(2, 300))
    scn = ScenarioConfig(model=model, n=n, predictor_noise=noise,
                         response_noise=None if model in ("logistic", "sine2", "sine4") else 0.1,
                         error_kind=draw(st.sampled_from(["gaussian", "uniform"])),
                         seed=draw(st.integers(0, 2**16)))
    # grids and query points reach past the support, where the estimate
    # (for a uniform or narrow density and a small sample) and the truth fail
    lo = draw(st.floats(-1.0, 0.5))
    grid = EvalGrid(np.linspace(lo, lo + draw(st.floats(0.05, 2.5)), draw(st.integers(2, 41))))
    spots = st.sampled_from([-0.1, 0.0, 0.25, 0.5, 0.9, 1.05])
    coverage_points = tuple(draw(st.lists(spots, max_size=3)))
    rmse_points = tuple(draw(st.lists(spots, max_size=2)))
    # from blocks of a few sample rows to whole chunks in one block
    budget = 8 * scn.n * draw(st.integers(1, 3) | st.integers(1, 300))
    spec = EstimatorSpec() if override is None else EstimatorSpec(density=override)
    return dict(scn=scn, spec=spec, reps=draw(st.integers(1, 12)), grid=grid,
                master_seed=draw(st.integers(0, 2**16)), coverage_points=coverage_points,
                alpha=draw(st.sampled_from([0.05, 0.5, 1.0])), rmse_points=rmse_points,
                budget=budget)


@pytest.mark.thorough
@settings(deadline=None)
@given(known_studies())
def test_stacked_study_matches_replicate_by_replicate(case):
    # the report, or the error, and the log, byte for byte, whatever the
    # chunking
    case = dict(case)
    budget, scn, spec = case.pop("budget"), case.pop("scn"), case.pop("spec")
    with mock.patch.object(known, "_BLOCK_BYTES", budget):
        stacked = logged(lambda: run_replications(
            scn, spec, case["reps"], case["grid"], case["master_seed"],
            coverage_points=case["coverage_points"], alpha=case["alpha"],
            rmse_points=case["rmse_points"]))
    assert stacked == logged(lambda: replicate_by_replicate(scn, spec, **case))
