import json
import math

import numpy as np
import pytest

from coarsereg import (
    DegenerateDenominatorError,
    ErrorDensity,
    EstimatorSpec,
    EvalGrid,
    RegressionCurve,
    ScenarioConfig,
    calibrate,
    default_grid,
    generate,
    integrated_squared_error,
    make_density,
    regression_bound,
    regression_function,
    run_replications,
    true_regression,
)

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

    def test_nw_spec(self):
        rep = run_replications(LOGISTIC, EstimatorSpec(method="nw"), reps=3,
                               grid=EvalGrid([-0.2, 0.0, 0.2]), master_seed=6,
                               rmse_points=(0.0,))
        assert rep.estimator == {"method": "nw", "bandwidth": "cv"}

    def test_coverage_rejected_for_nw(self):
        with pytest.raises(ValueError, match="coverage"):
            run_replications(LOGISTIC, EstimatorSpec(method="nw"), reps=2,
                             coverage_points=(0.0,))

    def test_report_roundtrips_as_json(self):
        rep = run_replications(LOGISTIC, EstimatorSpec(), reps=4,
                               grid=EvalGrid([-0.2, 0.0, 0.2]), master_seed=7)
        parsed = json.loads(rep.to_json())
        assert parsed["replications"] == 4
        assert len(parsed["ise"]) == 4

    def test_byte_determinism_across_runs_and_threads(self):
        kwargs = dict(reps=24, grid=EvalGrid([-0.2, 0.0, 0.2]), master_seed=8,
                      coverage_points=(0.0,), rmse_points=(0.0,))
        a = run_replications(LOGISTIC, EstimatorSpec(), threads=1, **kwargs)
        b = run_replications(LOGISTIC, EstimatorSpec(), threads=3, **kwargs)
        c = run_replications(LOGISTIC, EstimatorSpec(), threads=1, **kwargs)
        assert a.to_json() == b.to_json() == c.to_json()

    def test_nw_byte_determinism_across_threads(self):
        scn = ScenarioConfig(model="m1", n=250, predictor_noise=0.25, response_noise=0.1,
                             seed=9)
        kwargs = dict(reps=4, master_seed=9, rmse_points=(0.5,))
        a = run_replications(scn, EstimatorSpec(method="nw"), threads=1, **kwargs)
        b = run_replications(scn, EstimatorSpec(method="nw"), threads=2, **kwargs)
        assert a.failures == 0
        assert a.to_json() == b.to_json()
