import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsereg import (
    DegenerateDesignError,
    ErrorDensity,
    EvalGrid,
    TrainingSample,
    error_variance,
    fit_fourier_proxy,
    fit_known,
    fit_known_proxy,
    fit_linear_proxy,
    impute_predictors,
)


class TestFitLinearProxy:
    def test_collinear_pairs(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        fit = fit_linear_proxy(t, 2.0 * t + 1.0)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-24)

    def test_hand_normal_equations(self):
        fit = fit_linear_proxy([0.0, 1.0, 2.0], [1.0, 3.0, 4.0])
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.intercept == pytest.approx(7.0 / 6.0, abs=1e-12)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(41)
        t = rng.uniform(0, 5, 200)
        x = 0.7 + 1.3 * t + rng.normal(0, 0.4, 200)
        fit = fit_linear_proxy(t, x)
        resid = x - fit.intercept - fit.slope * t
        scale = max(1.0, float(np.mean(np.abs(x))))
        assert abs(resid.sum()) <= 1e-9 * scale * len(t)
        assert abs((t * resid).sum()) <= 1e-9 * scale * len(t)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesignError):
            fit_linear_proxy([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("unit", [lambda t: t * 1e-7, lambda t: t + 1e8], ids=["1e-7", "1e8"])
    def test_units_do_not_decide(self, unit):
        rng = np.random.default_rng(42)
        t = rng.uniform(0.0, 1.0, 100)
        x = 0.5 + 0.8 * t + rng.normal(0.0, 0.1, 100)
        assert len(np.unique(unit(t))) == 100
        fit_linear_proxy(unit(t), x)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            fit_linear_proxy([1.0], [2.0])

    def test_two_pairs_zero_residual_variance(self):
        fit = fit_linear_proxy([0.0, 1.0], [3.0, 5.0])
        assert fit.residual_variance == 0.0

    def test_slope_consistency(self):
        # |slope - truth| stays within 5 sd bounds for most seeds
        sigma, hits = 0.5, 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            t = rng.uniform(0, 1, 10_000)
            x = 1.0 + 2.0 * t + rng.normal(0, sigma, 10_000)
            fit = fit_linear_proxy(t, x)
            bound = 5.0 * sigma / np.sqrt(10_000 * np.var(t))
            hits += abs(fit.slope - 2.0) < bound
        assert hits == 20


@st.composite
def affine_designs(draw):
    """A design of 3-100 spread points, responses near a line through it,
    and a map t -> a + b t with |b| from 1e-100 to 1e100 and |a| up to 1e8
    times the spread of b t."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(3, 100))
    t = np.linspace(0.0, 1.0, r) + rng.uniform(-0.25, 0.25, r) / r
    x = 0.5 + 0.8 * t + rng.normal(0.0, 0.1, r)
    b = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-100.0, 100.0))
    a = draw(st.one_of(st.just(0.0), st.floats(-1e8, 1e8))) * abs(b) * np.ptp(t)
    return t, x, a, b


@pytest.mark.thorough
class TestUnitFreeDesign:
    @settings(deadline=None)
    @given(case=affine_designs())
    def test_affine_map_keeps_the_decision_and_the_slope(self, case):
        t, x, a, b = case
        r = len(t)
        base = fit_linear_proxy(t, x)
        mapped = fit_linear_proxy(a + b * t, x)
        # a + b t carries roundings of u (|a| + |b t|) each, and the centred
        # values the mean's r u max|a + b t|; relative to the spread |b| ptp(t)
        # that moves the slope by a factor below 64 r u (1 + |a| / (|b| ptp t))
        rel = 64 * r * 2.0**-53 * (1.0 + abs(a) / (abs(b) * np.ptp(t)))
        assert mapped.slope * b == pytest.approx(base.slope, rel=rel)
        with pytest.raises(DegenerateDesignError, match=r"^all t values are \(numerically\) equal$"):
            fit_linear_proxy(np.full(r, a + b * t[r // 2]), x)


class TestImpute:
    def test_identity(self):
        fit = fit_linear_proxy([0.0, 1.0], [0.0, 1.0])
        np.testing.assert_allclose(
            impute_predictors(fit, [0.3, 0.9]), [0.3, 0.9], atol=1e-14
        )

    def test_affine(self):
        fit = fit_linear_proxy([0.0, 1.0], [1.0, 3.0])
        np.testing.assert_allclose(impute_predictors(fit, [0.0, 1.0]), [1.0, 3.0])

    def test_round_trip_collinear(self):
        t = np.array([0.0, 0.5, 1.0, 2.0])
        x = 4.0 - 0.5 * t
        fit = fit_linear_proxy(t, x)
        np.testing.assert_allclose(impute_predictors(fit, t), x, atol=1e-12)


class TestErrorVariance:
    def test_on_the_line_is_zero(self):
        fit = fit_linear_proxy([0.0, 1.0], [1.0, 3.0])
        t = np.array([0.2, 0.4, 0.9])
        assert error_variance(fit, t, 1.0 + 2.0 * t) == pytest.approx(0.0, abs=1e-24)

    def test_hand_value(self):
        # residuals -1 and +1: unbiased sample variance 2
        fit = fit_linear_proxy([0.0, 1.0], [0.0, 0.0])
        assert error_variance(fit, [0.0, 1.0], [-1.0, 1.0]) == pytest.approx(2.0)

    def test_single_pair_rejected(self):
        fit = fit_linear_proxy([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            error_variance(fit, [0.5], [0.1])


class TestComposition:
    def test_known_proxy_equals_direct_fit_on_imputed(self):
        rng = np.random.default_rng(43)
        t = rng.uniform(0, 1, 80)
        y = np.cos(3 * t) + rng.normal(0, 0.1, 80)
        fit = fit_linear_proxy([0.0, 1.0], [1.0, 3.0])
        err = ErrorDensity.gaussian(0.3)
        grid = EvalGrid(np.linspace(1.0, 3.0, 21))
        via_proxy = fit_known_proxy(fit, t, y, err, grid)
        direct = fit_known(TrainingSample(1.0 + 2.0 * t, y), err, grid)
        np.testing.assert_array_equal(via_proxy.values, direct.values)
        assert via_proxy.meta["proxy"]["slope"] == 2.0

    def test_fourier_proxy_smoke(self):
        from coarsereg import FourierConfig

        rng = np.random.default_rng(44)
        t = rng.uniform(0, 1, 50)
        y = t + rng.normal(0, 0.1, 50)
        fit = fit_linear_proxy([0.0, 1.0], [0.0, 1.0])
        grid = EvalGrid(np.linspace(0.2, 0.8, 7))
        curve = fit_fourier_proxy(
            fit, t, y, ErrorDensity.laplace(0.2), FourierConfig(cutoff=40.0), grid
        )
        assert curve.defined.all()
        assert "proxy" in curve.meta

    def test_imputed_fit_approaches_true_predictor_fit(self):
        # trend check: more calibration pairs bring the imputed-curve fit
        # closer to the true-predictor fit on one fixed evaluation dataset
        theta = (1.0, 2.0)
        rng_eval = np.random.default_rng(123)
        t_eval = rng_eval.uniform(0, 1, 200)
        y_eval = np.sin(2 * np.pi * t_eval) + rng_eval.normal(0, 0.1, 200)
        err = ErrorDensity.gaussian(0.3)
        grid = EvalGrid(np.linspace(1.2, 2.8, 81))
        base = fit_known(TrainingSample(theta[0] + theta[1] * t_eval, y_eval), err, grid)
        diffs = []
        for r in (100, 1000, 10_000):
            rng = np.random.default_rng((0, r))
            t_fit = rng.uniform(0, 1, r)
            x_fit = theta[0] + theta[1] * t_fit + rng.normal(0, 0.2, r)
            fit = fit_linear_proxy(t_fit, x_fit)
            curve = fit_known_proxy(fit, t_eval, y_eval, err, grid)
            diffs.append(float(np.nanmax(np.abs(curve.values - base.values))))
        assert diffs[0] > diffs[1] > diffs[2]
