import math

import numpy as np
import pytest

from coarsereg import (
    CoarseRegError,
    DegenerateDenominatorError,
    ErrorDensity,
    EvalGrid,
    TrainingSample,
    covariance_matrix,
    pointwise_band,
    pointwise_ci,
    product_moments,
    regression_at,
    simultaneous_band,
    variance_at,
)

GAUSS = ErrorDensity.gaussian(1.0)
SQRT_2PI = math.sqrt(2 * math.pi)


def plugin_covariance_reference(w, y, x1, x2, pdf):
    """Independent plain-Python evaluation of the plug-in covariance."""
    n = len(w)
    k1 = [pdf(x1 - wi) for wi in w]
    k2 = [pdf(x2 - wi) for wi in w]
    den1 = sum(k1) / n
    den2 = sum(k2) / n
    num1 = sum(yi * k for yi, k in zip(y, k1)) / n
    num2 = sum(yi * k for yi, k in zip(y, k2)) / n
    plain = sum(a * b for a, b in zip(k1, k2)) / n
    resp = sum(yi * a * b for yi, a, b in zip(y, k1, k2)) / n
    resp_sq = sum(yi**2 * a * b for yi, a, b in zip(y, k1, k2)) / n
    return (
        resp_sq / (den1 * den2)
        + plain * num1 * num2 / (den1 * den2) ** 2
        - resp * (num1 * den2 + num2 * den1) / (den1 * den2) ** 2
    )


class TestProductMoments:
    def test_zero_responses(self):
        s = TrainingSample([0.0, 1.0], [0.0, 0.0])
        m = product_moments(s, GAUSS, 0.2, 0.4)
        assert m.response == 0.0 and m.response_sq == 0.0
        assert m.plain > 0.0

    def test_single_point_values(self):
        s = TrainingSample([0.0], [2.0])
        m = product_moments(s, GAUSS, 0.0, 0.0)
        assert m.plain == pytest.approx(1 / (2 * math.pi), abs=1e-12)
        assert m.response == pytest.approx(2 / (2 * math.pi), abs=1e-12)
        assert m.response_sq == pytest.approx(4 / (2 * math.pi), abs=1e-12)

    def test_uniform_far_point_all_zero(self):
        s = TrainingSample([0.0, 0.5], [1.0, 2.0])
        m = product_moments(s, ErrorDensity.uniform(0.25), 5.0, 0.1)
        assert m.plain == m.response == m.response_sq == 0.0


class TestVariance:
    def test_constant_responses_cancel(self):
        s = TrainingSample([0.0, 0.3, 1.1], [4.0, 4.0, 4.0])
        assert variance_at(s, GAUSS, 0.5) == 0.0

    def test_single_point_zero(self):
        s = TrainingSample([0.2], [3.0])
        assert variance_at(s, GAUSS, 0.2) == 0.0

    def test_hand_value(self):
        # equal weights at x = 0.5 give 2 + 1 - 2 = 1
        s = TrainingSample([0.0, 1.0], [0.0, 2.0])
        assert variance_at(s, GAUSS, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_scale_law(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=30)
        y = rng.normal(size=30)
        v = variance_at(TrainingSample(w, y), GAUSS, 0.3)
        v_scaled = variance_at(TrainingSample(w, -3.0 * y + 2.0), GAUSS, 0.3)
        assert v_scaled == pytest.approx(9.0 * v, rel=1e-10)

    def test_degenerate_raises(self):
        s = TrainingSample([0.0], [1.0])
        with pytest.raises(DegenerateDenominatorError):
            variance_at(s, ErrorDensity.uniform(0.5), 3.0)


class TestCovariance:
    def test_constant_responses_zero_matrix(self):
        s = TrainingSample([0.0, 0.5, 1.0], [2.0, 2.0, 2.0])
        cov = covariance_matrix(s, GAUSS, EvalGrid([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(cov.entries, 0.0, atol=1e-10)

    def test_diagonal_matches_variance(self):
        rng = np.random.default_rng(9)
        s = TrainingSample(rng.normal(size=25), rng.normal(size=25))
        grid = EvalGrid(np.linspace(-1, 1, 7))
        cov = covariance_matrix(s, GAUSS, grid)
        for j, x in enumerate(grid.points):
            assert cov.entries[j, j] == pytest.approx(
                variance_at(s, GAUSS, float(x)), abs=1e-12
            )

    def test_two_point_grid_against_reference(self):
        s = TrainingSample([0.0, 1.0], [0.0, 2.0])
        grid = EvalGrid([0.5, 1.0])
        cov = covariance_matrix(s, GAUSS, grid)
        assert cov.entries[0, 0] == pytest.approx(1.0, abs=1e-12)
        expected = plugin_covariance_reference(
            list(s.w), list(s.y), 0.5, 1.0, lambda u: math.exp(-0.5 * u * u) / SQRT_2PI
        )
        assert cov.entries[0, 1] == pytest.approx(expected, abs=1e-12)
        assert cov.entries[1, 0] == cov.entries[0, 1]

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        s = TrainingSample(rng.normal(size=40), rng.normal(size=40))
        cov = covariance_matrix(s, GAUSS, EvalGrid(np.linspace(-1, 1, 9))).entries
        np.testing.assert_allclose(cov, cov.T, atol=0)

    def test_studentized_unit_diagonal(self):
        rng = np.random.default_rng(17)
        s = TrainingSample(rng.normal(size=40), rng.normal(size=40))
        cov = covariance_matrix(s, GAUSS, EvalGrid(np.linspace(-1, 1, 9))).entries
        d = np.sqrt(np.diag(cov))
        stud = cov / np.outer(d, d)
        np.testing.assert_allclose(np.diag(stud), 1.0, atol=1e-9)

    def test_nearby_points_correlated(self):
        rng = np.random.default_rng(19)
        s = TrainingSample(rng.normal(size=60), rng.normal(size=60))
        cov = covariance_matrix(s, GAUSS, EvalGrid([0.0, 0.1])).entries
        assert abs(cov[0, 1]) > 0.0

    def test_degenerate_names_grid_point(self):
        s = TrainingSample([0.0], [1.0])
        with pytest.raises(DegenerateDenominatorError, match="x=3"):
            covariance_matrix(s, ErrorDensity.uniform(0.5), EvalGrid([0.0, 3.0]))


class TestPointwiseCI:
    def test_constant_responses_zero_width(self):
        s = TrainingSample([0.0, 1.0], [4.0, 4.0])
        lo, hi = pointwise_ci(s, GAUSS, 0.5, 0.05)
        assert lo == hi == pytest.approx(4.0, abs=1e-12)

    def test_alpha_one_zero_width(self):
        s = TrainingSample([0.0, 1.0], [0.0, 2.0])
        lo, hi = pointwise_ci(s, GAUSS, 0.5, 1.0)
        assert lo == hi == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # n = 2, variance 1, estimate 1 at x = 0.5:
        # 1 +- (1/sqrt(2)) * 1.959964
        s = TrainingSample([0.0, 1.0], [0.0, 2.0])
        lo, hi = pointwise_ci(s, GAUSS, 0.5, 0.05)
        assert lo == pytest.approx(-0.3858, abs=2e-4)
        assert hi == pytest.approx(2.3858, abs=2e-4)

    def test_alpha_validation(self):
        s = TrainingSample([0.0, 1.0], [0.0, 2.0])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                pointwise_ci(s, GAUSS, 0.5, bad)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="n >= 2"):
            pointwise_ci(TrainingSample([0.0], [1.0]), GAUSS, 0.0, 0.05)


def pointwise_loop(sample, err, grid, alpha):
    """The per-point interval loop that pointwise_band replaces."""
    cols = np.full((4, len(grid)), np.nan)
    for i, x in enumerate(grid.points):
        try:
            cols[0, i] = regression_at(sample, err, float(x))
            cols[1, i] = variance_at(sample, err, float(x))
            cols[2:, i] = pointwise_ci(sample, err, float(x), alpha)
        except CoarseRegError:
            continue
    return cols


class TestPointwiseBand:
    @pytest.mark.parametrize("err", [GAUSS, ErrorDensity.laplace(0.1),
                                     ErrorDensity.gaussian(0.1), ErrorDensity.uniform(0.3)])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    def test_matches_per_point_loop(self, err, alpha):
        rng = np.random.default_rng(37)
        w = rng.uniform(0, 1, 400)
        s = TrainingSample(w, np.sin(2 * np.pi * w) + rng.normal(0, 0.3, 400))
        # the grid runs past the data, so the outer points are undefined
        # (except under the unit Gaussian, whose tails reach the whole grid)
        grid = EvalGrid(np.linspace(-4.0, 5.0, 181))
        band = pointwise_band(s, err, grid, alpha)
        want = pointwise_loop(s, err, grid, alpha)
        got = np.vstack([band.values, band.variance, band.band_lower, band.band_upper])
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if err is not GAUSS:
            assert 0 < np.sum(np.isnan(band.values)) < len(grid)
        assert band.meta == {"estimator": "known-error ratio", "alpha": alpha,
                             "kind": "pointwise"}

    def test_constant_responses_zero_width(self):
        s = TrainingSample([0.0, 0.5, 1.0, 1.5], [2.0] * 4)
        band = pointwise_band(s, GAUSS, EvalGrid([0.0, 1.0, 2.0]), 0.05)
        assert np.all(band.variance >= 0)
        np.testing.assert_allclose(band.band_lower, 2.0, atol=1e-7)
        np.testing.assert_allclose(band.band_upper, 2.0, atol=1e-7)

    def test_undefined_everywhere(self):
        s = TrainingSample([0.0, 0.1], [1.0, 2.0])
        with pytest.raises(DegenerateDenominatorError, match="undefined on the whole grid"):
            pointwise_band(s, ErrorDensity.uniform(0.5), EvalGrid([5.0, 6.0]), 0.05)

    def test_validation(self):
        s = TrainingSample([0.0, 0.5], [1.0, 2.0])
        grid = EvalGrid([0.0, 0.5])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                pointwise_band(s, GAUSS, grid, bad)
        with pytest.raises(ValueError, match="n >= 2"):
            pointwise_band(TrainingSample([0.0], [1.0]), GAUSS, grid, 0.05)

    def test_significantly_negative_variance_raises(self):
        # huge constant responses: the variance is a difference of terms near
        # 1e20 whose roundoff leaves values far below -NEGATIVE_VARIANCE_TOL
        rng = np.random.default_rng(0)
        s = TrainingSample(rng.uniform(0, 1, 50), np.full(50, 1e10))
        err = ErrorDensity.gaussian(0.3)
        grid = EvalGrid(np.linspace(0, 1, 41))
        with pytest.raises(ValueError, match="significantly negative"):
            pointwise_loop(s, err, grid, 0.05)
        with pytest.raises(ValueError, match="significantly negative"):
            pointwise_band(s, err, grid, 0.05)


class TestSimultaneousBand:
    def test_constant_responses_zero_width(self):
        s = TrainingSample([0.0, 0.5, 1.0], [2.0, 2.0, 2.0])
        band = simultaneous_band(s, GAUSS, EvalGrid([0.0, 0.5, 1.0]), seed=1)
        assert band.meta["degenerate_covariance"]
        np.testing.assert_allclose(band.band_lower, 2.0, atol=1e-12)
        np.testing.assert_allclose(band.band_upper, 2.0, atol=1e-12)

    def test_single_point_grid_matches_normal_quantile(self):
        # on one effective coordinate the sup quantile is the two-sided
        # normal quantile up to Monte-Carlo error
        rng = np.random.default_rng(23)
        s = TrainingSample(rng.normal(size=50), rng.normal(size=50))
        grid = EvalGrid([0.0, 1e3])  # second point carries ~zero mass/variance
        with pytest.raises(DegenerateDenominatorError):
            simultaneous_band(s, GAUSS, grid, alpha=0.05, n_sim=10)
        # proper check on a 2-point grid at the same location duplicated closely
        grid = EvalGrid([0.0, 1e-9])
        band = simultaneous_band(s, GAUSS, grid, alpha=0.05, n_sim=100_000, seed=3)
        assert abs(band.meta["sup_quantile"] - 1.959964) <= 0.05

    def test_band_contains_pointwise_ci(self):
        rng = np.random.default_rng(29)
        s = TrainingSample(rng.normal(size=40), rng.normal(size=40))
        grid = EvalGrid(np.linspace(-1, 1, 11))
        band = simultaneous_band(s, GAUSS, grid, alpha=0.05, n_sim=20_000, seed=4)
        for j, x in enumerate(grid.points):
            lo, hi = pointwise_ci(s, GAUSS, float(x), 0.05)
            assert band.band_lower[j] <= lo + 1e-9
            assert band.band_upper[j] >= hi - 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(31)
        s = TrainingSample(rng.normal(size=30), rng.normal(size=30))
        grid = EvalGrid(np.linspace(-1, 1, 5))
        b1 = simultaneous_band(s, GAUSS, grid, n_sim=2000, seed=42)
        b2 = simultaneous_band(s, GAUSS, grid, n_sim=2000, seed=42)
        np.testing.assert_array_equal(b1.band_lower, b2.band_lower)
