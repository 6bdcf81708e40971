import math
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from coarsereg import (
    CoarseRegError,
    CovarianceMatrix,
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
from coarsereg import inference, known
from coarsereg.cli import main
from coarsereg.inference import _ndtri

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


class TestNdtri:
    """The Cephes port gives scipy.special.ndtri's bits."""

    @staticmethod
    def assert_same(p):
        got, want = _ndtri(p), float(ndtri(p))
        assert got == want or (math.isnan(got) and math.isnan(want)), (p, got, want)

    @pytest.mark.thorough
    @given(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 0.2).map(lambda d: 1.0 - d)))
    def test_matches_scipy_bit_for_bit(self, p):
        self.assert_same(p)

    # the ends, the centre, both sides of the three branch points, the
    # smallest subnormal, the largest double below 1 and the goldens' alphas
    @pytest.mark.parametrize("p", [
        0.0, 1.0, 0.5, math.exp(-2), 1 - math.exp(-2), math.exp(-32), 1 - math.exp(-32),
        5e-324, 1 - 2**-53, *(1 - a / 2 for a in (0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0)),
    ])
    def test_probes(self, p):
        self.assert_same(p)

    def test_ends_and_quantile_of_the_goldens(self):
        assert _ndtri(0.0) == -math.inf and _ndtri(1.0) == math.inf and _ndtri(0.5) == 0.0
        # _interval's z at alpha = 0.05
        assert _ndtri(1.0 - 0.05 / 2.0) == _ndtri(0.975) == 1.959963984540054

    @pytest.mark.parametrize("p", [-5e-324, -1.0, 1 + 2**-52, 2.0, math.inf, -math.inf,
                                   math.nan])
    def test_out_of_range_is_nan(self, p):
        assert math.isnan(_ndtri(p))
        self.assert_same(p)


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


def tiny_responses():
    """Responses of order 1e-162, whose plug-in variance is 0 or 5e-324 at
    the grid points, so var / n underflows to 0 where var is positive."""
    rng = np.random.default_rng(0)
    w = rng.uniform(0.0, 1.0, 200)
    s = TrainingSample(w, rng.standard_normal(200) * 1e-162)
    return s, ErrorDensity.gaussian(0.1), EvalGrid.linspace(0.2, 0.8, 5)


def ordinary_responses():
    rng = np.random.default_rng(67)
    w = rng.uniform(0.0, 1.0, 300)
    s = TrainingSample(w, np.sin(3.0 * w) + rng.normal(0.0, 0.3, 300))
    return s, ErrorDensity.laplace(0.1), EvalGrid.linspace(0.1, 0.9, 17)


class TestCovariance:
    @pytest.mark.parametrize("case", [ordinary_responses, tiny_responses])
    def test_is_the_matrix_the_band_decomposes(self, case):
        # one zero rule: the rows and columns where the band's variance is
        # 0, so the two agree where var underflows too
        s, err, grid = case()
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            simultaneous_band(s, err, grid, n_sim=200, seed=1)
        (decomposed,), _ = eigh.call_args
        assert np.array_equal(covariance_matrix(s, err, grid).entries, decomposed)

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

    def test_checks_hold_without_tolerance(self):
        # covariance_matrix's B B^T / n is exactly symmetric with a
        # nonnegative diagonal at any scale, so a roundoff-sized defect
        # is refused rather than forgiven or clamped
        grid = EvalGrid([0.0, 1.0])
        with pytest.raises(ValueError, match="not symmetric"):
            CovarianceMatrix(grid=grid, entries=[[1e-20, 0.0], [1e-30, 1e-20]])
        with pytest.raises(ValueError, match="negative"):
            CovarianceMatrix(grid=grid, entries=np.diag([1.0, -1e-30]))
        ok = CovarianceMatrix(grid=grid, entries=np.diag([1e-30, 0.0]))
        np.testing.assert_array_equal(ok.entries, np.diag([1e-30, 0.0]))

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

    def test_custom_pdf_arrays_are_not_written(self):
        # a custom pdf may hand out its own arrays, here cached ones; writing
        # the centered factor into them made the second call's den about 0
        cache = {}

        def cached_laplace(u):
            u = np.asarray(u, dtype=float)
            key = (u.shape, u.tobytes())
            if key not in cache:
                cache[key] = np.exp(-np.abs(u) / 0.1) / 0.2
            return cache[key]

        err = ErrorDensity.custom(cached_laplace, scale=0.1)
        rng = np.random.default_rng(61)
        w = rng.uniform(0.0, 1.0, 200)
        s = TrainingSample(w, np.sin(3.0 * w) + rng.normal(0.0, 0.3, 200))
        grid = EvalGrid.linspace(0.1, 0.9, 9)
        first = covariance_matrix(s, err, grid).entries
        np.testing.assert_array_equal(covariance_matrix(s, err, grid).entries, first)
        band = simultaneous_band(s, err, grid, n_sim=200, seed=1)
        again = simultaneous_band(s, err, grid, n_sim=200, seed=1)
        assert band.band_lower.tobytes() == again.band_lower.tobytes()

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


def product_moments_ci(sample, err, x, alpha):
    """Interval and variance from the ratio averages and product_moments,
    each on its own kernel evaluation: the plug-in variance as a difference
    of three uncentered terms."""
    k = err.pdf(x - sample.w)
    den, num = float(np.mean(k)), float(np.mean(sample.y * k))
    m = product_moments(sample, err, x, x)
    v = m.response_sq / den**2 + num**2 * m.plain / den**4 - 2.0 * num * m.response / den**3
    if v < 0:
        v = 0.0
    half = ndtri(1.0 - alpha / 2.0) * np.sqrt(v) / np.sqrt(sample.n)
    return num / den - half, num / den + half, v


def uncentered_terms(k, y, den):
    """mean(k^2 (|y| + ybar)^2) / den^2 over the last axis of the kernel
    rows ``k``, with ybar = mean(k |y|) / den.

    It bounds the magnitudes of the terms of the plug-in variance of
    responses ``y``: each of resp_sq/den^2, num^2 plain/den^4 and
    2 num resp/den^3, and each centered square k^2 (y - m)^2 / den^2. Both
    forms of the variance therefore round to within gamma_{n+c} (c a few
    roundings) times it; 4 (n + 8) eps times it bounds two such errors.
    """
    ybar = np.mean(k * np.abs(y), axis=-1) / den
    return np.mean((k * (np.abs(y) + ybar[..., None])) ** 2, axis=-1) / den**2


def roundoff(n, scale):
    """4 (n + 8) eps times ``scale``: two gamma_{n+c} summation errors."""
    return 4 * (n + 8) * np.finfo(float).eps * scale


def _triangular(u):
    return np.maximum(1.0 - np.abs(np.asarray(u, dtype=float)), 0.0)


class TestPointwiseOneKernel:
    @pytest.mark.parametrize("err", [ErrorDensity.gaussian(0.2), ErrorDensity.laplace(0.1),
                                     ErrorDensity.uniform(0.3),
                                     ErrorDensity.custom(_triangular, scale=0.5)])
    def test_within_roundoff_of_product_moments(self, err):
        # the centered variance against the difference of uncentered terms,
        # to the roundoff of both: eps-multiples of the terms' magnitudes
        rng = np.random.default_rng(43)
        for n in (2, 37, 400):
            w = rng.uniform(0, 1, n)
            s = TrainingSample(w, np.cos(3 * w) + rng.normal(0, 0.5, n))
            for x in rng.uniform(0.1, 0.9, 9):
                lo, hi, v = product_moments_ci(s, err, float(x), 0.05)
                try:
                    got_lo, got_hi = pointwise_ci(s, err, float(x), 0.05)
                    got_v = variance_at(s, err, float(x))
                except DegenerateDenominatorError:
                    assert np.mean(err.pdf(float(x) - s.w)) < 1e-12
                    continue
                k = err.pdf(float(x) - s.w)
                den = np.mean(k)
                tol = roundoff(n, uncentered_terms(k, s.y, den)
                               + uncentered_terms(k, s.y - np.median(s.y), den))
                assert abs(got_v - v) <= tol
                # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), and each endpoint
                # rounds once more
                half_tol = ndtri(0.975) * np.sqrt(tol / n)
                assert abs(got_lo - lo) <= half_tol + np.spacing(abs(lo))
                assert abs(got_hi - hi) <= half_tol + np.spacing(abs(hi))


class TestPointMoments:
    @pytest.mark.parametrize("err", [ErrorDensity.gaussian(0.2), ErrorDensity.laplace(0.1),
                                     ErrorDensity.uniform(0.3)])
    def test_rows_give_the_single_point_bits(self, err):
        # one (P, n) kernel gives every point the bits that pointwise_ci,
        # variance_at and regression_at give it alone
        rng = np.random.default_rng(47)
        for n in (25, 37, 400):
            w = rng.uniform(0, 1, n)
            s = TrainingSample(w, np.cos(3 * w) + rng.normal(0, 0.5, n))
            xs = tuple(float(x) for x in np.linspace(0.25, 0.75, 5))
            den, num, var = known._moments_at(err._pdf_into, xs, s.w, s.y, variance=True)
            for i, x in enumerate(xs):
                lo, hi = pointwise_ci(s, err, x, 0.05)
                est = float(num[i]) / float(den[i])
                half = ndtri(0.975) * np.sqrt(max(var[i], 0.0)) / np.sqrt(n)
                assert (est - half, est + half) == (lo, hi)
                assert max(var[i], 0.0) == variance_at(s, err, x)
                assert float(num[i]) / float(den[i]) == regression_at(s, err, x)

    def test_first_degenerate_point_is_named(self):
        s = TrainingSample([0.0, 0.1], [1.0, 2.0])
        with pytest.raises(DegenerateDenominatorError, match="at x=7.0"):
            known._moments_at(ErrorDensity.uniform(0.5)._pdf_into, (0.0, 7.0, 5.0), s.w, s.y)


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

    @pytest.mark.parametrize("level", [1e8, 1e10])
    def test_large_constant_responses_have_zero_variance(self, level, tmp_path):
        # a difference of uncentered terms near level^2 lost every digit
        # here; the centered terms are exactly 0
        rng = np.random.default_rng(0)
        s = TrainingSample(rng.uniform(0, 1, 50), np.full(50, level))
        err = ErrorDensity.gaussian(0.3)
        grid = EvalGrid(np.linspace(0, 1, 41))
        assert variance_at(s, err, 0.5) == 0.0
        np.testing.assert_array_equal(pointwise_band(s, err, grid, 0.05).variance, 0.0)
        train = tmp_path / "train.csv"
        train.write_text("w,y\n" + "".join(f"{float(a)!r},{level!r}\n" for a in s.w))
        assert main(["ci", "--train", str(train), "--delta", "gaussian:0.3",
                     "--grid", "0:1:41", "--out", str(tmp_path / "ci.csv")]) == 0

    def test_variance_survives_a_large_offset(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, 50)
        y = np.sin(2 * np.pi * w) + rng.normal(0, 0.3, 50)
        err = ErrorDensity.gaussian(0.3)
        for x in (0.1, 0.5, 0.9):
            v = variance_at(TrainingSample(w, y), err, x)
            # y + 1e10 keeps y to about 1e-6
            assert variance_at(TrainingSample(w, y + 1e10), err, x) == pytest.approx(v, rel=1e-6)


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

    def test_needs_two_points(self):
        # as pointwise_band: one observation has no sampling variance to
        # estimate, so the band is refused rather than made zero-width,
        # after the alpha and n_sim checks
        one, grid = TrainingSample([0.5], [1.0]), EvalGrid([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="alpha"):
            simultaneous_band(one, GAUSS, grid, alpha=0.0)
        with pytest.raises(ValueError, match="n_sim"):
            simultaneous_band(one, GAUSS, grid, n_sim=0)
        with pytest.raises(ValueError, match="n >= 2"):
            simultaneous_band(one, GAUSS, grid, n_sim=10, seed=1)

    def test_a_standard_error_that_underflows_leaves_the_sup(self):
        # where var > 0 but var / n underflows to 0, the standard error the
        # sup divides by is 0: such a point drops out of the sup, as a
        # zero-variance one does, instead of making q NaN
        s, err, grid = tiny_responses()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            band = simultaneous_band(s, err, grid, n_sim=200)
        assert np.any((band.variance > 0) & (band.variance / s.n == 0))
        assert math.isfinite(band.meta["sup_quantile"])
        assert np.all(np.isfinite(band.band_lower)) and np.all(np.isfinite(band.band_upper))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(31)
        s = TrainingSample(rng.normal(size=30), rng.normal(size=30))
        grid = EvalGrid(np.linspace(-1, 1, 5))
        b1 = simultaneous_band(s, GAUSS, grid, n_sim=2000, seed=42)
        b2 = simultaneous_band(s, GAUSS, grid, n_sim=2000, seed=42)
        np.testing.assert_array_equal(b1.band_lower, b2.band_lower)


class TestBandKernelPasses:
    @pytest.mark.parametrize("block_bytes", [None, 8 * 50])
    def test_band_and_covariance_evaluate_two_kernels(self, monkeypatch, block_bytes):
        # the band's fit and its covariance share one den/num pass; the
        # centered pass is the second
        if block_bytes is not None:
            monkeypatch.setattr(known, "_BLOCK_BYTES", block_bytes)
        cells = []
        pdf_into = ErrorDensity._pdf_into

        def counting(self, u, span):
            cells.append(np.size(u))
            return pdf_into(self, u, span)

        monkeypatch.setattr(ErrorDensity, "_pdf_into", counting)
        rng = np.random.default_rng(53)
        n, g = 120, 17
        w = rng.uniform(0, 1, n)
        s = TrainingSample(w, np.sin(3 * w) + rng.normal(0, 0.3, n))
        grid = EvalGrid(np.linspace(0.1, 0.9, g))
        simultaneous_band(s, ErrorDensity.gaussian(0.2), grid, n_sim=200, seed=1)
        assert sum(cells) == 2 * g * n
        cells.clear()
        covariance_matrix(s, ErrorDensity.gaussian(0.2), grid)
        assert sum(cells) == 2 * g * n


@pytest.fixture
def two_blas_threads():
    """OpenBLAS's (get, set) calls with the count set to 2, restored after."""
    calls = inference._openblas()
    if calls is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, set_ = calls
    before = get()
    set_(2)
    yield get
    set_(before)


def blas_sample():
    rng = np.random.default_rng(59)
    w = rng.uniform(0, 1, 150)
    return (TrainingSample(w, np.sin(3 * w) + rng.normal(0, 0.3, 150)), ErrorDensity.laplace(0.1),
            EvalGrid(np.linspace(0.1, 0.9, 13)))


BLAS_CALLS = {"band": lambda s, e, g: simultaneous_band(s, e, g, n_sim=200, seed=1),
              "covariance": covariance_matrix}


class TestOneBlasThread:
    @pytest.mark.parametrize("call", sorted(BLAS_CALLS))
    def test_runs_on_one_thread_and_restores_the_count(self, monkeypatch, two_blas_threads,
                                                        call):
        inside = []
        centered = inference._centered_covariance

        def spy(*args):
            inside.append(two_blas_threads())
            return centered(*args)

        monkeypatch.setattr(inference, "_centered_covariance", spy)
        BLAS_CALLS[call](*blas_sample())
        assert inside == [1]
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("call", sorted(BLAS_CALLS))
    def test_restores_the_count_when_it_raises(self, monkeypatch, two_blas_threads, call):
        def fail(*args):
            raise RuntimeError("covariance failed")

        monkeypatch.setattr(inference, "_centered_covariance", fail)
        with pytest.raises(RuntimeError, match="covariance failed"):
            BLAS_CALLS[call](*blas_sample())
        assert two_blas_threads() == 2

    def test_overlapping_bands_restore_the_count_once(self, monkeypatch, two_blas_threads):
        # band a enters the pin first and leaves it while band b is inside:
        # b keeps one thread, and b, the last out, restores the count
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        inside = {}
        centered = inference._centered_covariance

        def covariance(*args):
            name = threading.current_thread().name
            if name == "a":
                a_in.set()
                b_in.wait(30)
            else:
                b_in.set()
                a_out.wait(30)
            inside[name] = two_blas_threads()
            return centered(*args)

        monkeypatch.setattr(inference, "_centered_covariance", covariance)
        sample, err, grid = blas_sample()
        bands = {}

        def band(wait=None):
            if wait is not None:
                wait.wait(30)
            name = threading.current_thread().name
            bands[name] = simultaneous_band(sample, err, grid, n_sim=200, seed=1)

        a = threading.Thread(target=band, name="a")
        b = threading.Thread(target=band, name="b", args=(a_in,))
        a.start()
        b.start()
        a.join(60)
        a_out.set()
        b.join(60)
        assert not a.is_alive() and not b.is_alive()
        assert inside == {"a": 1, "b": 1}
        assert two_blas_threads() == 2
        np.testing.assert_array_equal(bands["a"].band_lower, bands["b"].band_lower)


    def test_many_threads_share_one_pin(self, two_blas_threads):
        # more threads than CPUs enter and leave the pin, some nested, with
        # a short switch interval; inside it the count is always 1
        counts = []

        def enter_and_leave():
            for _ in range(200):
                with inference._one_blas_thread():
                    with inference._one_blas_thread():
                        counts.append(two_blas_threads())
                    counts.append(two_blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert counts == [1] * (8 * 200 * 2)
        assert two_blas_threads() == 2


PROPERTY_DENSITIES = [ErrorDensity.gaussian(0.2), ErrorDensity.laplace(0.1),
                      ErrorDensity.uniform(0.3)]


@st.composite
def samples(draw, min_n=2):
    """A seeded sample, a density, and a grid running past the data (so the
    uniform density leaves the outer points undefined)."""
    n = draw(st.integers(min_n, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0, 1, n)
    y = np.cos(3 * w) + rng.normal(0, 0.5, n)
    return w, y, draw(st.sampled_from(PROPERTY_DENSITIES)), EvalGrid.linspace(-0.5, 1.5, 21)


@pytest.mark.thorough
class TestInvariances:
    @settings(deadline=None)
    @given(samples(), st.floats(1e-6, 1e6), st.sampled_from([1.0, -1.0]),
           st.floats(-1e8, 1e8))
    def test_affine_responses(self, case, scale, sign, shift):
        # y -> a y + c maps the curve to a m_hat + c and the variance to
        # a^2 var, up to the rounding of a y + c and the roundoff of each fit
        w, y, err, grid = case
        a, n = sign * scale, len(y)
        y2 = a * y + shift
        band = pointwise_band(TrainingSample(w, y), err, grid)
        moved = pointwise_band(TrainingSample(w, y2), err, grid)
        ok = ~np.isnan(band.values)
        np.testing.assert_array_equal(np.isnan(moved.values), ~ok)
        np.testing.assert_array_equal(np.isnan(moved.variance), ~ok)
        k = err.pdf(grid.points[ok, None] - w[None, :])
        den = np.mean(k, axis=1)
        ybar = np.mean(k * np.abs(y), axis=1) / den
        assert np.all(np.abs(moved.values[ok] - (a * band.values[ok] + shift))
                      <= roundoff(n, abs(a) * ybar + abs(shift)))
        # the variance is a quadratic form q in the responses; rounding
        # a y + c moves them by e, |e| <= 2u (|a y| + |c|), and q(v + e) - q(v)
        # is at most 2 sqrt(q(v) q(e)) + q(e) <= 2 sqrt(q(v) E) + E
        e = np.finfo(float).eps * (np.abs(a * y) + abs(shift))
        big_e = uncentered_terms(k, e, den)
        want = a**2 * band.variance[ok]
        tol = (2 * np.sqrt(want * big_e) + big_e
               + roundoff(n, uncentered_terms(k, y2 - np.median(y2), den)
                          + a**2 * uncentered_terms(k, y - np.median(y), den)))
        assert np.all(np.abs(moved.variance[ok] - want) <= tol)

    @settings(deadline=None)
    @given(samples(), st.integers(0, 2**32 - 1))
    def test_sample_order(self, case, perm_seed):
        w, y, err, grid = case
        p = np.random.default_rng(perm_seed).permutation(len(y))
        band = pointwise_band(TrainingSample(w, y), err, grid)
        shuffled = pointwise_band(TrainingSample(w[p], y[p]), err, grid)
        ok = ~np.isnan(band.values)
        np.testing.assert_array_equal(np.isnan(shuffled.variance), ~ok)
        k = err.pdf(grid.points[ok, None] - w[None, :])
        # the median is order-free; only the order of the sums changes
        tol = roundoff(len(y), uncentered_terms(k, y - np.median(y), np.mean(k, axis=1)))
        assert np.all(np.abs(shuffled.variance[ok] - band.variance[ok]) <= tol)

    @settings(deadline=None)
    @given(samples(min_n=10), st.sampled_from([1e-9, 1e6]))
    def test_band_quantile_has_no_units(self, case, a):
        # a unit change of y scales the covariance by a^2, which neither the
        # studentized sup nor the symmetric root's draws see: the quantile
        # moves by roundoff only. The eigendecomposition of the rescaled
        # covariance agrees to roundoff relative to its largest eigenvalue,
        # so small eigen-components move by more than a few ulp; 1 500
        # random cases stayed under 2.1e-11.
        w, y, err, _ = case
        grid = EvalGrid(np.sort(w)[:: len(w) // 9])  # on samples: the fit is defined
        q = simultaneous_band(TrainingSample(w, y), err, grid, n_sim=20_000, seed=1)
        q_a = simultaneous_band(TrainingSample(w, a * y), err, grid, n_sim=20_000, seed=1)
        assert "degenerate_covariance" not in q_a.meta
        assert q_a.meta["sup_quantile"] == pytest.approx(q.meta["sup_quantile"], rel=1e-9)

    def test_band_draws_do_not_depend_on_eigenvector_signs(self):
        # LAPACK gives one eigenvector of the rescaled covariance here the
        # other sign; draws from V sqrt(L) then were another Monte-Carlo
        # sample, and the quantile moved by 4.7%. The symmetric root
        # V sqrt(L) V^T is the same matrix for either sign.
        rng = np.random.default_rng(382)
        w = rng.uniform(0, 1, 10)
        y = np.cos(3 * w) + rng.normal(0, 0.5, 10)
        err, grid = ErrorDensity.laplace(0.1), EvalGrid(np.sort(w))
        q = simultaneous_band(TrainingSample(w, y), err, grid, n_sim=500, seed=1)
        q_a = simultaneous_band(TrainingSample(w, 1e-9 * y), err, grid, n_sim=500, seed=1)
        assert q_a.meta["sup_quantile"] == pytest.approx(q.meta["sup_quantile"], rel=1e-12)

    def test_single_response_support_leaves_the_band_sup(self):
        # under the uniform density the grid points 0.1 and 0.2 see only the
        # sample at w = 0.263: their variance is exactly 0 and they drop out
        # of the sup at every scale, instead of studentizing roundoff
        # (which gave 4.74 here, and 10.9 for y * 1e-9)
        rng = np.random.default_rng(11031)
        w = rng.uniform(0, 1, 10)
        y = np.cos(3 * w) + rng.normal(0, 0.5, 10)
        err, grid = ErrorDensity.uniform(0.3), EvalGrid.linspace(0.1, 0.9, 9)
        qs = []
        for a in (1.0, 1e-9, 1e6):
            band = simultaneous_band(TrainingSample(w, a * y), err, grid, n_sim=20_000, seed=1)
            np.testing.assert_array_equal(band.variance[:2], 0.0)
            assert np.all(band.variance[2:] > 0)
            qs.append(band.meta["sup_quantile"])
        assert qs == pytest.approx([2.52] * 3, rel=0.05)

    def test_single_response_support_zeroes_every_variance(self):
        # the data of the test above: ci, variance_at and the covariance see
        # the same exact 0 at 0.1 and 0.2, at every scale
        rng = np.random.default_rng(11031)
        w = rng.uniform(0, 1, 10)
        y = np.cos(3 * w) + rng.normal(0, 0.5, 10)
        err, grid = ErrorDensity.uniform(0.3), EvalGrid.linspace(0.1, 0.9, 9)
        for a in (1.0, 1e-9, 1e6):
            s = TrainingSample(w, a * y)
            band = pointwise_band(s, err, grid)
            np.testing.assert_array_equal(band.variance[:2], 0.0)
            assert np.all(band.variance[2:] > 0)
            assert [variance_at(s, err, x) for x in grid.points[:2]] == [0.0, 0.0]
            cov = covariance_matrix(s, err, grid).entries
            np.testing.assert_array_equal(cov[:2], 0.0)
            np.testing.assert_array_equal(cov[:, :2], 0.0)

    def test_large_constant_band_is_degenerate(self):
        rng = np.random.default_rng(3)
        s = TrainingSample(rng.uniform(0, 1, 50), np.full(50, 1e12))
        band = simultaneous_band(s, ErrorDensity.gaussian(0.3), EvalGrid.linspace(0, 1, 11))
        assert band.meta["degenerate_covariance"] and band.meta["sup_quantile"] == 0.0
        np.testing.assert_array_equal(band.variance, 0.0)
        np.testing.assert_array_equal(band.band_upper, band.band_lower)


@pytest.mark.thorough
class TestOneVariance:
    @settings(deadline=None)
    @given(samples())
    def test_band_ci_and_variance_at_share_the_bits(self, case):
        # the simultaneous band, the pointwise band and variance_at
        # studentize each point by one variance, to the last bit, with NaN
        # exactly where the ratio is undefined
        w, y, err, grid = case
        s = TrainingSample(w, y)
        pointwise = pointwise_band(s, err, grid).variance
        alone = []
        for x in grid.points:
            try:
                alone.append(variance_at(s, err, float(x)))
            except DegenerateDenominatorError:
                alone.append(np.nan)
        np.testing.assert_array_equal(pointwise, alone)
        ok = ~np.isnan(pointwise)
        band = simultaneous_band(s, err, EvalGrid(grid.points[ok]), n_sim=10, seed=1)
        np.testing.assert_array_equal(band.variance, pointwise[ok])
        if not ok.all():
            with pytest.raises(DegenerateDenominatorError):
                simultaneous_band(s, err, grid, n_sim=10, seed=1)
