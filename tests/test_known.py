import math
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsereg import known
from coarsereg import (
    DegenerateDenominatorError,
    ErrorDensity,
    EvalGrid,
    ReplicatedSample,
    TrainingSample,
    UnsupportedDerivativeError,
    empirical_cfs,
    error_cf_from_replicates,
    find_extremum,
    find_zeros,
    fit_known,
    predictor_density,
    regression_at,
    regression_derivative_at,
    response_weighted_density,
)

GAUSS = ErrorDensity.gaussian(1.0)
SQRT_2PI = math.sqrt(2 * math.pi)


def std_normal_pdf(u):
    return math.exp(-0.5 * u * u) / SQRT_2PI


def returns_within(seconds, call):
    """``call()``'s result; fails if it has none after ``seconds``, leaving
    the call on a daemon thread."""
    result = []
    worker = threading.Thread(target=lambda: result.append(call()), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert result, f"no result within {seconds} s"
    return result[0]


class TestDensityAverages:
    def test_single_point_at_zero_offset(self):
        s = TrainingSample([0.3], [2.0])
        assert predictor_density(s, GAUSS, 0.3) == pytest.approx(1 / SQRT_2PI, abs=1e-12)
        assert response_weighted_density(s, GAUSS, 0.3) == pytest.approx(
            2 / SQRT_2PI, abs=1e-12
        )

    def test_uniform_window_empty(self):
        s = TrainingSample([0.0, 2.0], [1.0, 1.0])
        assert predictor_density(s, ErrorDensity.uniform(0.5), 1.2) == 0.0

    def test_two_point_value(self):
        s = TrainingSample([0.0, 1.0], [0.0, 2.0])
        # (f(0.5) + f(-0.5)) / 2 with the standard normal pdf
        expected = std_normal_pdf(0.5)
        assert expected == pytest.approx(0.3520653268, abs=1e-9)
        assert predictor_density(s, GAUSS, 0.5) == pytest.approx(expected, abs=1e-12)
        # numerator: (0 * f(0.5) + 2 * f(-0.5)) / 2
        assert response_weighted_density(s, GAUSS, 0.5) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("average", [predictor_density, response_weighted_density])
    def test_empty_points_give_an_empty_array(self, average):
        # a pass over no rows used to join no blocks and raise IndexError
        s = TrainingSample([0.0, 1.0], [1.0, 2.0])
        for err in (GAUSS, ErrorDensity.laplace(0.5), ErrorDensity.uniform(0.5)):
            out = average(s, err, [])
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("cfs", [
        lambda t: empirical_cfs(TrainingSample([0.0, 1.0], [1.0, 2.0]), t),
        lambda t: error_cf_from_replicates(ReplicatedSample([[0.0, 0.1], [1.0, 0.8]]), t),
    ], ids=["empirical", "replicates"])
    def test_an_empty_frequency_grid_meets_the_cf_tables_rule(self, cfs):
        # a complex pass over no frequencies joined no blocks into (), which
        # the CF's mean then indexed: IndexError
        with pytest.raises(ValueError, match="grid must have odd length >= 3"):
            cfs([])

    def test_zero_responses(self):
        s = TrainingSample([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        for x in (-1.0, 0.5, 3.0):
            assert response_weighted_density(s, GAUSS, x) == 0.0


class TestRegressionAt:
    def test_single_point_is_constant(self):
        s = TrainingSample([0.7], [3.25])
        for x in (-2.0, 0.0, 5.0):
            assert regression_at(s, GAUSS, x) == pytest.approx(3.25, abs=1e-12)

    def test_symmetric_weights_average(self):
        s = TrainingSample([0.0, 1.0], [0.0, 2.0])
        assert regression_at(s, GAUSS, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_derived_two_point_value(self):
        s = TrainingSample([0.0, 1.0], [0.0, 1.0])
        expected = std_normal_pdf(0.0) / (std_normal_pdf(1.0) + std_normal_pdf(0.0))
        assert expected == pytest.approx(0.6224593312, abs=1e-9)
        assert regression_at(s, GAUSS, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_uniform_single_window(self):
        s = TrainingSample([0.0, 2.0], [5.0, 7.0])
        assert regression_at(s, ErrorDensity.uniform(0.5), 0.25) == pytest.approx(5.0)

    def test_degenerate_raises(self):
        s = TrainingSample([0.0, 2.0], [5.0, 7.0])
        with pytest.raises(DegenerateDenominatorError):
            regression_at(s, ErrorDensity.uniform(0.5), 1.2)


class TestFitKnown:
    def test_undefined_points_flagged(self):
        s = TrainingSample([0.0, 2.0], [5.0, 7.0])
        grid = EvalGrid([0.0, 1.0, 2.0])
        curve = fit_known(s, ErrorDensity.uniform(0.5), grid)
        np.testing.assert_array_equal(curve.defined, [True, False, True])
        assert curve.meta["undefined"] == 1

    def test_all_degenerate_raises(self):
        s = TrainingSample([0.0], [5.0])
        grid = EvalGrid([3.0, 4.0])
        with pytest.raises(DegenerateDenominatorError, match="whole grid"):
            fit_known(s, ErrorDensity.uniform(0.5), grid)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(11)
        s = TrainingSample(rng.normal(size=40), rng.normal(size=40))
        grid = EvalGrid(np.linspace(-2, 2, 41))
        curve = fit_known(s, GAUSS, grid)
        assert np.all(curve.values >= s.y.min() - 1e-12)
        assert np.all(curve.values <= s.y.max() + 1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=30)
        y = rng.normal(size=30)
        grid = EvalGrid(np.linspace(-1.5, 1.5, 21))
        base = fit_known(TrainingSample(w, y), GAUSS, grid)
        mapped = fit_known(TrainingSample(w, 2.5 * y - 1.0), GAUSS, grid)
        np.testing.assert_allclose(mapped.values, 2.5 * base.values - 1.0, rtol=1e-12)

    def test_location_equivariance(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=30)
        y = rng.normal(size=30)
        grid = np.linspace(-1, 1, 11)
        shift = 3.7
        base = fit_known(TrainingSample(w, y), GAUSS, EvalGrid(grid))
        moved = fit_known(TrainingSample(w + shift, y), GAUSS, EvalGrid(grid + shift))
        np.testing.assert_allclose(moved.values, base.values, rtol=1e-9)


class TestDerivative:
    def test_constant_responses_zero(self):
        s = TrainingSample([0.0, 0.5, 1.0], [4.0, 4.0, 4.0])
        for x in (-0.5, 0.2, 1.3):
            assert regression_derivative_at(s, GAUSS, x) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_zero(self):
        s = TrainingSample([0.4], [2.0])
        assert regression_derivative_at(s, GAUSS, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_central_difference_example(self):
        s = TrainingSample([0.0, 1.0], [0.0, 1.0])
        h = 1e-5
        fd = (regression_at(s, GAUSS, 0.5 + h) - regression_at(s, GAUSS, 0.5 - h)) / (2 * h)
        assert regression_derivative_at(s, GAUSS, 0.5) == pytest.approx(fd, abs=1e-6)

    def test_matches_central_difference_generic(self):
        rng = np.random.default_rng(3)
        s = TrainingSample(rng.normal(size=25), rng.normal(size=25))
        h = 1e-5
        for x in np.linspace(-1, 1, 7):
            if predictor_density(s, GAUSS, x) < 0.1:
                continue
            fd = (regression_at(s, GAUSS, x + h) - regression_at(s, GAUSS, x - h)) / (2 * h)
            assert regression_derivative_at(s, GAUSS, x) == pytest.approx(fd, abs=1e-5)

    def test_uniform_unsupported(self):
        s = TrainingSample([0.0], [1.0])
        with pytest.raises(UnsupportedDerivativeError):
            regression_derivative_at(s, ErrorDensity.uniform(0.5), 0.1)


class TestFindExtremum:
    def test_constant_responses(self):
        s = TrainingSample([0.0, 1.0], [2.0, 2.0])
        loc, value = find_extremum(s, GAUSS, -1.0, 2.0, kind="max")
        assert value == pytest.approx(2.0, abs=1e-12)
        assert -1.0 <= loc <= 2.0

    def test_monotone_case_against_dense_scan(self):
        # increasing fit: the max sits at the right boundary
        s = TrainingSample([0.0, 1.0], [0.0, 1.0])
        loc, value = find_extremum(s, GAUSS, -1.0, 2.0, kind="max")
        xs = np.linspace(-1.0, 2.0, 1_000_001)
        k0 = GAUSS.pdf(xs[:, None] - s.w[None, :])
        brute = xs[np.argmax((k0 @ s.y) / k0.sum(axis=1))]
        assert abs(loc - brute) <= 1e-4
        assert value < 1.0

    def test_interior_minimum(self):
        s = TrainingSample([-1.0, 0.0, 1.0], [1.0, -1.0, 1.0])
        loc, value = find_extremum(s, GAUSS, -2.0, 2.0, kind="min")
        assert loc == pytest.approx(0.0, abs=1e-6)
        assert value == pytest.approx(regression_at(s, GAUSS, 0.0), abs=1e-9)

    def test_degenerate_region_raises(self):
        s = TrainingSample([0.0], [1.0])
        with pytest.raises(DegenerateDenominatorError):
            find_extremum(s, ErrorDensity.uniform(0.5), 2.0, 3.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_non_finite_interval(self, lo, hi):
        s = TrainingSample([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="need finite lo < hi"):
            find_extremum(s, GAUSS, lo, hi)

    @pytest.mark.parametrize("scan_points", [0, 1, -3, math.nan])
    def test_scan_needs_two_points(self, scan_points):
        # 0 used to fail inside argmin and 1 to return lo unsearched
        s = TrainingSample([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="scan_points must be at least 2"):
            find_extremum(s, GAUSS, 0.0, 1.0, scan_points=scan_points)
        assert find_extremum(s, GAUSS, 0.0, 1.0, scan_points=2)[0] == pytest.approx(1.0)

    def test_ends_where_floats_are_wider_than_the_tolerance(self):
        # float spacing near 1e9 is 1.2e-7, above the 1e-8 tolerance; the
        # refinement used to loop forever once its points rounded together
        s = TrainingSample([0.0, 1e9, 2e9], [-1.0, 1.0, -1.0])
        err = ErrorDensity.gaussian(1e9)
        loc, value = returns_within(8.0, lambda: find_extremum(s, err, 0.0, 2e9))
        assert abs(loc - 1e9) <= 2.0 * 2e9 / (known.SCAN_POINTS - 1)
        assert value == regression_at(s, err, loc)
        assert value == pytest.approx(regression_at(s, err, 1e9), rel=1e-12)


class TestFindZeros:
    def test_constant_no_crossing(self):
        s = TrainingSample([0.0, 1.0], [2.0, 2.0])
        assert len(find_zeros(s, GAUSS, -1.0, 2.0, level=2.0)) == 0

    def test_antisymmetric_zero(self):
        s = TrainingSample([0.0, 1.0], [-1.0, 1.0])
        roots = find_zeros(s, GAUSS, 0.0, 1.0, level=0.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-9)

    def test_level_crossing_against_dense_scan(self):
        s = TrainingSample([0.0, 1.0], [0.0, 1.0])
        roots = find_zeros(s, GAUSS, 0.0, 1.0, level=0.5)
        # even point count so the exact crossing is not a scan node
        xs = np.linspace(0.0, 1.0, 1_000_000)
        k0 = GAUSS.pdf(xs[:, None] - s.w[None, :])
        vals = (k0 @ s.y) / k0.sum(axis=1) - 0.5
        sign_change = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
        assert len(roots) == len(sign_change) == 1
        assert abs(roots[0] - xs[sign_change[0]]) <= 1e-6

    def test_degenerate_region_raises(self):
        s = TrainingSample([0.0], [1.0])
        with pytest.raises(DegenerateDenominatorError):
            find_zeros(s, ErrorDensity.uniform(0.5), 2.0, 3.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_non_finite_interval(self, lo, hi):
        s = TrainingSample([0.0, 1.0], [-1.0, 1.0])
        with pytest.raises(ValueError, match="need finite lo < hi"):
            find_zeros(s, GAUSS, lo, hi)

    @pytest.mark.parametrize("scan_points", [0, 1, -3, math.nan])
    def test_scan_needs_two_points(self, scan_points):
        # 0 and 1 used to return no crossing without a search
        s = TrainingSample([0.0, 1.0], [-1.0, 1.0])
        with pytest.raises(ValueError, match="scan_points must be at least 2"):
            find_zeros(s, GAUSS, 0.0, 1.0, scan_points=scan_points)
        assert find_zeros(s, GAUSS, 0.0, 1.0, scan_points=2) == pytest.approx([0.5], abs=1e-9)

    def test_ends_where_floats_are_wider_than_the_tolerance(self):
        # float spacing near 1e6 is 1.2e-10, above the 1e-10 tolerance; the
        # bisection used to loop forever once its midpoint rounded to an end
        w = np.linspace(1e6, 1e6 + 10.0, 200)
        s = TrainingSample(w, np.sin(w - 1e6))
        roots = returns_within(
            8.0, lambda: find_zeros(s, ErrorDensity.laplace(0.1), 1e6 + 1.0, 1e6 + 9.0))
        assert roots - 1e6 == pytest.approx([math.pi, 2.0 * math.pi], abs=1e-3)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_level(self, level):
        # a nan level used to give no crossing and no error
        s = TrainingSample([0.0, 1.0], [-1.0, 1.0])
        with pytest.raises(ValueError, match="level must be finite"):
            find_zeros(s, GAUSS, 0.0, 1.0, level=level)

    def test_huge_responses_raise_no_overflow_warning(self):
        # the sign tests multiplied neighbouring values, which overflows for
        # responses of order 1e300; the comparisons find the same root
        rng = np.random.default_rng(7)
        w = rng.uniform(0.0, 1.0, 300)
        y = np.sin(2.0 * np.pi * w) + rng.normal(0.0, 0.3, 300)
        err = ErrorDensity.laplace(0.1)
        plain = find_zeros(TrainingSample(w, y), err, 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = find_zeros(TrainingSample(w, y * 1e300), err, 0.0, 1.0)
        assert len(plain) == 1
        np.testing.assert_allclose(huge, plain, rtol=0.0, atol=1e-9)

    def test_sign_change_through_underflowing_product(self):
        # the product of 1e-200 and -1e-200 underflows to -0.0, which is not
        # below 0, so the product test missed this crossing
        s = TrainingSample([0.0, 1.0], [-1e-200, 1e-200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = find_zeros(s, GAUSS, 0.0, 1.0)
        assert roots == pytest.approx([0.5], abs=1e-9)


def outcome(f):
    """A call's result as its repr (NaN equal to NaN), or its degeneracy error."""
    try:
        result = f()
    except DegenerateDenominatorError as exc:
        return f"DegenerateDenominatorError: {exc}"
    return repr(result.tolist() if isinstance(result, np.ndarray) else result)


@st.composite
def scans(draw):
    """A Laplace scan from 1e-300 to 1e300 in w and y, with ties (w on scan
    points, repeated w and rounded y), span / b from 1e-2 to 1e4, where
    the kernel underflows, and levels on a scan value."""
    n = draw(st.sampled_from([1, 2, 3, 50, 2000]))
    g = draw(st.sampled_from([2, 3, 64, 512]))
    w_scale = 10.0 ** draw(st.floats(-300, 300))
    y_scale = 10.0 ** draw(st.floats(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = np.sort(rng.uniform(-0.5, 1.5, 2)) * w_scale
    w = rng.uniform(-1.0, 2.0, n)
    if draw(st.booleans()):  # repeated predictors
        w = np.round(w * 4.0) / 4.0
    w *= w_scale
    xs = known._scan_grid(lo, hi, g)
    on_scan = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    w[on_scan] = xs[rng.integers(0, g, np.count_nonzero(on_scan))]
    y = rng.normal(0.0, 1.0, n)
    if draw(st.booleans()):  # tied responses, so tied ratios
        y = np.round(y)
    y *= y_scale
    span = max(hi - w.min(), w.max() - lo)
    err = ErrorDensity.laplace(span / 10.0 ** draw(st.floats(-2, 4)))
    return err, lo, hi, g, TrainingSample(w, y), draw(st.integers(0, g - 1))


@pytest.mark.thorough
@settings(deadline=None)
@given(scans())
def test_the_scan_radius_holds_and_decides_as_the_dense_scan(scan):
    err, lo, hi, g, s, at = scan
    xs = known._scan_grid(lo, hi, g)

    def scan_ratios():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return known._scan_ratios(err, xs, s.w, s.y)

    r, e = scan_ratios()
    assert np.all(e >= 0.0)
    try:
        with np.errstate(all="ignore"):
            den, num = known._moments_at(err._pdf_into, xs, s.w, s.y)
            dense = num / den
    except DegenerateDenominatorError as exc:
        # the scan leaves every point to the finders' dense rows, which
        # raise the dense scan's error
        assert np.all(e == np.inf)
        undefined = f"DegenerateDenominatorError: {exc}"
        level = 0.0
    else:
        undefined = None
        bounded = np.isfinite(e)
        assert np.all(np.abs(r - dense)[bounded] <= e[bounded])
        level = float(dense[at]) if np.isfinite(dense[at]) else 0.0

    def finders():
        # the refinements' dense rows may overflow at these scales, as they
        # do without the certificate
        with np.errstate(all="ignore"):
            return [outcome(lambda: find_extremum(s, err, lo, hi, "max", g)),
                    outcome(lambda: find_extremum(s, err, lo, hi, "min", g)),
                    outcome(lambda: find_zeros(s, err, lo, hi, level, g))]

    certified = finders()
    if undefined is not None:
        assert certified == [undefined] * 3
    # with an infinite unit roundoff no radius certifies anything, and the
    # scan is the dense one
    with mock.patch.object(known, "_U", np.inf):
        assert finders() == certified
