import math
from contextlib import suppress
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from coarsereg import (
    DegenerateDenominatorError, ErrorDensity, EvalGrid, MissingCFError, TrainingSample,
    UnsupportedDerivativeError, densities, fit_known, fit_nw, known,
)
from coarsereg.densities import _EXP_FAST_MIN, _EXP_ZERO, _exp_into

SQRT_2PI = math.sqrt(2 * math.pi)

GAUSS = ErrorDensity.gaussian(1.0)
LAPLACE = ErrorDensity.laplace(1.0)
UNIFORM = ErrorDensity.uniform(0.5)
BUILTINS = [GAUSS, LAPLACE, UNIFORM]


def test_closed_form_pdf_values():
    assert GAUSS.pdf(0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-12)
    assert LAPLACE.pdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert UNIFORM.pdf(0.6) == 0.0
    # closed boundary: the density keeps its interior value at |u| == a
    assert UNIFORM.pdf(0.5) == 1.0
    assert UNIFORM.pdf(-0.5) == 1.0


def test_pdf_vectorized_and_nonnegative():
    u = np.linspace(-4, 4, 101)
    for d in BUILTINS:
        vals = d.pdf(u)
        assert vals.shape == u.shape
        assert np.all(vals >= 0)


def test_gaussian_first_derivative_values():
    assert GAUSS.pdf_derivative(0.0, 1) == 0.0
    # frozen from -u * exp(-u^2/2) / sqrt(2 pi) at u = 1
    expected = -math.exp(-0.5) / SQRT_2PI
    assert expected == pytest.approx(-0.2419707245, abs=1e-9)
    assert GAUSS.pdf_derivative(1.0, 1) == pytest.approx(expected, abs=1e-12)


def test_laplace_derivative_convention():
    assert LAPLACE.pdf_derivative(0.0, 1) == 0.0
    assert LAPLACE.pdf_derivative(2.0, 1) == pytest.approx(-LAPLACE.pdf(2.0), abs=1e-12)
    assert LAPLACE.pdf_derivative(-2.0, 1) == pytest.approx(LAPLACE.pdf(2.0), abs=1e-12)


def test_uniform_derivative_unsupported():
    with pytest.raises(UnsupportedDerivativeError):
        UNIFORM.pdf_derivative(0.1, 1)


def test_derivative_order_zero_is_pdf():
    u = np.linspace(-2, 2, 9)
    for d in BUILTINS:
        np.testing.assert_allclose(d.pdf_derivative(u, 0), d.pdf(u))


@pytest.mark.parametrize("d", [GAUSS, LAPLACE])
def test_first_derivative_matches_central_difference(d):
    h = 1e-5
    # skip the Laplace kink at 0
    for u in (-1.7, -0.4, 0.9, 2.3):
        fd = (d.pdf(u + h) - d.pdf(u - h)) / (2 * h)
        assert d.pdf_derivative(u, 1) == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("d", [GAUSS, LAPLACE])
def test_second_derivative_matches_central_difference(d):
    h = 1e-4
    for u in (-1.3, 0.8, 2.1):
        fd = (d.pdf(u + h) - 2 * d.pdf(u) + d.pdf(u - h)) / h**2
        assert d.pdf_derivative(u, 2) == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_cf_closed_forms():
    for d in BUILTINS:
        assert d.cf(0.0) == 1.0
    assert LAPLACE.cf(2.0) == pytest.approx(0.2, abs=1e-12)
    assert GAUSS.cf(1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert ErrorDensity.uniform(1.0).cf(math.pi) == pytest.approx(0.0, abs=1e-15)


def test_cf_even():
    for d in BUILTINS:
        for t in (0.3, 1.0, 2.7):
            assert d.cf(t) == d.cf(-t)


def test_density_mass_is_one():
    for d in BUILTINS:
        span = 50 * d.scale
        # place breakpoints at the kinks so quadrature converges
        pts = [-d.scale, 0.0, d.scale]
        mass, _ = quad(d.pdf, -span, span, points=pts, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
def test_cf_matches_cosine_quadrature(t):
    for d in BUILTINS:
        span = 50 * d.scale
        pts = [-d.scale, 0.0, d.scale]
        val, _ = quad(lambda u: d.pdf(u) * math.cos(t * u), -span, span,
                      points=pts, limit=400)
        assert val == pytest.approx(d.cf(t), abs=1e-6)


def test_variance():
    assert GAUSS.variance == 1.0
    assert LAPLACE.variance == 2.0
    assert UNIFORM.variance == pytest.approx(0.25 / 3.0)


def test_cf_decay_metadata():
    assert GAUSS.cf_decay is None
    assert LAPLACE.cf_decay == 2.0
    assert UNIFORM.cf_decay is None


def test_invalid_scales():
    def custom(scale):
        return ErrorDensity.custom(lambda u: np.exp(-0.5 * np.asarray(u) ** 2) / SQRT_2PI,
                                   scale=scale)

    for ctor in (ErrorDensity.gaussian, ErrorDensity.laplace, ErrorDensity.uniform):
        with pytest.raises(ValueError):
            ctor(0.0)
        with pytest.raises(ValueError):
            ctor(-1.0)
    for ctor in (ErrorDensity.gaussian, ErrorDensity.laplace, ErrorDensity.uniform, custom):
        for scale in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                ctor(scale)


@pytest.mark.parametrize("ctor, scale, name", [(ErrorDensity.gaussian, 1e-320, "sigma"),
                                               (ErrorDensity.laplace, 1e-310, "scale"),
                                               (ErrorDensity.uniform, 1e-310, "half-width")])
@pytest.mark.filterwarnings("error")
def test_scale_with_an_infinite_peak_rejected(ctor, scale, name):
    # pdf(0) would be inf: inf kernel averages pass the degeneracy threshold
    # and inf / inf gives NaN ratios that the undefined count misses
    with pytest.raises(ValueError, match=f"^{name} {scale} is too small: the peak density"):
        ctor(scale)
    # a tiny accepted scale: the fit is the response at each data point and
    # undefined, and counted so, between them
    d = ctor(1e-300)
    assert math.isfinite(d.pdf(0.0))
    curve = fit_known(TrainingSample([0.0, 0.5, 1.0], [1.0, 2.0, 3.0]), d,
                      EvalGrid([0.0, 0.25, 0.5, 0.75, 1.0]))
    np.testing.assert_array_equal(curve.values, [1.0, np.nan, 2.0, np.nan, 3.0])
    assert curve.meta["undefined"] == 2


@pytest.mark.filterwarnings("error")
def test_far_tail_is_zero_without_an_overflow_warning():
    # (u / sigma)**2 and |u| / -b overflow to inf here; their exp is the
    # right 0, and a valid input must not warn
    assert ErrorDensity.gaussian(1.0).pdf(1e200) == 0.0
    assert ErrorDensity.laplace(1e-300).pdf(1e10) == 0.0
    u = np.array([-1e200, -1e10, 0.0, 1e10, 1e200])
    assert np.array_equal(ErrorDensity.gaussian(1.0).pdf(u), [0.0, 0.0, 1.0 / SQRT_2PI, 0.0, 0.0])
    assert np.array_equal(ErrorDensity.laplace(1e-300).pdf(u), [0.0, 0.0, 1.0 / 2e-300, 0.0, 0.0])
    # fit_known at a tiny scale is test_scale_with_an_infinite_peak_rejected;
    # the NW kernel shares the Gaussian exponential
    curve = fit_nw(TrainingSample([0.0, 0.5, 1.0], [1.0, 2.0, 3.0]), 1e-300,
                   EvalGrid.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(curve.values, [1.0, np.nan, 2.0, np.nan, 3.0])


class TestCustom:
    @staticmethod
    def _triangular(u):
        u = np.asarray(u, dtype=float)
        return np.maximum(1.0 - np.abs(u), 0.0)

    def test_valid_custom(self):
        d = ErrorDensity.custom(self._triangular, cf_decay=2.0)
        assert d.pdf(0.0) == 1.0
        assert d.pdf(2.0) == 0.0
        assert d.cf_decay == 2.0

    def test_custom_without_cf_raises(self):
        d = ErrorDensity.custom(self._triangular)
        with pytest.raises(MissingCFError):
            d.cf(1.0)

    def test_custom_without_derivative_raises(self):
        d = ErrorDensity.custom(self._triangular)
        with pytest.raises(UnsupportedDerivativeError):
            d.pdf_derivative(0.3, 1)

    def test_custom_with_callables(self):
        gauss_pdf = lambda u: np.exp(-0.5 * np.asarray(u) ** 2) / SQRT_2PI
        d = ErrorDensity.custom(
            gauss_pdf,
            deriv=lambda u, k: -np.asarray(u) * gauss_pdf(u) if k == 1 else None,
            cf=lambda t: np.exp(-0.5 * np.asarray(t) ** 2),
        )
        assert d.cf(1.0) == pytest.approx(math.exp(-0.5))
        assert d.pdf_derivative(1.0, 1) == pytest.approx(GAUSS.pdf_derivative(1.0, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ErrorDensity.custom(lambda u: np.cos(np.asarray(u)))

    def test_asymmetric_rejected(self):
        def shifted(u):
            u = np.asarray(u, dtype=float)
            return np.maximum(1.0 - np.abs(u - 0.2), 0.0)

        with pytest.raises(ValueError, match="symmetric"):
            ErrorDensity.custom(shifted)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="integrates"):
            ErrorDensity.custom(lambda u: 2.0 * self._triangular(u))


def closed_form_pdf(d, u):
    """The built-in kinds' pdf as written before it evaluated in place."""
    u = np.asarray(u, dtype=float)
    if d.kind == "gaussian":
        out = np.exp(-0.5 * (u / d.scale) ** 2) / (d.scale * SQRT_2PI)
    elif d.kind == "laplace":
        out = np.exp(-np.abs(u) / d.scale) / (2.0 * d.scale)
    else:
        out = np.where(np.abs(u) <= d.scale, 1.0 / (2.0 * d.scale), 0.0)
    return out if out.ndim else float(out)


@st.composite
def pdf_cases(draw):
    kind = draw(st.sampled_from(["gaussian", "laplace", "uniform"]))
    scale = draw(st.floats(min_value=5e-324, max_value=1e308))
    # the constructors reject a scale whose peak pdf(0) overflows
    assume(1.0 / (scale * (SQRT_2PI if kind == "gaussian" else 2.0)) < math.inf)
    # any float (signed zeros, subnormals, huge values, infinities) and
    # multiples of the scale, which hit the uniform edge |u| == a
    near = st.floats(-40.0, 40.0).map(lambda r: r * scale)
    u = draw(st.lists(st.one_of(st.floats(allow_nan=False), near,
                                st.sampled_from([scale, -scale, 0.0, -0.0])), max_size=40))
    return getattr(ErrorDensity, kind)(scale), np.array(u, dtype=float)


@pytest.mark.thorough
class TestInPlacePdf:
    @given(pdf_cases())
    def test_pdf_keeps_the_closed_form_bits(self, case):
        d, u = case
        before = u.copy()
        with np.errstate(all="ignore"):
            got, want = d.pdf(u), closed_form_pdf(d, u)
            # a scalar gets the bits of the same point in an array; the
            # closed form's scalar path squared through C pow, which is not
            # correctly rounded, so its Gaussian scalars could differ by ulps
            scalars = [(d.pdf(x), closed_form_pdf(d, np.array([x]))[0]) for x in u]
        assert u.tobytes() == before.tobytes()  # the input is left alone
        assert got.tobytes() == want.tobytes()
        for a, b in scalars:
            assert isinstance(a, float)
            assert a == b and np.signbit(a) == np.signbit(b)


@pytest.mark.thorough
class TestExpInto:
    @staticmethod
    def exponents():
        band = np.linspace(_EXP_ZERO, _EXP_FAST_MIN, 4000)
        wide = np.linspace(-800.0, 0.0, 4000)
        edges = [_EXP_FAST_MIN, np.nextafter(_EXP_FAST_MIN, -np.inf), _EXP_ZERO,
                 np.nextafter(_EXP_ZERO, 0.0), np.nextafter(_EXP_ZERO, -np.inf), -745.0,
                 -800.0, 0.0]
        return np.concatenate([band, wide, edges]).reshape(8, -1)

    def test_bit_identical_to_exp(self):
        a = self.exponents()
        expected = np.exp(a)
        assert np.any((expected > 0.0) & (expected < np.finfo(float).tiny))
        got = _exp_into(a.copy())
        assert got.tobytes() == expected.tobytes()

    def test_no_clamp_above_fast_path_floor(self):
        a = np.linspace(_EXP_FAST_MIN, 0.0, 5001)
        assert _exp_into(a.copy()).tobytes() == np.exp(a).tobytes()

    class _CountingMin(np.ndarray):
        """An array that counts the calls of its ``min``: the search pass for
        lanes below the fast path's floor."""

        calls = 0

        def min(self, *args, **kwargs):
            type(self).calls += 1
            return super().min(*args, **kwargs)

    @pytest.mark.parametrize("lower, searches", [(np.nextafter(_EXP_FAST_MIN, 0.0), 0),
                                                 (_EXP_FAST_MIN, 0),
                                                 (np.nextafter(_EXP_FAST_MIN, -np.inf), 1),
                                                 (-np.inf, 1), (np.nan, 1)])
    def test_a_lower_bound_at_the_floor_skips_the_search(self, lower, searches):
        # the bits are np.exp's either way; a bound below the floor, or none,
        # still searches, and finds the lanes of the subnormal band
        for values in (np.linspace(_EXP_FAST_MIN, 0.0, 999), self.exponents().ravel()):
            if searches == 0 and values.min() < _EXP_FAST_MIN:
                continue  # such a bound would not hold
            a = values.copy().view(self._CountingMin)
            self._CountingMin.calls = 0
            got = _exp_into(a, lower)
            assert self._CountingMin.calls == searches
            assert got.view(np.ndarray).tobytes() == np.exp(values).tobytes()

    @given(st.integers(1, 50), st.integers(2, 30), st.integers(0, 2**32 - 1),
           st.sampled_from(["gaussian", "laplace", "nw"]), st.floats(1e-3, 10.0),
           st.sampled_from([1.0, 1e3]))
    def test_the_kernels_bounds_hold(self, n, g, seed, kind, scale, spread):
        # every bound a kernel pass of one-row blocks hands _exp_into is at
        # most its lowest argument, and near data it clears the floor,
        # skipping the search
        rng = np.random.default_rng(seed)
        s = TrainingSample(spread * rng.uniform(0.0, 1.0, n), rng.normal(size=n))
        grid = EvalGrid.linspace(-spread, 2.0 * spread, g)
        seen = []

        def checked(arg, lower=-np.inf):
            seen.append((lower, arg.min()))
            return _exp_into(arg, lower)

        with mock.patch.object(densities, "_exp_into", checked), \
                mock.patch.object(known, "_BLOCK_BYTES", 8 * n), \
                suppress(DegenerateDenominatorError):  # a curve undefined everywhere
            if kind == "nw":
                fit_nw(s, scale, grid)
            else:
                fit_known(s, getattr(ErrorDensity, kind)(scale), grid)
        assert seen and all(lower <= least for lower, least in seen)
        if spread == 1.0 and scale >= 0.1:
            assert all(lower >= _EXP_FAST_MIN for lower, _ in seen)

    @given(st.lists(st.one_of(st.floats(-1100.0, 0.0),
                              st.floats(_EXP_ZERO, _EXP_FAST_MIN, exclude_max=True),
                              st.sampled_from([-np.inf, -0.0, np.nan])), min_size=1, max_size=64))
    # a NaN among lanes below the floor (a NaN min takes the plain exp), and
    # the same lanes clamped without it
    @example([np.nan, -800.0, -720.0, -1200.0, -0.0, -np.inf])
    @example([-800.0, -720.0, -1200.0, -0.0, -np.inf, -3.0])
    def test_equals_np_exp(self, values):
        a = np.array(values)
        want = np.exp(a)
        got = _exp_into(a)
        assert got is a  # in place
        assert got.tobytes() == want.tobytes()


def closed_form_derivative(d, u, order):
    """:meth:`ErrorDensity.pdf_derivative`'s closed forms on the closed-form pdf."""
    f = np.asarray(closed_form_pdf(d, u))
    if d.kind == "gaussian":
        s2 = d.scale**2
        return -(u / s2) * f if order == 1 else (u**2 / s2 - 1.0) / s2 * f
    if order == 1:
        return np.where(u == 0, 0.0, -np.sign(u) * f / d.scale)
    return f / d.scale**2


class TestPdfOnTheBandPath:
    """Scales small enough that most offsets fall below ``_EXP_FAST_MIN``,
    where :func:`_exp_into` clamps and recomputes the subnormal band."""

    @pytest.mark.parametrize("d, span", [(ErrorDensity.gaussian(0.02), 2.0),
                                         (ErrorDensity.laplace(1e-3), 1.0)])
    def test_pdf_and_derivatives_keep_the_closed_form_bits(self, d, span):
        u = np.linspace(-span, span, 4001)
        want = closed_form_pdf(d, u)
        assert np.any((want > 0.0) & (want < np.finfo(float).tiny))  # the band is hit
        assert d.pdf(u).tobytes() == want.tobytes()
        for order in (1, 2):
            assert d.pdf_derivative(u, order).tobytes() == \
                closed_form_derivative(d, u, order).tobytes()
        for x in u[::37]:
            one = np.array([x])
            assert d.pdf(float(x)) == closed_form_pdf(d, one)[0]
            for order in (1, 2):
                assert d.pdf_derivative(float(x), order) == closed_form_derivative(d, one, order)[0]
