"""One degeneracy rule: every curve, interval and point query marks the same
points undefined, and every query that needs the whole grid defined raises
with the message the first undefined point gets alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsereg import (
    DegenerateDenominatorError,
    ErrorDensity,
    EvalGrid,
    TrainingSample,
    covariance_matrix,
    fit_known,
    fit_nw,
    nw_estimate,
    pointwise_band,
    pointwise_ci,
    regression_at,
    simultaneous_band,
)

pytestmark = pytest.mark.thorough


def _triangular(u):
    return np.maximum(1.0 - np.abs(np.asarray(u, dtype=float)), 0.0)


# the four density kinds
DENSITIES = [ErrorDensity.gaussian(0.1), ErrorDensity.laplace(0.05),
             ErrorDensity.uniform(0.1), ErrorDensity.custom(_triangular, scale=0.5)]


@st.composite
def cases(draw):
    """A seeded sample on [0, 1] and a grid that may run past the data, far
    enough that every density leaves points undefined, possibly all of them."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, 1.0, n)
    y = np.cos(3 * w) + rng.normal(0.0, 0.5, n)
    lo = draw(st.sampled_from([-3.0, -0.5, 0.0, 2.5]))
    hi = lo + draw(st.sampled_from([0.5, 1.5, 4.0]))
    grid = EvalGrid.linspace(lo, hi, draw(st.integers(2, 30)))
    return TrainingSample(w, y), grid


def message(f):
    """The message of the degeneracy error ``f`` raises, or None."""
    try:
        f()
    except DegenerateDenominatorError as exc:
        return str(exc)
    return None


def nan_mask(f, size):
    """Where ``f()``'s values are NaN; all True when it raises because no
    point is defined."""
    try:
        return np.isnan(f())
    except DegenerateDenominatorError as exc:
        assert "undefined on the whole grid" in str(exc)
        return np.ones(size, dtype=bool)


@settings(deadline=None)
@given(cases(), st.sampled_from(DENSITIES))
def test_curves_and_point_queries_agree_on_the_known_rule(case, err):
    s, grid = case
    points = [float(x) for x in grid.points]
    errors = [message(lambda: regression_at(s, err, x)) for x in points]
    undefined = np.array([e is not None for e in errors])
    np.testing.assert_array_equal(nan_mask(lambda: fit_known(s, err, grid).values,
                                           len(grid)), undefined)
    np.testing.assert_array_equal(nan_mask(lambda: pointwise_band(s, err, grid).values,
                                           len(grid)), undefined)
    assert [message(lambda: pointwise_ci(s, err, x, 0.05)) for x in points] == errors

    # queries that need every point defined raise exactly when one is not,
    # naming the first
    first = next((e for e in errors if e is not None), None)
    assert message(lambda: covariance_matrix(s, err, grid)) == first
    assert message(lambda: simultaneous_band(s, err, grid, n_sim=50, seed=1)) == first
    if first is not None:
        x = points[int(np.argmax(undefined))]
        assert first.endswith(f" below 1e-12 at x={x}")


@settings(deadline=None)
@given(cases(), st.sampled_from([0.02, 0.1, 0.5]))
def test_nw_curve_and_point_queries_agree(case, h):
    s, grid = case
    undefined = np.array([message(lambda: nw_estimate(s, h, float(x))) is not None
                          for x in grid.points])
    np.testing.assert_array_equal(nan_mask(lambda: fit_nw(s, h, grid).values, len(grid)),
                                  undefined)


def test_the_message_names_the_first_undefined_point():
    s = TrainingSample([0.0, 0.1], [1.0, 2.0])
    err = ErrorDensity.uniform(0.5)
    want = "denominator 0.000e+00 below 1e-12 at x=7.0"
    assert message(lambda: regression_at(s, err, 7.0)) == want
    assert message(lambda: nw_estimate(s, 0.01, 7.0)) == want
    grid = EvalGrid([0.0, 7.0, 9.0])
    assert message(lambda: covariance_matrix(s, err, grid)) == want
    assert message(lambda: simultaneous_band(s, err, grid, n_sim=10)) == want
    with pytest.raises(DegenerateDenominatorError, match="undefined on the whole grid"):
        fit_known(s, err, EvalGrid([7.0, 9.0]))
