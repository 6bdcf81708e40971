"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Heavy replication studies are shared through module-scoped fixtures.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import coarsereg as cr
from pooling import cpus, pool_of, replicate_threads

DATA = Path(__file__).parent / "data"
SQRT_2PI = math.sqrt(2 * math.pi)


def phi(u):
    return math.exp(-0.5 * u * u) / SQRT_2PI


# ---------------------------------------------------------------- fixtures

RATE_SCENARIOS = {
    n: cr.ScenarioConfig(model="logistic", n=n, predictor_noise=0.25)
    for n in (100, 400, 1600)
}
RATE_GRID = cr.EvalGrid([-0.2, 0.0, 0.2])
RATE_SEED = 20


def run_rate_study(n):
    return cr.run_replications(
        RATE_SCENARIOS[n],
        cr.EstimatorSpec(method="known"),
        reps=500,
        grid=RATE_GRID,
        master_seed=RATE_SEED,
        rmse_points=(0.0,),
    )


@pytest.fixture(scope="module")
def rate_reports():
    return {n: run_rate_study(n) for n in (100, 400, 1600)}


# ---------------------------------------------------------- criterion 1


def test_criterion_1_unit_oracles():
    """Every worked example value, at closed-form or stated tolerance."""
    close = lambda a, b, tol=1e-9: abs(a - b) <= tol
    g1 = cr.ErrorDensity.gaussian(1.0)
    lap = cr.ErrorDensity.laplace(1.0)
    uni = cr.ErrorDensity.uniform(0.5)

    # densities: evaluation, derivatives, characteristic functions
    assert close(g1.pdf(0.0), 1 / SQRT_2PI)
    assert close(lap.pdf(0.0), 0.5)
    assert uni.pdf(0.6) == 0.0
    assert g1.pdf_derivative(0.0, 1) == 0.0
    assert close(g1.pdf_derivative(1.0, 1), -0.2419707245)
    with pytest.raises(cr.UnsupportedDerivativeError):
        uni.pdf_derivative(0.0, 1)
    for d in (g1, lap, uni):
        assert d.cf(0.0) == 1.0
    assert close(lap.cf(2.0), 0.2)
    assert close(g1.cf(1.0), math.exp(-0.5))

    # known-error estimator: density averages and the ratio
    assert close(cr.predictor_density(cr.TrainingSample([0.3], [2.0]), g1, 0.3),
                 1 / SQRT_2PI)
    assert cr.predictor_density(cr.TrainingSample([0, 2], [1, 1]), uni, 1.2) == 0.0
    two = cr.TrainingSample([0.0, 1.0], [0.0, 2.0])
    assert close(cr.predictor_density(two, g1, 0.5), 0.3520653268)
    assert cr.response_weighted_density(
        cr.TrainingSample([0, 1, 2], [0, 0, 0]), g1, 0.7) == 0.0
    assert close(cr.response_weighted_density(cr.TrainingSample([0.3], [2.0]), g1, 0.3),
                 0.7978845608)
    assert close(cr.response_weighted_density(two, g1, 0.5), 0.3520653268)
    single = cr.TrainingSample([0.7], [3.25])
    assert close(cr.regression_at(single, g1, -1.0), 3.25, 1e-12)
    assert close(cr.regression_at(two, g1, 0.5), 1.0, 1e-12)
    ramp = cr.TrainingSample([0.0, 1.0], [0.0, 1.0])
    assert close(cr.regression_at(ramp, g1, 1.0), 0.6224593312)
    assert close(cr.regression_at(cr.TrainingSample([0, 2], [5, 7]), uni, 0.25), 5.0,
                 1e-12)

    # derivatives: constants, single point, finite-difference agreement
    const = cr.TrainingSample([0.0, 0.5, 1.0], [4.0, 4.0, 4.0])
    assert close(cr.regression_derivative_at(const, g1, 0.3), 0.0, 1e-12)
    assert close(cr.regression_derivative_at(single, g1, 1.0), 0.0, 1e-12)
    h = 1e-5
    fd = (cr.regression_at(ramp, g1, 0.5 + h) - cr.regression_at(ramp, g1, 0.5 - h)) / (2 * h)
    assert close(cr.regression_derivative_at(ramp, g1, 0.5), fd, 1e-6)

    # extrema and zeros, with dense-scan oracles
    loc, val = cr.find_extremum(const, g1, -1.0, 2.0, kind="max")
    assert close(val, 4.0, 1e-12)
    loc, val = cr.find_extremum(ramp, g1, -1.0, 2.0, kind="max")
    xs = np.linspace(-1, 2, 1_000_001)
    k = g1.pdf(xs[:, None] - ramp.w[None, :])
    brute_loc = xs[np.argmax((k @ ramp.y) / k.sum(axis=1))]
    assert val < 1.0 and abs(loc - brute_loc) <= 1e-4
    _, val = cr.find_extremum(cr.TrainingSample([-1, 1], [1, 1]), g1, -1, 1, kind="max")
    assert close(val, 1.0, 1e-12)
    assert len(cr.find_zeros(const, g1, -1.0, 2.0, level=4.0)) == 0
    roots = cr.find_zeros(cr.TrainingSample([0, 1], [-1, 1]), g1, 0.0, 1.0)
    assert len(roots) == 1 and close(roots[0], 0.5, 1e-9)
    roots = cr.find_zeros(ramp, g1, 0.0, 1.0, level=0.5)
    xs = np.linspace(0, 1, 1_000_000)
    k = g1.pdf(xs[:, None] - ramp.w[None, :])
    vals = (k @ ramp.y) / k.sum(axis=1) - 0.5
    brute = xs[np.nonzero(vals[:-1] * vals[1:] < 0)[0][0]]
    assert len(roots) == 1 and abs(roots[0] - brute) <= 1e-6

    # inference: product moments, variance, covariance, intervals, bands
    m = cr.product_moments(cr.TrainingSample([0, 1], [0, 0]), g1, 0.2, 0.4)
    assert m.response == 0.0 and m.response_sq == 0.0 and m.plain > 0
    m = cr.product_moments(cr.TrainingSample([0.0], [2.0]), g1, 0.0, 0.0)
    assert close(m.plain, 1 / (2 * math.pi)) and close(m.response, 2 / (2 * math.pi))
    assert close(m.response_sq, 4 / (2 * math.pi))
    m = cr.product_moments(cr.TrainingSample([0, 0.5], [1, 2]),
                           cr.ErrorDensity.uniform(0.25), 5.0, 0.1)
    assert m.plain == m.response == m.response_sq == 0.0
    assert cr.variance_at(const, g1, 0.5) == 0.0
    assert cr.variance_at(cr.TrainingSample([0.2], [3.0]), g1, 0.2) == 0.0
    assert close(cr.variance_at(two, g1, 0.5), 1.0, 1e-12)
    cov = cr.covariance_matrix(const, g1, cr.EvalGrid([0.0, 1.0])).entries
    assert np.max(np.abs(cov)) <= 1e-10
    cov = cr.covariance_matrix(two, g1, cr.EvalGrid([0.5, 1.0])).entries
    assert close(cov[0, 0], cr.variance_at(two, g1, 0.5), 1e-12)
    # independent reference for the off-diagonal entry
    k1 = [phi(0.5 - w) for w in two.w]
    k2 = [phi(1.0 - w) for w in two.w]
    den1, den2 = sum(k1) / 2, sum(k2) / 2
    num1 = sum(y * k for y, k in zip(two.y, k1)) / 2
    num2 = sum(y * k for y, k in zip(two.y, k2)) / 2
    plain = sum(a * b for a, b in zip(k1, k2)) / 2
    resp = sum(y * a * b for y, a, b in zip(two.y, k1, k2)) / 2
    resp_sq = sum(y * y * a * b for y, a, b in zip(two.y, k1, k2)) / 2
    ref = (resp_sq / (den1 * den2)
           + plain * num1 * num2 / (den1 * den2) ** 2
           - resp * (num1 * den2 + num2 * den1) / (den1 * den2) ** 2)
    assert close(cov[0, 1], ref, 1e-12)
    lo, hi = cr.pointwise_ci(cr.TrainingSample([0, 1], [4, 4]), g1, 0.5, 0.05)
    assert lo == hi == pytest.approx(4.0, abs=1e-12)
    lo, hi = cr.pointwise_ci(two, g1, 0.5, 1.0)
    assert lo == hi == pytest.approx(1.0, abs=1e-12)
    lo, hi = cr.pointwise_ci(two, g1, 0.5, 0.05)
    assert close(lo, -0.3858, 2e-4) and close(hi, 2.3858, 2e-4)
    band = cr.simultaneous_band(const, g1, cr.EvalGrid([0.0, 0.5, 1.0]), seed=1)
    assert band.meta["degenerate_covariance"]
    np.testing.assert_allclose(band.band_upper - band.band_lower, 0.0, atol=1e-12)
    rng = np.random.default_rng(23)
    s50 = cr.TrainingSample(rng.normal(size=50), rng.normal(size=50))
    band = cr.simultaneous_band(s50, g1, cr.EvalGrid([0.0, 1e-9]), alpha=0.05,
                                n_sim=100_000, seed=3)
    assert abs(band.meta["sup_quantile"] - 1.959964) <= 0.05
    grid = cr.EvalGrid(np.linspace(-1, 1, 7))
    band = cr.simultaneous_band(s50, g1, grid, alpha=0.05, n_sim=20_000, seed=4)
    for j, x in enumerate(grid.points):
        lo, hi = cr.pointwise_ci(s50, g1, float(x), 0.05)
        assert band.band_lower[j] <= lo + 1e-9 <= hi - 1e-9 <= band.band_upper[j] + 2e-9

    # Fourier path: error CF, empirical CFs, cutoff policy, inversion
    t3 = np.array([-math.pi, 0.0, math.pi])
    tab = cr.error_cf_from_replicates(cr.ReplicatedSample([[0, 1]]), t3)
    np.testing.assert_allclose(tab.values, 1.0, atol=1e-12)
    tab = cr.error_cf_from_replicates(cr.ReplicatedSample([[0, 1], [0, 2]]), t3)
    assert tab.values[1] == 1.0 and abs(tab.values[2]) <= 1e-7
    plain, weighted = cr.empirical_cfs(cr.TrainingSample([0.2, 0.8], [1.0, 3.0]),
                                       np.array([-1.0, 0.0, 1.0]))
    assert plain.values[1] == 1.0 and close(weighted.values[1].real, 2.0, 1e-12)
    plain, _ = cr.empirical_cfs(cr.TrainingSample([0.0], [5.0]), t3)
    np.testing.assert_allclose(plain.values, 1.0, atol=1e-15)
    plain, _ = cr.empirical_cfs(cr.TrainingSample([0.0, math.pi], [1, 1]),
                                np.array([-1.0, 0.0, 1.0]))
    assert abs(plain.values[2]) <= 1e-15
    rng = np.random.default_rng(5)
    v = rng.normal(size=10_000)
    tight = cr.ReplicatedSample(np.stack([v + rng.normal(0, 0.01, v.size),
                                          v + rng.normal(0, 0.01, v.size)], axis=1))
    assert cr.select_cutoff(tight, 50, override=7.25) == 7.25
    assert cr.select_cutoff(tight, 100, error_decay=2.0) == pytest.approx(
        10_000 ** (1 / 6) / math.log(10_000), rel=1e-12)
    s1 = cr.TrainingSample([0.0], [1.0])
    gridf = cr.EvalGrid([-0.5, 0.0, 0.5])
    den, num = cr.invert_cf(s1, g1, cr.FourierConfig(0.0), gridf)
    assert np.all(den == 0.0) and np.all(num == 0.0)
    den, _ = cr.invert_cf(s1, g1, cr.FourierConfig(8.0, 0.01), gridf)
    assert close(den[1], 1 / SQRT_2PI, 1e-6)
    lap5 = cr.ErrorDensity.laplace(0.5)
    rng = np.random.default_rng(11)
    s40 = cr.TrainingSample(rng.normal(size=40), rng.normal(size=40))
    grid21 = cr.EvalGrid(np.linspace(-0.93, 0.91, 21))
    den, _ = cr.invert_cf(s40, lap5, cr.FourierConfig(cutoff=400.0), grid21)
    np.testing.assert_allclose(den, cr.predictor_density(s40, lap5, grid21.points),
                               atol=1e-3)
    rng = np.random.default_rng(14)
    sc = cr.TrainingSample(rng.normal(size=25), np.full(25, 3.5))
    vv = rng.normal(size=2000)
    repc = cr.ReplicatedSample(np.stack([vv + rng.laplace(0, 0.3, 2000),
                                         vv + rng.laplace(0, 0.3, 2000)], axis=1))
    curve = cr.fit_fourier(sc, repc, cr.FourierConfig(cutoff=3.0),
                           cr.EvalGrid(np.linspace(-1, 1, 11)))
    np.testing.assert_allclose(curve.values[curve.defined], 3.5, atol=1e-9)

    # proxy calibration
    fit = cr.fit_linear_proxy([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    assert close(fit.intercept, 1.0, 1e-12) and close(fit.slope, 2.0, 1e-12)
    assert fit.residual_variance <= 1e-24
    fit = cr.fit_linear_proxy([0.0, 1.0, 2.0], [1.0, 3.0, 4.0])
    assert close(fit.slope, 1.5, 1e-12) and close(fit.intercept, 7 / 6, 1e-12)
    with pytest.raises(cr.DegenerateDesignError):
        cr.fit_linear_proxy([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    ident = cr.fit_linear_proxy([0.0, 1.0], [0.0, 1.0])
    np.testing.assert_allclose(cr.impute_predictors(ident, [0.3, 0.9]), [0.3, 0.9],
                               atol=1e-14)
    aff = cr.fit_linear_proxy([0.0, 1.0], [1.0, 3.0])
    np.testing.assert_allclose(cr.impute_predictors(aff, [0.0, 1.0]), [1.0, 3.0])
    tq = np.array([0.2, 0.4, 0.9])
    assert cr.error_variance(aff, tq, 1.0 + 2.0 * tq) <= 1e-24
    flat = cr.fit_linear_proxy([0.0, 1.0], [0.0, 0.0])
    assert close(cr.error_variance(flat, [0.0, 1.0], [-1.0, 1.0]), 2.0, 1e-12)
    with pytest.raises(ValueError):
        cr.error_variance(flat, [0.5], [0.1])

    # kernel baseline
    s3 = cr.TrainingSample([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
    assert close(cr.nw_estimate(s3, 0.7, 0.4), 3.0, 1e-12)
    assert close(cr.nw_estimate(cr.TrainingSample([0.5], [4.0]), 1.0, 2.0), 4.0, 1e-12)
    assert close(cr.nw_estimate(two, 1.0, 0.5), 1.0, 1e-12)
    from coarsereg.nw import cv_grid, loo_score
    consts = cr.TrainingSample([0.0, 0.4, 1.0], [2.0, 2.0, 2.0])
    assert cr.cv_bandwidth(consts) == cv_grid(consts)[0]
    scn = cr.ScenarioConfig(model="logistic", n=250, predictor_noise=0.25, seed=1)
    noisy = cr.generate(scn).noisy_training()
    gridh = cv_grid(noisy)
    scores = np.array([loo_score(noisy, h) for h in gridh])
    assert cr.cv_bandwidth(noisy) == gridh[int(np.argmin(scores))]
    rng = np.random.default_rng(54)
    sd = cr.TrainingSample(rng.uniform(0, 1, 25), rng.normal(size=25))
    dup = cr.TrainingSample(np.concatenate([sd.w, sd.w]), np.concatenate([sd.y, sd.y]))
    for hh in cv_grid(sd):
        assert loo_score(dup, hh) <= loo_score(sd, hh) + 1e-15

    # simulation scaffolding
    m1 = cr.ScenarioConfig(model="m1", n=100, predictor_noise=0.25,
                           response_noise=0.1, error_kind="uniform", seed=5)
    delta_var, eps_var = cr.calibrate(m1)
    assert close(delta_var, 0.25 / 12.0, 1e-12)
    zero = cr.ScenarioConfig(model="m1", n=50, predictor_noise=0.0, response_noise=0.0)
    assert cr.calibrate(zero) == (0.0, 0.0)
    assert close(cr.regression_bound("m1"), 9.480255711, 1e-8)
    assert close(eps_var, 0.1 * cr.regression_bound("m1"), 1e-9)
    a, b = cr.generate(m1), cr.generate(m1)
    np.testing.assert_array_equal(a.w, b.w)
    assert set(np.unique(cr.generate(scn).y)) <= {0.0, 1.0}
    noiseless = cr.ScenarioConfig(model="m1", n=200, predictor_noise=0.25,
                                  response_noise=0.0)
    dsn = cr.generate(noiseless)
    np.testing.assert_array_equal(dsn.y, cr.regression_function("m1", dsn.w))
    constant = cr.ScenarioConfig(model="constant", n=50, predictor_noise=0.25,
                                 response_noise=0.1)
    assert close(cr.true_regression(constant, 0.5), 0.7)
    assert cr.true_regression(zero, 0.3) == cr.regression_function("m1", 0.3)
    assert close(cr.true_regression(scn, 0.0), 0.5, 1e-8)
    gridi = cr.default_grid(m1, count=31)
    truth = np.array([cr.true_regression(m1, float(x)) for x in gridi.points])
    exact = cr.RegressionCurve(grid=gridi, values=truth)
    assert cr.integrated_squared_error(exact, m1) <= 1e-20
    gridc = cr.EvalGrid(np.linspace(0.3, 0.8, 21))
    offset = cr.RegressionCurve(grid=gridc, values=np.full(21, 0.9))
    assert close(cr.integrated_squared_error(offset, constant), 0.04 * 0.5, 1e-12)
    errs = []
    for count in (11, 21, 41):
        gl = cr.EvalGrid(np.linspace(0.0, 1.0, count))
        cl = cr.RegressionCurve(grid=gl, values=0.7 + gl.points)
        errs.append(abs(cr.integrated_squared_error(cl, constant) - 1.0 / 3.0))
    assert errs[0] > errs[1] > errs[2]
    rep1 = cr.run_replications(scn, cr.EstimatorSpec(), reps=1,
                               grid=cr.EvalGrid([-0.2, 0.0, 0.2]), master_seed=1)
    dd = rep1.decile_curves
    assert dd["d1"]["values"] == dd["d5"]["values"] == dd["d9"]["values"]
    sanity = cr.run_replications(
        cr.ScenarioConfig(model="constant", n=40, predictor_noise=0.0,
                          response_noise=0.0),
        cr.EstimatorSpec(method="known", density=cr.ErrorDensity.gaussian(0.1)),
        reps=3, grid=cr.EvalGrid(np.linspace(0.2, 0.8, 13)), master_seed=3)
    assert all(v <= 1e-10 for v in sanity.ise)

    print("\n[criterion 1] PASS - unit oracles: every worked example holds")


# ---------------------------------------------------------- criterion 2


def test_criterion_2_root_n_rate(rate_reports):
    rmse = {n: rate_reports[n].rmse[repr(0.0)] for n in (100, 400, 1600)}
    r1 = rmse[100] / rmse[400]
    r2 = rmse[400] / rmse[1600]
    assert 1.7 <= r1 <= 2.3, f"RMSE(100)/RMSE(400) = {r1:.3f} outside [1.7, 2.3]"
    assert 1.7 <= r2 <= 2.3, f"RMSE(400)/RMSE(1600) = {r2:.3f} outside [1.7, 2.3]"
    print(f"\n[criterion 2] PASS - root-n rate: ratios {r1:.3f}, {r2:.3f} in [1.7, 2.3]")


# ---------------------------------------------------------- criterion 3


def test_criterion_3_ci_coverage():
    scn = cr.ScenarioConfig(model="logistic", n=250, predictor_noise=0.25)
    report = cr.run_replications(
        scn, cr.EstimatorSpec(method="known"), reps=500, grid=RATE_GRID,
        master_seed=21, coverage_points=(0.0,), alpha=0.05,
    )
    rate = report.coverage["points"][repr(0.0)]["rate"]
    assert 0.91 <= rate <= 0.98, f"coverage {rate:.3f} outside [0.91, 0.98]"
    print(f"\n[criterion 3] PASS - 95% CI coverage at the center: {rate:.3f}")


# ---------------------------------------------------------- criterion 4


def test_criterion_4_fourier_agreement():
    # Laplace contamination with polynomial CF decay 2; predictor scale is
    # wide so the default rate-bracket cutoff covers the signal spectrum.
    rng = np.random.default_rng(42)
    sigma_w, n, n_groups = 8.0, 200, 20_000
    b = math.sqrt(0.25 * sigma_w**2 / 2.0)
    w = rng.normal(0, sigma_w, n)
    y = expit(0.75 * w) + rng.normal(0, 0.1, n)
    sample = cr.TrainingSample(w, y)
    v = rng.normal(0, sigma_w, n_groups)
    rep = cr.ReplicatedSample(np.stack(
        [v + rng.laplace(0, b, n_groups), v + rng.laplace(0, b, n_groups)], axis=1))

    cutoff = cr.select_cutoff(rep, n, error_decay=2.0)
    grid = cr.EvalGrid(np.linspace(-8.0, 8.0, 101))
    cfg = cr.FourierConfig(cutoff=cutoff)
    direct = cr.fit_known(sample, cr.ErrorDensity.laplace(b), grid)
    fourier = cr.fit_fourier(sample, rep, cfg, grid)
    assert direct.defined.all() and fourier.defined.all()
    spread = float(np.max(direct.values) - np.min(direct.values))
    sup = float(np.max(np.abs(fourier.values - direct.values)))
    assert sup <= 0.05 * spread, f"sup diff {sup:.4f} > 5% of range {spread:.4f}"
    print(f"\n[criterion 4] PASS - known vs Fourier agreement: sup diff "
          f"{sup:.4f} <= {0.05 * spread:.4f} (cutoff {cutoff:.3f})")


# ---------------------------------------------------------- criterion 5


def test_criterion_5_beats_nadaraya_watson():
    scn = cr.ScenarioConfig(model="m1", n=250, predictor_noise=0.25,
                            response_noise=0.1, error_kind="uniform")
    grid = cr.default_grid(scn)
    known = cr.run_replications(scn, cr.EstimatorSpec(method="known"), reps=200,
                                grid=grid, master_seed=50)
    nw = cr.run_replications(scn, cr.EstimatorSpec(method="nw"), reps=200,
                             grid=grid, master_seed=50)
    med_known = float(np.median([v for v in known.ise if v is not None]))
    med_nw = float(np.median([v for v in nw.ise if v is not None]))
    assert med_known < med_nw, f"known {med_known:.4f} not below NW {med_nw:.4f}"
    print(f"\n[criterion 5] PASS - median ISE known {med_known:.4f} < "
          f"Nadaraya-Watson {med_nw:.4f}")


# ---------------------------------------------------------- criterion 6


def test_criterion_6_error_cf_consistency():
    rng = np.random.default_rng(6)
    b, n_pairs = 0.5, 50_000
    v = rng.normal(0, 1, n_pairs)
    rep = cr.ReplicatedSample(np.stack(
        [v + rng.laplace(0, b, n_pairs), v + rng.laplace(0, b, n_pairs)], axis=1))
    t = np.arange(-100, 101) * 0.05
    table = cr.error_cf_from_replicates(rep, t)
    sup = float(np.max(np.abs(table.values - 1.0 / (1.0 + b**2 * t**2))))
    assert sup <= 0.02, f"sup CF error {sup:.4f} > 0.02"
    print(f"\n[criterion 6] PASS - replicate CF estimate: sup error {sup:.4f} <= 0.02")


# ---------------------------------------------------------- criterion 7


def test_criterion_7_misspecification_robustness():
    scn = cr.ScenarioConfig(model="m1", n=250, predictor_noise=0.1,
                            response_noise=0.1, error_kind="uniform")
    grid = cr.default_grid(scn)
    delta_var, _ = cr.calibrate(scn)
    matched = cr.ErrorDensity.gaussian(math.sqrt(delta_var))
    correct = cr.run_replications(scn, cr.EstimatorSpec(method="known"), reps=200,
                                  grid=grid, master_seed=70)
    wrong = cr.run_replications(scn, cr.EstimatorSpec(method="known", density=matched),
                                reps=200, grid=grid, master_seed=70)
    med_c = float(np.median([v for v in correct.ise if v is not None]))
    med_w = float(np.median([v for v in wrong.ise if v is not None]))
    assert med_w <= 2.0 * med_c, f"misspecified {med_w:.4f} > 2x correct {med_c:.4f}"
    print(f"\n[criterion 7] PASS - variance-matched misspecification: "
          f"{med_w:.4f} <= 2 x {med_c:.4f}")


# ---------------------------------------------------------- criterion 8


def test_criterion_8_proxy_pipeline():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 1, 10_000)
        x = 1.0 + 2.0 * t + rng.normal(0, 0.2, 10_000)
        hits += abs(cr.fit_linear_proxy(t, x).slope - 2.0) < 0.02
    assert hits >= 95, f"slope within 0.02 in only {hits}/100 seeds"

    theta = (1.0, 2.0)
    rng_eval = np.random.default_rng(123)
    t_eval = rng_eval.uniform(0, 1, 200)
    y_eval = np.sin(2 * np.pi * t_eval) + rng_eval.normal(0, 0.1, 200)
    err = cr.ErrorDensity.gaussian(0.3)
    grid = cr.EvalGrid(np.linspace(1.2, 2.8, 81))
    base = cr.fit_known(cr.TrainingSample(theta[0] + theta[1] * t_eval, y_eval),
                        err, grid)
    diffs = []
    for r in (100, 1000, 10_000):
        rng = np.random.default_rng((0, r))
        t_fit = rng.uniform(0, 1, r)
        x_fit = theta[0] + theta[1] * t_fit + rng.normal(0, 0.2, r)
        fit = cr.fit_linear_proxy(t_fit, x_fit)
        curve = cr.fit_known_proxy(fit, t_eval, y_eval, err, grid)
        diffs.append(float(np.nanmax(np.abs(curve.values - base.values))))
    assert diffs[0] > diffs[1] > diffs[2], f"not monotone: {diffs}"
    print(f"\n[criterion 8] PASS - proxy pipeline: slope hits {hits}/100, "
          f"imputation error {diffs[0]:.4f} > {diffs[1]:.4f} > {diffs[2]:.4f}")


# ---------------------------------------------------------- criterion 9


def test_criterion_9_heart_disease_recipe():
    path = os.environ.get("COARSEREG_HEART_DATA", str(DATA / "SAheart.csv"))
    if not os.path.exists(path):
        print("\n[criterion 9] SKIP - heart-disease data file not present")
        pytest.skip("heart-disease data file not present (user-supplied)")
    from coarsereg.heart import heart_disease_calibration

    result = heart_disease_calibration(path)
    fit = result["fit"]
    assert abs(fit.intercept - 4.8890) <= 1e-3, f"intercept {fit.intercept:.4f}"
    assert abs(fit.slope - 0.3663) <= 1e-3, f"slope {fit.slope:.4f}"
    print(f"\n[criterion 9] PASS - heart-disease calibration: "
          f"({fit.intercept:.4f}, {fit.slope:.4f}), n={result['n_used']}")


# ---------------------------------------------------------- criterion 10


def test_criterion_10_determinism(rate_reports):
    # the rerun sees one CPU; the threaded run sees two, every pass pooling,
    # so the replicates are shared one at a time by the calling thread and
    # the pool thread, instead of stacked in chunks on the calling thread
    base = rate_reports[400].to_json()
    with cpus(1):
        rerun = run_rate_study(400).to_json()
    threads, recording = replicate_threads(delay=0.1)
    with pool_of(2), recording:
        threaded = run_rate_study(400).to_json()
    assert any(name.startswith("coarsereg-rows") for name in threads), \
        "no replicate reached the pool thread"
    assert base == rerun, "report differs between two identical runs"
    assert base == threaded, "report differs across thread counts"
    print("\n[criterion 10] PASS - study report byte-identical across runs "
          "and thread counts")
