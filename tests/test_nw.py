import math

import numpy as np
import pytest

from coarsereg import (
    EvalGrid,
    NwConfig,
    ScenarioConfig,
    TrainingSample,
    cv_bandwidth,
    fit_nw,
    generate,
    nw_estimate,
)
from coarsereg.nw import _gauss_from_exponent, _loo_scores, cv_grid, loo_score

# the two cells of the NW replication benchmark (simulate --estimator nw)
STUDY_NW_CELLS = {
    "m1": ScenarioConfig(model="m1", n=250, predictor_noise=0.25, response_noise=0.1,
                         seed=11),
    "sine2": ScenarioConfig(model="sine2", n=250, predictor_noise=0.25, seed=12),
}


class TestNwEstimate:
    def test_constant_responses(self):
        s = TrainingSample([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        for h in (0.1, 1.0, 10.0):
            assert nw_estimate(s, h, 0.7) == pytest.approx(3.0, abs=1e-12)

    def test_single_point(self):
        s = TrainingSample([0.5], [4.0])
        for x in (-1.0, 0.5, 3.0):
            assert nw_estimate(s, 1.0, x) == pytest.approx(4.0, abs=1e-12)

    def test_symmetric_weights(self):
        s = TrainingSample([0.0, 1.0], [0.0, 2.0])
        assert nw_estimate(s, 1.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(51)
        s = TrainingSample(rng.normal(size=50), rng.normal(size=50))
        for h in (0.2, 1.0):
            curve = fit_nw(s, h, EvalGrid(np.linspace(-2, 2, 21)))
            ok = curve.defined
            assert np.all(curve.values[ok] >= s.y.min() - 1e-12)
            assert np.all(curve.values[ok] <= s.y.max() + 1e-12)

    def test_large_bandwidth_gives_mean(self):
        rng = np.random.default_rng(52)
        s = TrainingSample(rng.uniform(0, 1, 60), rng.normal(size=60))
        h = 1e6 * (s.w.max() - s.w.min())
        assert nw_estimate(s, h, 0.5) == pytest.approx(float(s.y.mean()), abs=1e-6)

    def test_bandwidth_validation(self):
        s = TrainingSample([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            nw_estimate(s, 0.0, 0.5)


class TestCvBandwidth:
    @staticmethod
    def brute_force_scores(sample, grid):
        """Independent per-point LOO evaluation."""
        scores = []
        for h in grid:
            total = 0.0
            for i in range(sample.n):
                d = (sample.w[i] - np.delete(sample.w, i)) / h
                k = np.exp(-0.5 * d**2) / np.sqrt(2 * np.pi)
                den = k.sum()
                if den == 0.0:
                    total = float("inf")
                    break
                total += (sample.y[i] - (k @ np.delete(sample.y, i)) / den) ** 2
            scores.append(total / sample.n if np.isfinite(total) else float("inf"))
        return np.array(scores)

    def test_explicit_bandwidth_passthrough(self):
        s = TrainingSample([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        assert cv_bandwidth(s, NwConfig(bandwidth=0.37)) == 0.37

    def test_score_matches_brute_force_term_by_term(self):
        rng = np.random.default_rng(53)
        s = TrainingSample(rng.uniform(0, 1, 40), rng.normal(size=40))
        grid = cv_grid(s)
        fast = np.array([loo_score(s, h) for h in grid])
        slow = self.brute_force_scores(s, grid)
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    @pytest.mark.parametrize("cell", sorted(STUDY_NW_CELLS))
    def test_study_cell_scores_match_brute_force(self, cell):
        s = generate(STUDY_NW_CELLS[cell]).noisy_training()
        grid = cv_grid(s)
        fast = _loo_scores(s, grid)
        np.testing.assert_allclose(fast, self.brute_force_scores(s, grid), rtol=1e-10)
        assert cv_bandwidth(s) == grid[int(np.argmin(fast))]

    def test_isolated_point_scores_inf_at_small_bandwidth(self):
        w = np.concatenate([np.linspace(0.0, 1.0, 21), [50.0]])
        s = TrainingSample(w, np.sin(w))
        # 49 / 0.05 = 980 bandwidths from its neighbour: every weight is 0
        assert loo_score(s, 0.05) == float("inf")
        assert self.brute_force_scores(s, [0.05])[0] == float("inf")
        assert np.isfinite(loo_score(s, 5.0))

    def test_zero_bandwidth_scores_inf(self):
        s = TrainingSample([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert loo_score(s, 0.0) == float("inf")

    def test_subnormal_only_weights_keep_score_finite(self):
        h = 0.01
        w = np.concatenate([np.linspace(0.0, 0.1, 11), [0.1 + 38.0 * h]])
        y = np.array([0.0, 1.0] * 6)
        s = TrainingSample(w, y)
        # the last point's nearest neighbour is 38 h away: its one non-zero
        # weight is subnormal, the next neighbour's (39 h) underflows to 0
        assert 0.0 < np.exp(-0.5 * 38.0**2) < np.finfo(float).tiny
        assert np.exp(-0.5 * 39.0**2) == 0.0
        score = loo_score(s, h)
        assert np.isfinite(score)
        np.testing.assert_allclose(score, self.brute_force_scores(s, [h])[0], rtol=1e-10)

    def test_logistic_sample_selection_reproduced(self):
        # noisy-predictor sample from the Bernoulli logistic scenario
        scn = ScenarioConfig(model="logistic", n=250, predictor_noise=0.25, seed=1)
        s = generate(scn).noisy_training()
        grid = cv_grid(s)
        chosen = cv_bandwidth(s)
        brute = grid[int(np.argmin(self.brute_force_scores(s, grid)))]
        assert chosen == brute

    def test_duplicated_sample_scores_weakly_below(self):
        rng = np.random.default_rng(54)
        s = TrainingSample(rng.uniform(0, 1, 25), rng.normal(size=25))
        dup = TrainingSample(np.concatenate([s.w, s.w]), np.concatenate([s.y, s.y]))
        for h in cv_grid(s):
            assert loo_score(dup, h) <= loo_score(s, h) + 1e-15

    def test_ties_break_to_smaller(self):
        # constant responses: every bandwidth scores 0, grid is ascending
        s = TrainingSample([0.0, 0.4, 1.0], [2.0, 2.0, 2.0])
        grid = cv_grid(s)
        assert cv_bandwidth(s) == grid[0]

    def test_needs_three_points(self):
        s = TrainingSample([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="at least 3"):
            cv_bandwidth(s)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NwConfig(cv_points=4)
        with pytest.raises(ValueError):
            NwConfig(bandwidth=-1.0)


class TestGaussFromExponent:
    @staticmethod
    def exponents():
        zero = -1075.0 * math.log(2.0)  # exp rounds to 0 at and below this
        band = np.linspace(zero, -700.0, 4000)
        wide = np.linspace(-800.0, 0.0, 4000)
        edges = [-700.0, np.nextafter(-700.0, -np.inf), zero, np.nextafter(zero, 0.0),
                 np.nextafter(zero, -np.inf), -745.0, -800.0, 0.0]
        return np.concatenate([band, wide, edges]).reshape(8, -1)

    def test_bit_identical_to_exp(self):
        a = self.exponents()
        expected = np.exp(a) / np.sqrt(2.0 * np.pi)
        assert np.any((expected > 0.0) & (expected < np.finfo(float).tiny))
        got = _gauss_from_exponent(a.copy(), float(a.min()))
        assert np.array_equal(got, expected)

    def test_no_clamp_above_fast_path_floor(self):
        a = np.linspace(-700.0, 0.0, 5001)
        got = _gauss_from_exponent(a.copy(), -700.0)
        assert np.array_equal(got, np.exp(a) / np.sqrt(2.0 * np.pi))
