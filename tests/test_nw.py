import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarsereg import (
    EstimatorSpec,
    EvalGrid,
    ScenarioConfig,
    TrainingSample,
    cv_bandwidth,
    default_grid,
    fit_nw,
    generate,
    integrated_squared_error,
    nw_estimate,
    run_replications,
    true_regression,
)
from coarsereg import known, simulation
from coarsereg.nw import _loo_scores, cv_grid, loo_score
from coarsereg.simulation import _replicates

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

    @pytest.mark.parametrize("bandwidth", ["cv", 0.05])
    def test_study_estimates_are_nw_estimate(self, bandwidth):
        # a replicate takes its curve and all its rmse points from one kernel
        # pass, stacked with the other replicates of its chunk at a fixed
        # bandwidth; each row gives the bits fit_nw and nw_estimate give its
        # point alone
        scn, points = STUDY_NW_CELLS["m1"], (0.25, 0.5, 0.75)
        spec = EstimatorSpec(method="nw", bandwidth=bandwidth)
        report = run_replications(scn, spec, reps=3, master_seed=scn.seed, rmse_points=points)
        assert report.failures == 0
        grid = default_grid(scn)
        xs = np.concatenate([grid.points, points])
        chunks = [[0], [1], [2]] if bandwidth == "cv" else [[0, 1, 2]]
        results = [r for idxs in chunks
                   for r in _replicates(scn, spec, None, xs, len(grid), (), 0.05, scn.seed, idxs)]
        errs = {p: [] for p in points}
        for idx, (values, at, lo, hi) in enumerate(results):
            sample = generate(scn, np.random.default_rng((scn.seed, idx))).noisy_training()
            h = cv_bandwidth(sample) if bandwidth == "cv" else bandwidth
            assert values.tobytes() == fit_nw(sample, h, grid).values.tobytes()
            assert at.tolist() == [nw_estimate(sample, h, p) for p in points]
            assert np.isnan(lo).all() and np.isnan(hi).all()
            for p, estimate in zip(points, at):
                errs[p].append(estimate - true_regression(scn, p))
        for p in points:
            assert report.rmse[repr(p)] == float(np.sqrt(np.mean(np.array(errs[p]) ** 2)))

    @pytest.mark.parametrize("bandwidth", ["cv", 0.05])
    def test_only_cv_studies_fit_one_replicate_per_chunk(self, bandwidth):
        # at the real pooling threshold a fixed bandwidth's replicates stack
        # like known-error ones; a CV replicate picks its own bandwidth
        chunks, replicates = [], simulation._replicates

        def recording(*args):
            chunks.append(len(args[-1]))
            return replicates(*args)

        spec = EstimatorSpec(method="nw", bandwidth=bandwidth)
        with mock.patch.object(simulation, "_replicates", recording):
            report = run_replications(STUDY_NW_CELLS["m1"], spec, reps=6, master_seed=3,
                                      rmse_points=(0.5,))
        assert report.failures == 0 and sum(chunks) == 6
        assert (max(chunks) > 1) == (bandwidth != "cv")

    def test_bandwidth_validation(self):
        s = TrainingSample([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            nw_estimate(s, 0.0, 0.5)

    @pytest.mark.parametrize("h", [np.inf, np.nan])
    def test_non_finite_bandwidth_is_refused(self, h):
        # an infinite bandwidth gave the flat curve mean(y) on every grid
        s = TrainingSample([0.0, 0.5, 1.0], [0.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="positive and finite"):
            nw_estimate(s, h, 0.5)
        with pytest.raises(ValueError, match="positive and finite"):
            fit_nw(s, h, EvalGrid.linspace(0.0, 1.0, 3))


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

    def test_study_fits_with_the_explicit_bandwidth(self):
        scn = STUDY_NW_CELLS["m1"]
        report = run_replications(scn, EstimatorSpec(method="nw", bandwidth=0.05), reps=2,
                                  master_seed=scn.seed)
        # replicate 0 draws its data from the generator seeded (master_seed, 0)
        data = generate(scn, np.random.default_rng((scn.seed, 0)))
        curve = fit_nw(data.noisy_training(), 0.05, default_grid(scn))
        assert report.ise[0] == integrated_squared_error(curve, scn)

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

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="long double is float64 here")
    def test_smallest_finite_bandwidth_matches_long_double(self):
        # the nearest-neighbour weights of this sample's most isolated point
        # are subnormal in float64 at the smallest finite CV bandwidth
        scn = ScenarioConfig(model="m1", n=250, predictor_noise=0.25, response_noise=0.1)
        s = generate(scn, np.random.default_rng(44)).noisy_training()
        grid = cv_grid(s)
        scores = _loo_scores(s, grid)
        j = int(np.flatnonzero(np.isfinite(scores))[0])
        w, y = s.w.astype(np.longdouble), s.y.astype(np.longdouble)
        k = np.exp(-0.5 * np.square(np.subtract.outer(w, w) / np.longdouble(grid[j])))
        np.fill_diagonal(k, 0.0)
        assert 0.0 < float(k.sum(axis=1).min()) < np.finfo(float).tiny
        want = np.mean(np.square(y - (k @ y) / k.sum(axis=1)))
        assert abs(scores[j] - want) <= 1e-14 * want

    @pytest.mark.thorough
    @given(cluster=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=12),
           gaps=st.lists(st.floats(0.5, 200.0), min_size=1, max_size=3))
    def test_inf_pattern_matches_brute_force(self, cluster, gaps):
        # points beyond the cluster, each `gap` past the previous one
        w = np.concatenate([cluster, 1.0 + np.cumsum(gaps)])
        s = TrainingSample(w, np.cos(3.0 * w))
        grid = cv_grid(s)
        want = np.isinf(self.brute_force_scores(s, grid))
        np.testing.assert_array_equal(np.isinf(_loo_scores(s, grid)), want)

    @pytest.mark.parametrize("cell", sorted(STUDY_NW_CELLS))
    def test_row_blocks_leave_selection_unchanged(self, cell, monkeypatch):
        s = generate(STUDY_NW_CELLS[cell]).noisy_training()
        grid = cv_grid(s)
        whole, chosen = _loo_scores(s, grid), cv_bandwidth(s)
        monkeypatch.setattr(known, "_BLOCK_BYTES", 8 * s.n * 7)  # 7-row blocks
        np.testing.assert_allclose(_loo_scores(s, grid), whole, rtol=1e-12)
        assert cv_bandwidth(s) == chosen

    def test_peak_memory_is_a_few_row_blocks(self):
        n = 4000
        rng = np.random.default_rng(55)
        s = TrainingSample(rng.uniform(0.0, 1.0, n), rng.normal(size=n))
        grid = cv_grid(s)[::8]
        # two n x n matrices would take 2 * 8 * n**2 = 256 MB
        tracemalloc.start()
        try:
            _loo_scores(s, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, f"peak {peak} B"

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
        # an infinite bandwidth was accepted and reported as null
        for bandwidth in (-1.0, 0, "CV", float("inf"), float("nan")):
            with pytest.raises(ValueError, match="'cv' or positive"):
                EstimatorSpec(method="nw", bandwidth=bandwidth)

