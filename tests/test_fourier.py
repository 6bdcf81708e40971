import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsereg.fourier
from coarsereg import known
from coarsereg import (
    CfTable,
    ErrorDensity,
    EvalGrid,
    FourierConfig,
    LinearProxyFit,
    MissingDecayError,
    ReplicatedSample,
    ResolutionError,
    TrainingSample,
    empirical_cfs,
    error_cf_from_replicates,
    fit_fourier,
    fit_fourier_proxy,
    fit_known,
    invert_cf,
    predictor_density,
    select_cutoff,
    symmetric_tgrid,
)


def make_pairs(rng, n_groups, error_scale, center_scale=1.0):
    v = rng.normal(0, center_scale, n_groups)
    u1 = v + rng.laplace(0, error_scale, n_groups)
    u2 = v + rng.laplace(0, error_scale, n_groups)
    return ReplicatedSample(np.stack([u1, u2], axis=1))


class TestErrorCf:
    def test_value_at_zero_is_exactly_one(self):
        rng = np.random.default_rng(1)
        rep = make_pairs(rng, 200, 0.5)
        tab = error_cf_from_replicates(rep, symmetric_tgrid(2.0, 0.1))
        mid = len(tab.t) // 2
        assert tab.t[mid] == 0.0
        assert tab.values[mid] == 1.0

    def test_single_pair_is_unit_modulus(self):
        rep = ReplicatedSample([[0.0, 1.0]])
        t = symmetric_tgrid(3.0, 0.5)
        tab = error_cf_from_replicates(rep, t)
        np.testing.assert_allclose(tab.values, 1.0, atol=1e-12)

    def test_two_pair_cancellation_at_pi(self):
        # differences -1 and -2: (exp(-i pi) + exp(-2 i pi)) / 2 = 0
        rep = ReplicatedSample([[0.0, 1.0], [0.0, 2.0]])
        t = np.array([-math.pi, 0.0, math.pi])
        tab = error_cf_from_replicates(rep, t)
        assert tab.values[0] == pytest.approx(0.0, abs=1e-7)
        assert tab.values[2] == pytest.approx(0.0, abs=1e-7)

    def test_bounds_and_evenness(self):
        rng = np.random.default_rng(2)
        rep = make_pairs(rng, 500, 0.7)
        tab = error_cf_from_replicates(rep, symmetric_tgrid(5.0, 0.25))
        assert np.all(tab.values >= 0.0)
        assert np.all(tab.values <= 1.0)
        np.testing.assert_allclose(tab.values, tab.values[::-1], atol=1e-12)


class TestEmpiricalCfs:
    def test_at_zero(self):
        s = TrainingSample([0.2, 0.8, 1.5], [1.0, 2.0, 3.0])
        plain, weighted = empirical_cfs(s, np.array([-1.0, 0.0, 1.0]))
        assert plain.values[1] == 1.0 + 0.0j
        assert weighted.values[1] == pytest.approx(np.mean(s.y), abs=1e-15)

    def test_single_point_modulus_one(self):
        s = TrainingSample([0.0], [5.0])
        plain, _ = empirical_cfs(s, symmetric_tgrid(4.0, 0.5))
        np.testing.assert_allclose(plain.values, 1.0, atol=1e-15)

    def test_hand_cancellation(self):
        s = TrainingSample([0.0, math.pi], [1.0, 1.0])
        plain, _ = empirical_cfs(s, np.array([-1.0, 0.0, 1.0]))
        assert abs(plain.values[2]) == pytest.approx(0.0, abs=1e-15)

    def test_hermitian(self):
        rng = np.random.default_rng(3)
        s = TrainingSample(rng.normal(size=30), rng.normal(size=30))
        plain, weighted = empirical_cfs(s, symmetric_tgrid(3.0, 0.2))
        for tab in (plain, weighted):
            np.testing.assert_array_equal(tab.values, np.conj(tab.values[::-1]))


@st.composite
def mirrored_cases(draw):
    """A symmetric grid, points and weights over several orders of magnitude."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 500))
    t = symmetric_tgrid(draw(st.integers(1, 200)) * 1.0, 1.0) * draw(
        st.floats(1e-3, 10.0))
    points = rng.normal(draw(st.sampled_from([0.0, 3.0])), draw(
        st.sampled_from([0.01, 1.0, 100.0])), n)
    return t, points, rng.normal(size=n)


class TestHalfGrid:
    @settings(deadline=None)
    @given(case=mirrored_cases())
    def test_mirror_gives_the_full_evaluation_bits(self, case):
        # one node past the grid makes it even-length, so every t is
        # evaluated; each t's means depend on that t alone
        t, points, weights = case
        assert np.array_equal(t[::-1], -t)
        full_t = np.append(t, t[-1] + 1.0)
        mean_exp = coarsereg.fourier._mean_exp
        for w in (weights, None):
            for got, want in zip(mean_exp(t, points, w), mean_exp(full_t, points, w)):
                np.testing.assert_array_equal(got, None if want is None else want[:-1])


class TestCfTable:
    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError, match="uniform"):
            CfTable(t=np.array([-1.0, 0.0, 2.0]), values=np.zeros(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CfTable(t=np.array([0.0, 1.0, 2.0]), values=np.zeros(3))

    def test_rejects_even_length(self):
        with pytest.raises(ValueError, match="odd"):
            CfTable(t=np.array([-1.5, -0.5, 0.5, 1.5]), values=np.zeros(4))


class TestSelectCutoff:
    def test_override_returned_unchanged(self):
        rng = np.random.default_rng(4)
        rep = make_pairs(rng, 100, 0.5)
        assert select_cutoff(rep, 50, override=7.25) == 7.25

    def test_rate_cap_arithmetic(self):
        # CF stays near 1 on the probed range, so the cap decides
        rng = np.random.default_rng(5)
        v = rng.normal(size=10_000)
        rep = ReplicatedSample(
            np.stack([v + rng.normal(0, 0.01, v.size), v + rng.normal(0, 0.01, v.size)], axis=1)
        )
        tau = select_cutoff(rep, n=100, error_decay=2.0)
        assert tau == pytest.approx(10_000 ** (1.0 / 6.0) / math.log(10_000), rel=1e-12)

    def test_noise_floor_cut_wins_when_cf_dips(self):
        # large error scale drives the CF under the floor inside the cap
        rng = np.random.default_rng(6)
        rep = make_pairs(rng, 5000, 40.0, center_scale=0.1)
        floor = 5000 ** (-0.25)
        cap = 5000 ** (1.0 / 6.0) / math.log(5000)
        tau = select_cutoff(rep, n=100, error_decay=2.0)
        assert tau < cap
        # independent re-evaluation of the whole policy: noise-floor
        # crossing on the probe grid, lifted to the lower-rate guard
        probe = np.linspace(0.0, cap, 513)[1:]
        pad = np.concatenate([-probe[::-1], [0.0], probe])
        vals = error_cf_from_replicates(rep, pad).values[len(probe) + 1 :]
        crossing = probe[np.nonzero(vals <= floor)[0][0]]
        guard = 100 ** (1.0 / (2.0 * (4.0 + 2.0 - 1.0))) / math.log(100)
        assert guard <= cap
        assert tau == pytest.approx(max(crossing, guard), rel=1e-12)

    def test_density_metadata_supplies_decay(self):
        rng = np.random.default_rng(7)
        rep = make_pairs(rng, 1000, 0.01)
        tau_meta = select_cutoff(rep, 50, density=ErrorDensity.laplace(1.0))
        tau_direct = select_cutoff(rep, 50, error_decay=2.0)
        assert tau_meta == tau_direct

    def test_missing_decay(self):
        rng = np.random.default_rng(8)
        rep = make_pairs(rng, 100, 0.5)
        with pytest.raises(MissingDecayError):
            select_cutoff(rep, 50)
        with pytest.raises(MissingDecayError):
            select_cutoff(rep, 50, density=ErrorDensity.gaussian(1.0))

    def test_uniform_density_rejected(self):
        rng = np.random.default_rng(9)
        rep = make_pairs(rng, 100, 0.5)
        with pytest.raises(ValueError, match="uniform"):
            select_cutoff(rep, 50, density=ErrorDensity.uniform(0.5))

    def test_probes_the_error_cf_at_512_positive_frequencies(self, monkeypatch):
        sizes = []
        mean_exp = coarsereg.fourier._mean_exp

        def spy(t, points, weights=None):
            sizes.append(len(t))
            assert np.all(t > 0)
            return mean_exp(t, points, weights)

        monkeypatch.setattr(coarsereg.fourier, "_mean_exp", spy)
        rep = make_pairs(np.random.default_rng(4), 100, 0.5)
        select_cutoff(rep, 50, error_decay=2.0)
        assert sizes == [512]

    @pytest.mark.parametrize("decays, named", [
        (dict(error_decay=-1.0), "error_decay"),
        (dict(error_decay=0.0, signal_decay=3.0), "error_decay"),
        (dict(error_decay=math.nan), "error_decay"),
        (dict(error_decay=math.inf), "error_decay"),
        (dict(error_decay=0.5, signal_decay=0.5), "signal_decay"),
        (dict(error_decay=2.0, signal_decay=math.nan), "signal_decay"),
    ])
    def test_decay_outside_the_policy_domain_rejected(self, decays, named):
        rep = make_pairs(np.random.default_rng(4), 100, 0.5)
        with pytest.raises(ValueError, match=f"^{named} must be finite"):
            select_cutoff(rep, 50, **decays)

    def test_guard_over_cap_warns(self):
        # huge n and tiny N make the rate bracket empty
        rng = np.random.default_rng(10)
        rep = make_pairs(rng, 30, 0.01)
        cap = 30 ** (1.0 / 6.0) / math.log(30)
        with pytest.warns(UserWarning, match="guard"):
            tau = select_cutoff(rep, n=10**12, error_decay=2.0, signal_decay=3.5)
        assert tau == pytest.approx(cap)


class TestFourierConfig:
    def test_resolution_invariant(self):
        with pytest.raises(ResolutionError):
            FourierConfig(cutoff=1.0, t_step=0.5)

    def test_zero_cutoff_allowed(self):
        cfg = FourierConfig(cutoff=0.0, t_step=0.5)
        assert cfg.cutoff == 0.0

    @pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan])
    def test_non_finite_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            FourierConfig(cutoff=cutoff)

    @pytest.mark.parametrize("cutoff, step", [(math.inf, 0.1), (1e308, 1e-3),
                                              (math.nan, 0.1)])
    def test_tgrid_needs_a_finite_node_count(self, cutoff, step):
        with pytest.raises(ValueError, match="cutoff/step must be finite"):
            symmetric_tgrid(cutoff, step)

    def test_resolved_spacing(self):
        grid = EvalGrid(np.linspace(-2.0, 2.0, 9))
        cfg = FourierConfig(cutoff=8.0).resolved(grid)
        assert cfg.t_step <= math.pi / (8 * 2.0)
        assert 8.0 / cfg.t_step >= 16


class TestInvert:
    def test_zero_cutoff_gives_zero(self):
        s = TrainingSample([0.0, 1.0], [1.0, 2.0])
        grid = EvalGrid([-1.0, 0.0, 1.0])
        den, num = invert_cf(s, ErrorDensity.gaussian(1.0), FourierConfig(0.0), grid)
        np.testing.assert_array_equal(den, 0.0)
        np.testing.assert_array_equal(num, 0.0)

    def test_single_point_gaussian_inversion(self):
        s = TrainingSample([0.0], [1.0])
        grid = EvalGrid([-0.5, 0.0, 0.5])
        cfg = FourierConfig(cutoff=8.0, t_step=0.01)
        den, _ = invert_cf(s, ErrorDensity.gaussian(1.0), cfg, grid)
        assert den[1] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-6)

    def test_exact_cf_round_trip_laplace(self):
        rng = np.random.default_rng(11)
        d = ErrorDensity.laplace(0.5)
        s = TrainingSample(rng.normal(size=40), rng.normal(size=40))
        grid = EvalGrid(np.linspace(-0.93, 0.91, 21))
        cfg = FourierConfig(cutoff=400.0)
        den, _ = invert_cf(s, d, cfg, grid)
        direct = predictor_density(s, d, grid.points)
        np.testing.assert_allclose(den, direct, atol=1e-3)

    def test_tail_truncation_error_decreases(self):
        rng = np.random.default_rng(12)
        d = ErrorDensity.laplace(0.5)
        s = TrainingSample(rng.normal(size=30), rng.normal(size=30))
        grid = EvalGrid(np.linspace(-0.9, 0.9, 11))
        direct = predictor_density(s, d, grid.points)
        errs = []
        for cutoff in (50.0, 100.0, 200.0, 400.0):
            den, _ = invert_cf(s, d, FourierConfig(cutoff=cutoff, t_step=0.05), grid)
            errs.append(np.max(np.abs(den - direct)))
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_phase_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(14)
        d = ErrorDensity.laplace(0.5)
        s = TrainingSample(rng.normal(size=200), rng.normal(size=200))
        grid = EvalGrid(np.linspace(-1.0, 1.0, 400))
        cfg = FourierConfig(cutoff=20.0, t_step=0.01)  # 4001 nodes
        block = known._BLOCK_BYTES
        assert known._block_len(4001, itemsize=16) < 400 // 4  # several blocks
        tracemalloc.start()
        try:
            den, num = invert_cf(s, d, cfg, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole 400 x 4001 phase matrix alone would take 25.6 MB
        assert peak < 4 * block, f"peak {peak} B"
        monkeypatch.setattr(known, "_BLOCK_BYTES", 16 * 4001 * 400)
        den_one, num_one = invert_cf(s, d, cfg, grid)
        np.testing.assert_array_equal(den, den_one)
        np.testing.assert_array_equal(num, num_one)

    def test_table_source_matches_density_source(self):
        rng = np.random.default_rng(13)
        d = ErrorDensity.laplace(0.8)
        s = TrainingSample(rng.normal(size=20), rng.normal(size=20))
        grid = EvalGrid(np.linspace(-1, 1, 5))
        cfg = FourierConfig(cutoff=10.0, t_step=0.1)
        t = symmetric_tgrid(10.0, 0.1)
        table = CfTable(t=t, values=d.cf(t))
        den_a, num_a = invert_cf(s, d, cfg, grid)
        den_b, num_b = invert_cf(s, table, cfg, grid)
        np.testing.assert_allclose(den_a, den_b, atol=1e-14)
        np.testing.assert_allclose(num_a, num_b, atol=1e-14)

    def test_table_spacing_mismatch_rejected(self):
        s = TrainingSample([0.0], [1.0])
        grid = EvalGrid([-1.0, 1.0])
        table = CfTable(t=symmetric_tgrid(10.0, 0.2), values=np.ones(101))
        with pytest.raises(ValueError, match="spacing"):
            invert_cf(s, table, FourierConfig(cutoff=10.0, t_step=0.1), grid)

    def test_table_coverage_rejected(self):
        s = TrainingSample([0.0], [1.0])
        grid = EvalGrid([-1.0, 1.0])
        table = CfTable(t=symmetric_tgrid(2.0, 0.1), values=np.ones(41))
        with pytest.raises(ValueError, match="cover"):
            invert_cf(s, table, FourierConfig(cutoff=10.0, t_step=0.1), grid)

    def test_too_coarse_grid_rejected(self):
        s = TrainingSample([0.0], [1.0])
        grid = EvalGrid([-1.0, 1.0])
        with pytest.raises(ResolutionError):
            FourierConfig(cutoff=1.0, t_step=0.25)


class TestFitFourier:
    def test_constant_responses(self):
        rng = np.random.default_rng(14)
        s = TrainingSample(rng.normal(size=25), np.full(25, 3.5))
        rep = make_pairs(rng, 2000, 0.3)
        grid = EvalGrid(np.linspace(-1, 1, 11))
        curve = fit_fourier(s, rep, FourierConfig(cutoff=3.0), grid)
        defined = curve.defined
        assert defined.any()
        np.testing.assert_allclose(curve.values[defined], 3.5, atol=1e-9)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=30)
        y = rng.normal(size=30)
        rep = make_pairs(rng, 2000, 0.3)
        grid = EvalGrid(np.linspace(-1, 1, 9))
        cfg = FourierConfig(cutoff=3.0)
        base = fit_fourier(TrainingSample(w, y), rep, cfg, grid)
        mapped = fit_fourier(TrainingSample(w, 2.0 * y + 1.0), rep, cfg, grid)
        np.testing.assert_allclose(mapped.values, 2.0 * base.values + 1.0, rtol=1e-9)

    def test_gaussian_cf_flagged(self):
        rng = np.random.default_rng(16)
        s = TrainingSample(rng.normal(size=20), rng.normal(size=20))
        grid = EvalGrid(np.linspace(-1, 1, 5))
        curve = fit_fourier(s, ErrorDensity.gaussian(0.3), FourierConfig(cutoff=8.0), grid)
        assert "warning" in curve.meta

    def test_agreement_with_known_estimator(self):
        # exact-CF route with a generous cutoff reproduces the direct fit
        rng = np.random.default_rng(17)
        d = ErrorDensity.laplace(0.4)
        w = rng.normal(size=60)
        y = np.sin(w) + rng.normal(0, 0.1, 60)
        s = TrainingSample(w, y)
        grid = EvalGrid(np.linspace(-1.1, 1.1, 12))
        fourier = fit_fourier(s, d, FourierConfig(cutoff=300.0, t_step=0.05), grid)
        direct = fit_known(s, d, grid)
        np.testing.assert_allclose(fourier.values, direct.values, atol=5e-3)


coords = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def resolver_cases(draw):
    """A sample, replicate groups of 2-4 and an admissible (cutoff, t_step)."""
    n = draw(st.integers(1, 30))
    w = draw(st.lists(coords, min_size=n, max_size=n))
    y = draw(st.lists(coords, min_size=n, max_size=n))
    groups = draw(st.lists(st.lists(coords, min_size=2, max_size=4), min_size=1, max_size=12))
    t_step = draw(st.floats(0.01, 1.0))
    cutoff = draw(st.floats(16.5, 80.0)) * t_step
    return TrainingSample(w, y), ReplicatedSample(groups), FourierConfig(cutoff, t_step)


def _bits(call):
    """The bytes of a call's arrays, or the repr of the ValueError it raised."""
    try:
        out = call()
    except ValueError as exc:
        return repr(exc)
    return [a.tobytes() for a in (out if isinstance(out, tuple) else (out.values,))]


class TestOneResolver:
    @settings(deadline=None)
    @given(case=resolver_cases())
    def test_replicates_resolve_like_their_table(self, case):
        sample, rep, cfg = case
        table = error_cf_from_replicates(rep, symmetric_tgrid(cfg.cutoff, cfg.t_step))
        grid = EvalGrid(np.linspace(-1.0, 1.0, 7))
        proxy = LinearProxyFit(intercept=0.5, slope=-2.0, n_obs=2, residual_variance=0.0)
        for fit in (
            lambda src: invert_cf(sample, src, cfg, grid),
            lambda src: fit_fourier(sample, src, cfg, grid),
            lambda src: fit_fourier_proxy(proxy, sample.w, sample.y, src, cfg, grid),
        ):
            assert _bits(lambda: fit(rep)) == _bits(lambda: fit(table))
