import math
import tracemalloc
import warnings

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


def near_one_pairs():
    """10 000 pairs whose error CF stays near 1 up to the cap."""
    rng = np.random.default_rng(5)
    v = rng.normal(size=10_000)
    return ReplicatedSample(
        np.stack([v + rng.normal(0, 0.01, v.size), v + rng.normal(0, 0.01, v.size)], axis=1))


def dipping_pairs():
    """5 000 pairs whose error CF drops under the noise floor inside the cap."""
    return make_pairs(np.random.default_rng(6), 5000, 40.0, center_scale=0.1)


def examples(count):
    """``count`` examples under the default profile, scaled by the loaded one
    as unfixed tests are (``--hypothesis-profile=thorough`` gives 20x)."""
    return count * settings.default.max_examples // 100


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


class TestOverflowingReplicates:
    """Differences or phases t d that overflow raise one located ValueError,
    with no RuntimeWarning on the way."""

    OVERFLOWING = [[1e308, -1e308], [0.0, 1.0], [2.0, 3.0]]

    @pytest.mark.parametrize("call", [
        lambda rep: error_cf_from_replicates(rep, [-1.0, 0.0, 1.0]),
        lambda rep: select_cutoff(rep, 50, error_decay=2.0),
    ], ids=["cf", "cutoff"])
    def test_overflowing_differences(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^group 0: pair differences overflow "
                                                 r"\(values from -1e\+308 to 1e\+308\)$"):
                call(ReplicatedSample(self.OVERFLOWING))

    @pytest.mark.parametrize("call", [
        lambda rep: error_cf_from_replicates(rep, [-2.0, 0.0, 2.0]),
        lambda rep: select_cutoff(rep, 50, error_decay=2.0),
    ], ids=["cf", "cutoff"])
    def test_overflowing_phases(self, call):
        # a finite difference of 1.78e308; the cutoff's cap at 2 groups is
        # 2**(1/6) / log 3 = 1.0218, and 1.0218 * 1.78e308 overflows
        rep = ReplicatedSample([[1.78e308, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^phases t\*d overflow"):
                call(rep)


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


@pytest.mark.thorough
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
        rep = near_one_pairs()
        tau = select_cutoff(rep, n=100, error_decay=2.0)
        assert tau == pytest.approx(10_000 ** (1.0 / 6.0) / math.log(10_000), rel=1e-12)

    def test_noise_floor_cut_wins_when_cf_dips(self):
        # large error scale drives the CF under the floor inside the cap
        rep = dipping_pairs()
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

    def test_exact_probes_run_from_the_first_open_one_to_the_crossing(self, monkeypatch):
        cap = 5000 ** (1.0 / 6.0) / math.log(5000)
        probe = np.linspace(0.0, cap, 513)[1:]
        dipping = dipping_pairs()
        d = dipping.pair_differences()
        floor = 5000 ** (-0.25)
        crossing = np.flatnonzero(coarsereg.fourier._error_cf(d, probe) <= floor)[0]
        bound = 1.0 - probe**2 * np.mean(d**2) * (1.0 + 1e-6) / 2.0 - (
            1e-6 + 64 * 2.0**-53 * (1.0 + probe * np.max(np.abs(d))))
        first = np.argmin(bound > floor**2)
        assert 0 < first <= crossing

        rows = []
        mean_exp = coarsereg.fourier._mean_exp

        def spy(t, points, weights=None):
            rows.append(np.array(t))
            return mean_exp(t, points, weights)

        monkeypatch.setattr(coarsereg.fourier, "_mean_exp", spy)
        # the CF stays near 1 up to the cap: every probe is certified
        select_cutoff(near_one_pairs(), n=100, error_decay=2.0)
        assert rows == []
        # blocks of 32 exact rows, in t order, from the first probe the
        # bound leaves open up to the block that holds the crossing
        select_cutoff(dipping, n=100, error_decay=2.0)
        computed = np.concatenate(rows)
        assert np.array_equal(computed, probe[first:first + len(computed)])
        assert [len(r) for r in rows[:-1]] == [32] * (len(rows) - 1)
        assert first + len(computed) - len(rows[-1]) <= crossing < first + len(computed)

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


def dense_cutoff(rep, n, error_decay):
    """select_cutoff's policy with all 512 probes exponentiated, the
    signal decay at its default and no override."""
    big_n = rep.n_groups
    cap = big_n ** (1.0 / (2.0 * (1.0 + error_decay))) / math.log(max(big_n, 3))
    tau = cap
    probe_t = np.linspace(0.0, cap, 513)[1:]
    probe_vals = coarsereg.fourier._error_cf(rep.pair_differences(), probe_t)
    floor = big_n ** (-0.25)
    below = np.nonzero(probe_vals <= floor)[0]
    if len(below):
        tau = min(tau, float(probe_t[below[0]]))
    signal_decay = error_decay + 2.0
    guard = n ** (1.0 / (2.0 * (signal_decay + error_decay - 1.0))) / math.log(max(n, 3))
    return max(tau, guard) if guard <= cap else cap


@st.composite
def replicate_sets(draw, max_groups):
    """Replicate groups of 2-4 with Laplace, Gaussian or t2 errors, at
    scales where the CF dips under the floor inside the cap and at scales
    from 1e-300 to where the pair differences overflow; a decay and a
    sample size that put the guard below the cap, above the crossing, or
    above the cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(2, max_groups)), draw(st.integers(2, 4)))
    law = draw(st.sampled_from(["laplace", "gaussian", "t2"]))
    errors = {"laplace": rng.laplace, "gaussian": rng.normal,
              "t2": lambda size: rng.standard_t(2.0, size=size)}[law](size=shape)
    scale = 10.0 ** draw(st.one_of(st.floats(-1.5, 1.5), st.floats(-300.0, 308.2),
                                   st.sampled_from([154.5, 307.5, 308.2])))
    center = draw(st.sampled_from([0.0, 1.0, 1e6])) * scale
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.nan_to_num(rng.normal(0.0, 1.0, (shape[0], 1)) * center + errors * scale,
                          posinf=np.finfo(float).max, neginf=-np.finfo(float).max)
    return ReplicatedSample(u), draw(st.integers(2, 10**7)), draw(st.floats(0.2, 4.0))


def cutoff_outcome(cutoff, case, action):
    """The cutoff, the ValueError raised where pair differences or phases
    t d overflow, or a RuntimeWarning raised under ``action="error"``."""
    rep, n, error_decay = case
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        warnings.filterwarnings("ignore", "lower-rate guard", UserWarning)
        try:
            return cutoff(rep, n, error_decay=error_decay)
        except (RuntimeWarning, ValueError) as exc:
            return repr(exc)


def assert_cutoff_is_the_dense_one(case):
    want = cutoff_outcome(dense_cutoff, case, "ignore")
    assert cutoff_outcome(select_cutoff, case, "ignore") == want
    # with warnings as errors the bound adds none; the exact rows are the
    # dense pass's first ones, so they warn where it does or, when it warns
    # only on later rows, not at all
    assert cutoff_outcome(select_cutoff, case, "error") in (
        cutoff_outcome(dense_cutoff, case, "error"), want)


class TestCertifiedProbes:
    @settings(deadline=None)
    @given(case=replicate_sets(max_groups=200))
    def test_cutoff_is_the_dense_one(self, case):
        assert_cutoff_is_the_dense_one(case)

    @pytest.mark.thorough
    @settings(deadline=None, max_examples=examples(20))
    @given(case=replicate_sets(max_groups=3000))
    def test_cutoff_is_the_dense_one_on_large_sets(self, case):
        assert_cutoff_is_the_dense_one(case)


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

    def test_tgrid_node_limit(self):
        k = coarsereg.fourier.MAX_T_NODES // 2
        assert len(symmetric_tgrid(k * 0.5, 0.5)) == coarsereg.fourier.MAX_T_NODES
        with pytest.raises(ResolutionError, match=f"needs {2 * k + 3} frequency nodes"):
            symmetric_tgrid((k + 1) * 0.5, 0.5)

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

    def test_odd_error_cf_names_both_residue_causes(self):
        # the grid is symmetric; the skewed error CF's odd part is refused,
        # named by its source
        rng = np.random.default_rng(15)
        s = TrainingSample(rng.normal(size=30), rng.normal(size=30))
        grid = EvalGrid(np.linspace(-1.0, 1.0, 5))
        cfg = FourierConfig(cutoff=8.0, t_step=0.05)
        t = symmetric_tgrid(cfg.cutoff, cfg.t_step)
        assert np.array_equal(t[::-1], -t)
        skewed = lambda t: np.exp(-t**2 / 2) * (1 + 0.5 * np.tanh(t))
        for source, name in ((skewed, "a callable"), (CfTable(t=t, values=skewed(t)), "a CF table")):
            with pytest.raises(ValueError, match=(
                    f"^error CF from {name} has an odd part of 2.411e-01, beyond 1e-08 times "
                    r"its largest modulus 1.099e\+00: an error CF is real and even$")):
                invert_cf(s, source, cfg, grid)

    @pytest.mark.parametrize("table", [False, True], ids=["callable", "table"])
    def test_odd_part_within_the_tolerance_gives_the_even_bits(self, table):
        # the even part on multiples of 2**-20 in [0, 1] and an odd part on
        # multiples of 2**-32 keep e(t) = even + odd and e(-t) = even - odd
        # exact, so (e(t) + e(-t)) / 2 is the even part, bit for bit. An odd
        # part of 2**-30 is within 1e-8 of max|e| = 1; one of 2**-26 is not
        rng = np.random.default_rng(18)
        s = TrainingSample(rng.normal(size=30), rng.normal(size=30))
        grid = EvalGrid(np.linspace(-1.0, 1.0, 5))
        cfg = FourierConfig(cutoff=8.0, t_step=0.05)
        t = symmetric_tgrid(cfg.cutoff, cfg.t_step)
        even = lambda t: np.round(np.exp(-t**2 / 2) * 2.0**20) / 2.0**20
        odd = lambda t: np.round(np.tanh(t) * 4.0) / 4.0
        source = (lambda f: CfTable(t=t, values=f(t))) if table else (lambda f: f)
        want = invert_cf(s, source(even), cfg, grid)
        got = invert_cf(s, source(lambda t: even(t) + 2.0**-30 * odd(t)), cfg, grid)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        with pytest.raises(ValueError, match="has an odd part of 1.490e-08"):
            invert_cf(s, source(lambda t: even(t) + 2.0**-26 * odd(t)), cfg, grid)

    def test_inversion_runs_over_the_nodes_from_zero(self, monkeypatch):
        rng = np.random.default_rng(19)
        s = TrainingSample(rng.normal(size=30), rng.normal(size=30))
        grid = EvalGrid(np.linspace(-1.0, 1.0, 5))
        cfg = FourierConfig(cutoff=8.0, t_step=0.05)
        t = symmetric_tgrid(cfg.cutoff, cfg.t_step)
        calls = []
        exp_sums = coarsereg.fourier._exp_sums

        def spy(rows, points, weights):
            calls.append((np.array(rows), np.array(points)))
            return exp_sums(rows, points, weights)

        monkeypatch.setattr(coarsereg.fourier, "_exp_sums", spy)
        invert_cf(s, ErrorDensity.laplace(0.5), cfg, grid)
        # the empirical CFs' pass runs its rows over the sample, the
        # inversion's over the grid
        inversions = [points for rows, points in calls if np.array_equal(rows, -grid.points)]
        assert len(inversions) == 1
        np.testing.assert_array_equal(inversions[0], t[len(t) // 2:])
        assert len(inversions[0]) == 161 and inversions[0][0] == 0.0

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

    @pytest.mark.parametrize("cutoff", [300.0, 3000.0])
    def test_within_the_derived_bound_of_the_known_estimator(self, cutoff):
        # the setting of test_agreement_with_known_estimator. The Fourier
        # den is (1/n) sum_j g(x - w_j), g the trapezoid rule, step h over
        # |t| <= cutoff, of (2 pi)^-1 phi(t) exp(-i t u) with the Laplace CF
        # phi(t) = 1 / (1 + b^2 t^2); by Poisson summation the rule over all
        # of h Z is sum_m f(u + 2 pi m / h), f the Laplace pdf. So
        # |g(u) - f(u)| is at most the alias term sum_{m != 0} f(u + 2 pi m / h)
        # plus the rule's part beyond the cutoff, which for the decreasing
        # phi is at most the truncation tail
        # (1/pi) int_cutoff^inf phi = (pi/2 - arctan(b cutoff)) / (pi b)
        # plus h phi(cutoff) / (2 pi) for the half-weighted end nodes
        rng = np.random.default_rng(17)
        b, h = 0.4, 0.05
        d = ErrorDensity.laplace(b)
        w = rng.normal(size=60)
        y = np.sin(w) + rng.normal(0, 0.1, 60)
        s = TrainingSample(w, y)
        grid = EvalGrid(np.linspace(-1.1, 1.1, 12))
        fourier = fit_fourier(s, d, FourierConfig(cutoff=cutoff, t_step=h), grid)
        direct = fit_known(s, d, grid)

        u = grid.points[:, None] - w
        tail = (math.pi / 2 - math.atan(b * cutoff)) / (math.pi * b)
        trapezoid_tail = h / (1.0 + (b * cutoff) ** 2) / (2.0 * math.pi)
        # sum over m >= 1 of f(u + mP) + f(u - mP), P = 2 pi / h > |u|
        q = math.exp(-2.0 * math.pi / h / b)
        alias = np.cosh(u / b) / b * q / (1.0 - q)
        kernel = tail + trapezoid_tail + alias
        # the Fourier sums' roundoff: phases t w and t x off by u |t| (|w| + |x|),
        # n + K roundings of the moduli's sum, which is below 1 / (pi b); and
        # n + 8 roundings of the direct sums, whose terms are at most f(0)
        k = round(cutoff / h)
        rounding = 2.0**-53 * ((cutoff * (np.max(np.abs(w)) + 1.1) + 60 + k + 32) / (math.pi * b)
                               + (60 + 8) / (2.0 * b))
        e_den = kernel.mean(axis=1) + rounding
        e_num = (np.abs(y) * kernel).mean(axis=1) + rounding * np.max(np.abs(y))
        den = predictor_density(s, d, grid.points)
        assert np.all(den > e_den)
        # m_F - m_K = ((num_F - num_K) - m_K (den_F - den_K)) / den_F, and a
        # few roundings of each ratio
        bound = (e_num + np.abs(direct.values) * e_den) / (den - e_den) + 8 * 2.0**-53
        assert np.all(np.abs(fourier.values - direct.values) <= bound)
        assert np.max(bound) < {300.0: 0.05, 3000.0: 0.005}[cutoff]


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


@pytest.mark.thorough
class TestOneResolver:
    @settings(deadline=None)
    @given(case=resolver_cases())
    def test_replicates_resolve_like_their_table(self, case):
        sample, rep, cfg = case
        table = error_cf_from_replicates(rep, symmetric_tgrid(cfg.cutoff, cfg.t_step))
        bare = lambda t: error_cf_from_replicates(rep, t).values
        grid = EvalGrid(np.linspace(-1.0, 1.0, 7))
        proxy = LinearProxyFit(intercept=0.5, slope=-2.0, n_obs=2, residual_variance=0.0)
        for fit in (
            lambda src: invert_cf(sample, src, cfg, grid),
            lambda src: fit_fourier(sample, src, cfg, grid),
            lambda src: fit_fourier_proxy(proxy, sample.w, sample.y, src, cfg, grid),
        ):
            want = _bits(lambda: fit(rep))
            assert _bits(lambda: fit(table)) == want
            assert _bits(lambda: fit(bare)) == want


class TestComplexErrorCf:
    """An error CF with complex values is refused by a ValueError that names
    its source, not cast to its real part with a ComplexWarning."""

    SAMPLE = TrainingSample(np.linspace(0.0, 2.0, 20), np.linspace(-1.0, 1.0, 20))
    GRID = EvalGrid(np.linspace(-1.0, 1.0, 5))
    CFG = FourierConfig(cutoff=4.0, t_step=0.05)
    T = symmetric_tgrid(4.0, 0.05)

    def fit(self, source):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fit_fourier(self.SAMPLE, source, self.CFG, self.GRID)

    def test_empirical_cf_table(self):
        table = empirical_cfs(self.SAMPLE, self.T)[0]
        with pytest.raises(ValueError, match="^error CF from a CF table has an imaginary part"):
            self.fit(table)

    def test_callable(self):
        shifted = lambda t: np.exp(-t**2 / 2 + 0.3j * t)
        with pytest.raises(ValueError, match="^error CF from a callable has an imaginary part"):
            self.fit(shifted)
        # an imaginary part of zero is dropped
        real = lambda t: np.exp(-t**2 / 2)
        assert self.fit(lambda t: real(t) + 0j).values.tobytes() == self.fit(real).values.tobytes()

    def test_custom_density(self):
        # the triangular density, its CF shifted by 0.1
        d = ErrorDensity.custom(lambda u: np.maximum(1.0 - np.abs(u), 0.0),
                                cf=lambda t: np.sinc(t / (2 * np.pi))**2 * np.exp(0.1j * t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^custom density's CF has an imaginary part"):
                d.cf(self.T)
        with pytest.raises(ValueError, match="^custom density's CF has an imaginary part"):
            self.fit(d)


@st.composite
def small_inversions(draw):
    """A sample of 1-12 points, a Gaussian or Laplace error density, 17-48
    positive nodes and 2-4 grid points, at a length scale from 0.1 to 10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, scale = draw(st.integers(1, 12)), 10.0 ** draw(st.floats(-1.0, 1.0))
    sample = TrainingSample(rng.normal(0.0, scale, n), rng.normal(size=n))
    kind = draw(st.sampled_from([ErrorDensity.gaussian, ErrorDensity.laplace]))
    density = kind(draw(st.floats(0.05, 2.0)) * scale)
    t_step = draw(st.floats(0.05, 2.0)) / scale
    cfg = FourierConfig(draw(st.integers(17, 48)) * t_step, t_step)
    grid = EvalGrid(np.linspace(-2.0, 2.0, draw(st.integers(2, 4))) * scale)
    return sample, density, cfg, grid


def full_grid_inversion(sample, density, cfg, grid):
    """den and num as exact sums over every node |k| <= K of
    w_k e(t_k) cf_hat(t_k) exp(-i t_k x) / (2 pi), the real part taken
    term by term from explicit cosines and sines; and the sums of the
    terms' moduli."""
    t = symmetric_tgrid(cfg.cutoff, cfg.t_step)
    w = np.full(len(t), cfg.t_step)
    w[0] = w[-1] = cfg.t_step / 2.0
    c = w * density.cf(t) / (2.0 * math.pi * sample.n)
    scale = float(np.sum(np.abs(c))) * sample.n
    out = []
    for x in grid.points:
        den, num = [], []
        for tk, ck in zip(t, c):
            cx, sx = math.cos(tk * x), math.sin(tk * x)
            for wj, yj in zip(sample.w, sample.y):
                # Re(exp(i t w) exp(-i t x)) = cos(t w) cos(t x) + sin(t w) sin(t x)
                re = (ck * math.cos(tk * wj) * cx, ck * math.sin(tk * wj) * sx)
                den += re
                num += (yj * re[0], yj * re[1])
        out.append((math.fsum(den), math.fsum(num)))
    den, num = np.array(out).T
    return den, num, scale, scale * float(np.mean(np.abs(sample.y)))


@pytest.mark.thorough
class TestFullGridReference:
    @settings(deadline=None)
    @given(case=small_inversions())
    def test_half_grid_matches_the_full_grid_sum(self, case):
        # each computed term's modulus carries a few roundings (its cos and
        # sin, its products); the n-term CF sums and the (K + 1)-term
        # inversion add at most n - 1 and K roundings of the moduli' sum
        sample, density, cfg, grid = case
        den, num = invert_cf(sample, density, cfg, grid)
        ref_den, ref_num, scale_den, scale_num = full_grid_inversion(sample, density, cfg, grid)
        k = len(symmetric_tgrid(cfg.cutoff, cfg.t_step)) // 2
        slack = (sample.n + k + 32) * 2.0**-53
        assert np.all(np.abs(den - ref_den) <= slack * scale_den)
        assert np.all(np.abs(num - ref_num) <= slack * scale_num)
