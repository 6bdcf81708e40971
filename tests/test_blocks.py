"""The blocked kernel-moment primitive: results that do not depend on how the
grid-by-sample kernel is split into blocks, and memory that does not grow
with G x n."""

import os
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsereg import (
    DegenerateDenominatorError,
    ErrorDensity,
    EvalGrid,
    TrainingSample,
    covariance_matrix,
    find_extremum,
    fit_known,
    fit_nw,
    pointwise_band,
    simultaneous_band,
)
from coarsereg import fourier, known
from coarsereg.cli import main
from coarsereg.known import _centered_variance, _kernel_moments

pytestmark = pytest.mark.thorough


def _triangular(u):
    return np.maximum(1.0 - np.abs(np.asarray(u, dtype=float)), 0.0)


DENSITIES = [ErrorDensity.gaussian(0.1), ErrorDensity.laplace(0.05),
             ErrorDensity.uniform(0.1), ErrorDensity.custom(_triangular, scale=0.5)]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def blocks_of(n, rows):
    """Patch the block budget so that each block holds ``rows`` grid rows."""
    return mock.patch.object(known, "_BLOCK_BYTES", 8 * n * rows)


def outcome(f):
    """A call's result, or the message of its degeneracy error."""
    try:
        return f()
    except DegenerateDenominatorError as exc:
        return str(exc)


@st.composite
def blocked_cases(draw):
    n = draw(st.integers(1, 80))
    g = draw(st.integers(2, 40))
    mode = draw(st.sampled_from(["single rows", "ragged", "one block"]))
    if mode == "single rows":
        rows = 1
    elif mode == "one block":
        rows = g
    else:
        rows = draw(st.integers(2, max(2, g - 1)).filter(lambda r: g % r != 0 or g < 3))
    seed = draw(st.integers(0, 2**32 - 1))
    err = draw(st.sampled_from(DENSITIES))
    # grids that run past the data leave points undefined, possibly only in
    # later blocks
    hi = draw(st.sampled_from([1.0, 1.5, 3.0]))
    return n, g, rows, seed, err, hi


def covariance_roundoff(k, y, den):
    """A bound on how far the blocking can move each plug-in covariance entry.

    The entry is cov_gh = sum_i b_gi b_hi / n with b_gi = k_gi (y_i - m_g) / den_g
    and m_g = num_g / den_g. Blocking leaves k, den and num bit for bit and
    changes only the column blocks over which b b^T is summed. With
    u = eps / 2, ybar_g = sum_i k_gi |y_i| / (n den_g) >= |m_g| and
    a_gi = k_gi (|y_i| + ybar_g) / den_g >= |b_gi|:

    - a num summed in another order would move m_g by at most
      2 gamma_{n+1} ybar_g, and b_gi by at most 2 gamma_{n+1} a_gi; the bound
      keeps this term although the pairwise num no longer moves;
    - each run rounds b_gi at most 3 times (gamma_3 a_gi) and sums the n
      products, then divides by n (gamma_{n+2} of the sum of |terms|).

    So |cov - cov'|_gh <= 6 gamma_{n+4} T_gh <= 4 (n + 4) eps T_gh for the
    uncentered terms T_gh = sum_i a_gi a_hi / n. A flat relative tolerance
    cannot hold: with one sample dominating each point, y - m_g is pure
    cancellation and T_gh exceeds |cov_gh| by orders of magnitude.
    """
    n = len(y)
    ybar = k @ np.abs(y) / (n * den)
    a = k * (np.abs(y)[None, :] + ybar[:, None]) / den[:, None]
    return 4 * (n + 4) * np.finfo(float).eps * (a @ a.T / n)


@settings(deadline=None)
@given(blocked_cases())
# two samples, one dominating each point: the covariance is pure cancellation
@example(case=(2, 2, 1, 6, DENSITIES[0], 1.0))
def test_blocking_leaves_results_unchanged(case):
    n, g, rows, seed, err, hi = case
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, n)
    y = rng.normal(2.0, 1.0, n)
    s = TrainingSample(w, y)
    grid = EvalGrid.linspace(-0.2, hi, g)

    def scan():  # the extremum and zero finders' coarse scan
        den, num = known._moments_at(err._pdf_into, np.linspace(-0.2, hi, g), w, y)
        return num / den

    def run():
        with np.errstate(invalid="ignore"):  # the variance is NaN where den is 0
            moments = _kernel_moments(err._pdf_into, grid.points, w, y, _centered_variance)
        return (
            moments,
            outcome(lambda: fit_known(s, err, grid).values),
            outcome(lambda: covariance_matrix(s, err, grid).entries),
            outcome(scan),
        )

    with blocks_of(n, g + 1):
        want = run()
    with blocks_of(n, rows):
        got = run()

    # row means: den, num and the variance do not depend on the blocking
    for a, b in zip(got[0], want[0]):
        np.testing.assert_array_equal(a, b)
    k = err.pdf(grid.points[:, None] - w[None, :])
    for a, b in zip(got[1:], want[1:]):
        if isinstance(b, str):
            assert a == b  # the same first bad x
        elif b.ndim == 2:  # the covariance
            assert np.all(np.abs(a - b) <= covariance_roundoff(k, y, want[0][0]))
        else:  # the fit and the scan, NaNs in the same places
            np.testing.assert_array_equal(a, b)


def test_degenerate_point_in_a_later_block_is_named():
    s = TrainingSample(np.linspace(0.0, 1.0, 50), np.arange(50.0))
    err = ErrorDensity.uniform(0.1)
    grid = EvalGrid.linspace(0.0, 2.0, 41)
    den = np.mean(err.pdf(grid.points[:, None] - s.w[None, :]), axis=1)
    bad = den < 1e-12
    first = np.flatnonzero(bad)[0]
    assert first > 3  # past the first block for rows 1 and 3
    message = f"denominator {den[first]:.3e} below 1e-12 at x={grid.points[first]}"
    for rows in (1, 3, 41):
        with blocks_of(s.n, rows):
            with pytest.raises(DegenerateDenominatorError) as exc:
                covariance_matrix(s, err, grid)
            assert str(exc.value) == message
            with pytest.raises(DegenerateDenominatorError) as exc:
                find_extremum(s, err, 0.0, 2.0, scan_points=41)
            assert str(exc.value) == message
            assert fit_known(s, err, grid).meta["undefined"] == np.sum(bad)


def three_moment_covariance(s, err, grid):
    """The plug-in covariance as a difference of three product moments."""
    k = err.pdf(grid.points[:, None] - s.w[None, :])
    n = s.n
    den, num = k.mean(axis=1), k @ s.y / n
    plain = k @ k.T / n
    resp = k @ (s.y[:, None] * k.T) / n
    resp_sq = k @ (s.y[:, None] ** 2 * k.T) / n
    dd = np.outer(den, den)
    return (resp_sq / dd + plain * np.outer(num, num) / dd**2
            - resp * (np.outer(num, den) + np.outer(den, num)) / dd**2)


@pytest.mark.parametrize("err", DENSITIES)
@pytest.mark.parametrize("rows", [1, 7, None])
def test_covariance_matches_three_moment_formula(err, rows):
    rng = np.random.default_rng(53)
    w = rng.uniform(0.0, 1.0, 300)
    s = TrainingSample(w, 5.0 + np.sin(4 * w) + rng.normal(0.0, 0.4, 300))
    grid = EvalGrid.linspace(0.05, 0.95, 23)
    want = three_moment_covariance(s, err, grid)
    # rows=7 over a 23-point grid also splits the 300 sample columns
    with blocks_of(s.n, rows or 1000):
        got = covariance_matrix(s, err, grid).entries
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    np.testing.assert_array_equal(got, got.T)
    assert np.all(np.diag(got) >= 0)


def test_peak_memory_is_a_few_blocks():
    n, g = 200_000, 201
    rng = np.random.default_rng(59)
    w = rng.uniform(0.0, 1.0, n)
    s = TrainingSample(w, 3.0 * w + rng.normal(0.0, 1.0, n))
    err = ErrorDensity.gaussian(0.1)
    grid = EvalGrid.linspace(0.0, 1.0, g)
    t = np.linspace(-20.0, 20.0, g)
    # a few kernel blocks plus O(n + G^2) vectors; one dense G x n kernel
    # would be 8 * n * g = 322 MB
    bound = 4 * known._BLOCK_BYTES + 48 * n + 24 * g * g
    calls = {
        "fit_known": lambda: fit_known(s, err, grid),
        "find_extremum": lambda: find_extremum(s, err, 0.3, 0.7),
        "pointwise_band": lambda: pointwise_band(s, err, grid),
        "covariance_matrix": lambda: covariance_matrix(s, err, grid),
        "fit_nw": lambda: fit_nw(s, 0.02, grid),
        "empirical_cfs": lambda: fourier.empirical_cfs(s, t),
    }
    for name, call in calls.items():
        peak = traced_peak(call)
        assert peak <= bound, f"{name}: peak {peak} B above {bound} B"


def traced_peak(call):
    """The peak of the memory ``call`` allocates, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("err", DENSITIES[:3])
def test_fit_known_evaluates_each_block_in_place(err):
    # the offsets, the kernel and the k * y scratch share two block buffers;
    # an out-of-place pdf left six block-sized temporaries (19.1 MiB here)
    n, g = 50_000, 201
    rng = np.random.default_rng(71)
    w = rng.uniform(0.0, 1.0, n)
    s = TrainingSample(w, np.sin(3.0 * w) + rng.normal(0.0, 0.3, n))
    peak = traced_peak(lambda: fit_known(s, err, EvalGrid.linspace(0.0, 1.0, g)))
    assert peak <= 3 * known._BLOCK_BYTES


FAULTS_CHILD = """
import resource
import numpy as np
from coarsereg import ErrorDensity
from coarsereg.known import _centered_variance, _kernel_moments
rng = np.random.default_rng(89)
w = rng.uniform(0.0, 1.0, 500)
y = np.sin(3.0 * w) + rng.normal(0.0, 0.3, 500)
x = np.linspace(0.0, 1.0, 101)
kernel = ErrorDensity.gaussian(0.1)._pdf_into
_kernel_moments(kernel, x, w, y, _centered_variance)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    _kernel_moments(kernel, x, w, y, _centered_variance)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_kept_slots_take_no_fresh_pages():
    # 200 variance passes at n = 500 and G = 101, each holding one 404 kB
    # block in each slot, in a fresh interpreter, whose allocator has not
    # yet raised its mmap threshold: with buffers allocated per call, glibc
    # gave their pages back between calls, and the passes took about
    # 39 000 minor faults
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", FAULTS_CHILD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 200


def test_a_block_over_the_budget_is_fresh_and_not_kept():
    floats = known._BLOCK_BYTES // 8
    small = [known._scratch(slot, (4, 8)) for slot in (0, 1)]
    for slot in (0, 1):
        big = known._scratch(slot, (floats + 1,))
        assert not any(np.shares_memory(big, view) for view in small)
        # the slot is the one it was, and no larger
        full = known._scratch(slot, (floats,))
        assert np.shares_memory(full, small[slot]) and full.base.nbytes == known._BLOCK_BYTES


def test_the_two_slots_never_alias():
    floats = known._BLOCK_BYTES // 8
    for shape, dtype in [((floats,), float), ((3, 7), float), ((floats // 2,), complex),
                         ((1, 1), complex)]:
        views = [known._scratch(slot, shape, dtype) for slot in (0, 1)]
        assert views[0].shape == shape and views[0].dtype == dtype
        assert views[0].flags.c_contiguous and views[1].flags.c_contiguous
        assert not np.shares_memory(*views)
    # another thread has slots of its own
    other = []
    thread = threading.Thread(target=lambda: other.extend(
        known._scratch(slot, (floats,)) for slot in (0, 1)))
    thread.start()
    thread.join()
    for view in other:
        assert not any(np.shares_memory(view, known._scratch(slot, (floats,)))
                       for slot in (0, 1))


def test_band_draws_take_a_few_blocks():
    # the n_sim x G draws alone are 80 MB here, and whole |draws| / se
    # arrays took the band to 252 MiB; in blocks the G x G covariance, its
    # eigenvectors and square root are most of the peak
    n, g = 1_000, 1_001
    rng = np.random.default_rng(73)
    w = rng.uniform(0.0, 1.0, n)
    s = TrainingSample(w, np.sin(3.0 * w) + rng.normal(0.0, 0.3, n))
    grid = EvalGrid.linspace(0.0, 1.0, g)
    peak = traced_peak(lambda: simultaneous_band(s, ErrorDensity.laplace(0.1), grid,
                                                 n_sim=10_000, seed=1))
    assert peak <= 64 << 20


def test_covariance_products_do_not_pile_up():
    # G = 1001 against n = 12 000: six column blocks of 2G samples, shared
    # with the pool thread. A thread holds its block's kernel and centered
    # factor, 4 G^2 floats, then the factor and its G x G product (the
    # kernel is freed first), or only a product waiting for its turn; with
    # the covariance that is at most 9 G^2 floats on two threads. Each
    # product more held, or a block's buffers kept past its product, would
    # add G^2 or more.
    n, g = 12_000, 1_001
    rng = np.random.default_rng(61)
    w = rng.uniform(0.0, 1.0, n)
    s = TrainingSample(w, np.sin(3.0 * w) + rng.normal(0.0, 0.3, n))
    err = ErrorDensity.laplace(0.1)
    grid = EvalGrid.linspace(0.0, 1.0, g)
    bound = 9 * 8 * g * g + 8 * known._BLOCK_BYTES + 48 * n
    calls = {
        "covariance_matrix": lambda: covariance_matrix(s, err, grid),
        "simultaneous_band": lambda: simultaneous_band(s, err, grid, n_sim=1_000, seed=1),
    }
    with mock.patch.object(known.os, "sched_getaffinity", lambda pid: {0, 1}):
        for name, call in calls.items():
            peak = traced_peak(call)
            assert peak <= bound, f"{name}: peak {peak} B above {bound} B"


def test_band_draw_blocks_move_only_the_product_roundoff():
    # 64-row draw blocks against one block of 1 000. The budget also sizes
    # the kernel passes, but with n <= 64 the covariance stays one column
    # block and the fit one row block, so the draws are the only change.
    # They come from one stream in order, so only the rounding of each
    # product z_i @ R can move: by at most gamma_G sum_j |z_ij| |R_jk| <=
    # gamma_G |z_i|_2 |R e_k|_2, and |R e_k|_2 = sqrt(cov_kk) = sqrt(n) se_k
    # up to roundoff, so each studentized sup, and so the quantile, moves
    # by at most gamma_G max_i |z_i|_2 (doubled below for that roundoff).
    n, g, n_sim, seed = 60, 41, 1_000, 11
    rng = np.random.default_rng(79)
    w = np.sort(rng.uniform(0.0, 1.0, n))
    s = TrainingSample(w, np.round(2.0 * w + rng.normal(0.0, 0.4, n)))
    err = ErrorDensity.uniform(0.08)
    grid = EvalGrid.linspace(0.1, 0.9, g)

    def band():
        return simultaneous_band(s, err, grid, n_sim=n_sim, seed=seed)

    one = band()
    with mock.patch.object(known, "_BLOCK_BYTES", 8 * g * 64):
        blocked, again = band(), band()
    assert blocked.band_lower.tobytes() == again.band_lower.tobytes()
    assert blocked.band_upper.tobytes() == again.band_upper.tobytes()
    np.testing.assert_array_equal(blocked.variance, one.variance)
    flat = one.band_upper == one.band_lower
    assert 0 < np.sum(flat) < g  # some points leave the sup, not all
    np.testing.assert_array_equal(blocked.band_upper == blocked.band_lower, flat)
    np.testing.assert_array_equal(np.isnan(blocked.band_lower), np.isnan(one.band_lower))
    z = np.random.default_rng(seed).standard_normal((n_sim, g))
    bound = 2 * g * 2.0**-53 * np.linalg.norm(z, axis=1).max()
    assert abs(blocked.meta["sup_quantile"] - one.meta["sup_quantile"]) <= bound


# ---------------------------------------------------------------- the CLI

CLI_N, CLI_GROUPS, CLI_B = 20_000, 2_000, 0.1
BUDGETS = (64 << 10, known._BLOCK_BYTES, 4 << 20)
CLI_COMMANDS = {
    "fit-known": ["fit-known", "--train", "{train}", "--delta", "{delta}", "--grid", "0:1:201"],
    "ci": ["ci", "--train", "{train}", "--delta", "{delta}", "--grid", "0:1:201"],
    "extrema": ["extrema", "--train", "{train}", "--delta", "{delta}", "--interval", "0.3:0.7"],
    "zeros": ["zeros", "--train", "{train}", "--delta", "{delta}", "--interval", "0:1"],
    "fit-fourier": ["fit-fourier", "--train", "{train}", "--replicates", "{reps}",
                    "--tau", "20", "--grid", "0:1:201"],
    "cf": ["cf", "--replicates", "{reps}", "--tmax", "20", "--tstep", "0.05"],
    "nw": ["nw", "--train", "{train}", "--bandwidth", "0.05", "--grid", "0:1:201"],
    "band": ["band", "--train", "{train}", "--delta", "{delta}", "--grid", "0:1:201",
             "--nsim", "2000", "--seed", "3"],
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A training CSV with Laplace-contaminated predictors, and a file of
    replicate pairs with the same contamination."""
    directory = tmp_path_factory.mktemp("budgets")
    rng = np.random.default_rng(18)
    w = rng.uniform(0.0, 1.0, CLI_N)
    y = np.sin(2.0 * np.pi * w) + rng.normal(0.0, 0.5, CLI_N)
    train = directory / "train.csv"
    np.savetxt(train, np.column_stack((w + rng.laplace(0.0, CLI_B, CLI_N), y)),
               fmt="%.17g", delimiter=",", header="w,y", comments="")
    u = rng.uniform(0.0, 1.0, CLI_GROUPS)[:, None] + rng.laplace(0.0, CLI_B, (CLI_GROUPS, 2))
    reps = directory / "reps.csv"
    reps.write_text("group,u\n" + "".join(
        f"g{g},{v:.17g}\n" for g, v in zip(np.repeat(np.arange(CLI_GROUPS), 2), u.ravel())))
    return directory, train, reps


def cli_output(command, inputs, budget):
    """The bytes ``command`` writes on ``inputs`` under the block ``budget``."""
    directory, train, reps = inputs
    out = directory / f"{command}-{budget}.csv"
    argv = [a.format(train=train, reps=reps, delta=f"laplace:{CLI_B}")
            for a in CLI_COMMANDS[command]]
    with mock.patch.object(known, "_BLOCK_BYTES", budget):
        assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("command", sorted(set(CLI_COMMANDS) - {"band"}))
def test_cli_output_does_not_depend_on_the_budget(cli_inputs, command):
    # each row's moments depend on that row alone, so the block size (64 KiB
    # is a single grid row here; 4 MiB is 26) moves no bit
    outputs = [cli_output(command, cli_inputs, budget) for budget in BUDGETS]
    assert outputs[0].count(b"\n") > 1
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_band_curve_and_variance_do_not_depend_on_the_budget(cli_inputs):
    # only the bounds move: the covariance's column-block sums and the draw
    # products are rounded per block
    tables = [np.genfromtxt(cli_output("band", cli_inputs, budget).decode().splitlines(),
                            delimiter=",", names=True, dtype=None, encoding=None)
              for budget in BUDGETS]
    for name in ("x", "m_hat", "v_hat"):
        for table in tables[1:]:
            assert table[name].tobytes() == tables[0][name].tobytes()
