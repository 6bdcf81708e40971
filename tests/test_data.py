import numpy as np
import pytest

from coarsereg import EvalGrid, RegressionCurve, ReplicatedSample, TrainingSample


class TestTrainingSample:
    def test_basic(self):
        s = TrainingSample([0.0, 1.0], [2.0, 3.0])
        assert s.n == 2
        np.testing.assert_array_equal(s.w, [0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            TrainingSample([0.0, 1.0], [2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            TrainingSample([], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            TrainingSample([0.0, bad], [1.0, 2.0])

    def test_arrays_frozen(self):
        s = TrainingSample([0.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            s.w[0] = 5.0


class TestReplicatedSample:
    def test_pair_count(self):
        # 1/2 * sum n_j (n_j - 1): groups of 2, 3, 4 -> 1 + 3 + 6
        r = ReplicatedSample([[0, 1], [0, 1, 2], [0, 1, 2, 3]])
        assert r.n_groups == 3
        assert r.n_pairs == 10
        assert len(r.pair_differences()) == r.n_pairs

    def test_pair_differences_values(self):
        r = ReplicatedSample([[3.0, 1.0]])
        np.testing.assert_array_equal(r.pair_differences(), [2.0])

    def test_pair_differences_match_per_group_loop(self):
        # ragged groups of sizes 2-5 in interleaved order
        rng = np.random.default_rng(21)
        sizes = [2, 5, 3, 2, 4, 5, 3, 3, 2, 4] * 7 + [5, 2]
        r = ReplicatedSample([rng.normal(size=m) for m in sizes])
        want = []
        for g in r.groups:
            idx1, idx2 = np.triu_indices(len(g), k=1)
            want.append(g[idx1] - g[idx2])
        np.testing.assert_array_equal(r.pair_differences(), np.concatenate(want))

    def test_small_group_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            ReplicatedSample([[0.0, 1.0], [2.0]])

    def test_no_groups(self):
        with pytest.raises(ValueError):
            ReplicatedSample([])


class TestEvalGrid:
    def test_valid(self):
        g = EvalGrid([0.0, 0.5, 1.0])
        assert len(g) == 3

    def test_linspace(self):
        g = EvalGrid.linspace(0.0, 1.0, 11)
        assert len(g) == 11
        assert g.points[0] == 0.0 and g.points[-1] == 1.0

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            EvalGrid([0.0])

    def test_not_increasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            EvalGrid([0.0, 1.0, 1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            EvalGrid([0.0, float("inf")])


class TestRegressionCurve:
    def test_alignment(self):
        g = EvalGrid([0.0, 1.0])
        with pytest.raises(ValueError, match="aligned"):
            RegressionCurve(grid=g, values=[1.0, 2.0, 3.0])

    def test_defined_mask(self):
        g = EvalGrid([0.0, 1.0, 2.0])
        c = RegressionCurve(grid=g, values=[1.0, float("nan"), 2.0])
        np.testing.assert_array_equal(c.defined, [True, False, True])

    def test_band_ordering_enforced(self):
        g = EvalGrid([0.0, 1.0])
        with pytest.raises(ValueError, match="enclose"):
            RegressionCurve(
                grid=g,
                values=[1.0, 1.0],
                band_lower=[1.5, 0.5],
                band_upper=[2.0, 2.0],
            )

    def test_negative_variance_rejected(self):
        g = EvalGrid([0.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            RegressionCurve(grid=g, values=[1.0, 1.0], variance=[-0.1, 0.2])
