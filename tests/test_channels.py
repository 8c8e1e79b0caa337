import math

import numpy as np
import pytest

import capbound as cb
from capbound.errors import InvalidChannel


class TestConstructors:
    def test_bsc_zero_is_identity(self):
        np.testing.assert_array_equal(cb.make_bsc(0.0).entries, np.eye(2))

    def test_bec_rows(self):
        W = cb.make_bec(0.4)
        np.testing.assert_allclose(W.entries, [[0.6, 0.4, 0.0], [0.0, 0.4, 0.6]])

    def test_bsc_range_checked(self):
        with pytest.raises(InvalidChannel):
            cb.make_bsc(1.5)

    def test_random_rows_valid(self):
        W = cb.make_random(4, 3, seed=11)
        assert np.all(W.entries > 0)
        np.testing.assert_allclose(W.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_random_deterministic_per_seed(self):
        A = cb.make_random(6, 5, seed=42).entries
        B = cb.make_random(6, 5, seed=42).entries
        C = cb.make_random(6, 5, seed=43).entries
        assert np.array_equal(A, B)
        assert not np.array_equal(A, C)

    def test_awgn_quantized_rows_sum_to_one(self):
        grid = np.linspace(-1, 1, 5)
        edges = np.linspace(-1, 1, 7)[1:-1]
        W = cb.make_awgn_quantized(0.5, edges, grid)
        assert W.rows == 5 and W.cols == 6
        np.testing.assert_allclose(W.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_awgn_small_noise_concentrates(self):
        grid = np.array([-0.5, 0.5])
        edges = np.array([0.0])
        W = cb.make_awgn_quantized(0.01, edges, grid)
        assert W.entries[0, 0] > 1 - 1e-10
        assert W.entries[1, 1] > 1 - 1e-10

    def test_awgn_rejects_bad_boundaries(self):
        with pytest.raises(InvalidChannel):
            cb.make_awgn_quantized(1.0, [0.5, 0.5], [0.0])


class TestPerturb:
    def test_no_zeros_unchanged(self):
        W = cb.make_bsc(0.3)
        assert cb.perturb_channel(W, 1e-4) is W

    def test_bec_row(self):
        W2 = cb.perturb_channel(cb.make_bec(0.4), 1e-4)
        np.testing.assert_allclose(
            W2.entries[0], np.array([0.6, 0.4, 1e-4]) / 1.0001, atol=1e-15
        )

    def test_identity_large_eps(self):
        W2 = cb.perturb_channel(cb.ChannelMatrix(np.eye(2)), 0.5)
        np.testing.assert_allclose(
            W2.entries, np.array([[1.0, 0.5], [0.5, 1.0]]) / 1.5, atol=1e-15
        )

    def test_gamma_floor(self):
        for eps in (1e-2, 1e-5, 1e-8):
            W2 = cb.perturb_channel(cb.make_bec(0.4), eps)
            assert W2.gamma >= eps / (1.0 + W2.cols * eps) - 1e-18
            assert W2.gamma > 0


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_perturbation_level_must_be_positive_and_finite(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        cb.perturb_channel(cb.make_bec(0.4), eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        cb.solve_with_perturbation(cb.make_bec(0.4), eps, 0.1)


class TestSolveWithPerturbation:
    def test_positive_channel_zero_correction(self):
        W = cb.make_bsc(0.2)
        res = cb.solve_with_perturbation(W, 1e-5, 0.01)
        plain = cb.solve_capacity(W, epsilon=0.01)
        assert res.correction == 0.0
        assert res.c_lb == pytest.approx(plain.c_lb, abs=1e-12)
        assert res.c_ub == pytest.approx(plain.c_ub, abs=1e-12)

    def test_bec_bounds_tighten_as_eps_shrinks(self):
        widths = []
        for eps in (1e-4, 1e-5, 1e-6, 1e-7):
            res = cb.solve_with_perturbation(cb.make_bec(0.4), eps, 0.01,
                                             stopping="apriori")
            assert res.c_lb <= 0.6 <= res.c_ub
            # scheduled counts sit within 2x of the 7402..9896 reference band
            assert 7402 / 2 <= res.inner.iterations <= 9896 * 2
            widths.append((0.6 - res.c_lb, res.c_ub - 0.6))
        lows, highs = zip(*widths)
        assert all(np.diff(lows) < 0) and all(np.diff(highs) < 0)
        assert lows[-1] < 1.5e-4 and highs[-1] < 1.5e-4

    def test_invariants(self):
        res = cb.solve_with_perturbation(cb.make_bec(0.3), 1e-5, 0.01)
        assert res.c_lb == pytest.approx(res.inner.c_lb - res.correction, abs=1e-15)
        assert res.c_ub == pytest.approx(res.inner.c_ub + res.correction, abs=1e-15)


class TestSpecStrings:
    def test_bsc(self):
        assert cb.parse_channel_spec("bsc:0.1").gamma == pytest.approx(0.1)

    def test_bec(self):
        assert cb.parse_channel_spec("bec:0.4").cols == 3

    def test_random(self):
        W = cb.parse_channel_spec("random:4,3,9")
        assert (W.rows, W.cols) == (4, 3)
        assert np.array_equal(W.entries, cb.make_random(4, 3, 9).entries)

    def test_file(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("2 2\n0.9 0.1\n0.2 0.8\n")
        W = cb.parse_channel_spec(f"file:{path}")
        assert W.entries[1, 0] == 0.2

    def test_awgnq(self):
        W = cb.parse_channel_spec("awgnq:0.5,4,1.0")
        assert (W.rows, W.cols) == (4, 4)
        np.testing.assert_allclose(W.entries.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [
        "bsc", "bsc:2", "random:3,2", "unknown:1", "file:/does/not/exist",
        "awgnq:0.5,1,1",
    ])
    def test_bad_specs(self, bad):
        with pytest.raises(InvalidChannel):
            cb.parse_channel_spec(bad)
