import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import softmax as softmax_reference

import capbound as cb
from capbound.errors import DimensionMismatch, InvalidChannel
from capbound.info_theory import _softmax


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


class TestEntropy:
    def test_uniform_maximizes(self):
        assert cb.entropy(cb.ProbVector.uniform(4)) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        assert cb.entropy(cb.ProbVector.point_mass(5, 2)) == 0.0

    def test_two_point(self):
        # oracle: direct evaluation of -sum p log2 p
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert cb.entropy([0.75, 0.25]) == pytest.approx(expected, abs=1e-14)

    def test_bounds_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = rng.integers(2, 12)
            p = rng.dirichlet(np.ones(d))
            h = cb.entropy(p)
            assert -1e-12 <= h <= math.log2(d) + 1e-12

    def test_concavity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = rng.integers(2, 10)
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            mid = cb.entropy(0.5 * p + 0.5 * q)
            assert mid >= 0.5 * cb.entropy(p) + 0.5 * cb.entropy(q) - 1e-12


def kl_mutual_information(p, W):
    """Independent oracle: I = sum_i p_i D(W(.|i) || pW), double sum."""
    q = W.T @ p
    total = 0.0
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            if p[i] > 0 and W[i, j] > 0:
                total += p[i] * W[i, j] * math.log2(W[i, j] / q[j])
    return total


class TestMutualInformation:
    def test_noiseless_binary(self):
        W = cb.ChannelMatrix(np.eye(2))
        assert cb.mutual_information(cb.ProbVector.uniform(2), W) == pytest.approx(1.0, abs=1e-12)

    def test_erasure_uniform(self):
        W = cb.make_bec(0.4)
        got = cb.mutual_information(cb.ProbVector.uniform(2), W)
        assert got == pytest.approx(0.6, abs=1e-12)

    def test_point_mass_input(self):
        W = cb.make_random(4, 3, seed=3)
        assert cb.mutual_information(cb.ProbVector.point_mass(4, 1), W) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cb.mutual_information(cb.ProbVector.uniform(3), cb.make_bsc(0.1))

    def test_agrees_with_kl_definition(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            W = cb.make_random(n, m, seed=int(rng.integers(0, 2**31)))
            p = rng.dirichlet(np.ones(n))
            got = cb.mutual_information(p, W)
            want = kl_mutual_information(p, W.entries)
            assert got == pytest.approx(want, abs=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            W = cb.make_random(n, m, seed=int(rng.integers(0, 2**31)))
            p = rng.dirichlet(np.ones(n))
            mi = cb.mutual_information(p, W)
            assert -1e-12 <= mi <= math.log2(min(n, m)) + 1e-10


def simplex_grid_max(A, resolution):
    """Brute-force ||b||*||A^T b|| over a 3-simplex grid."""
    best = 0.0
    for i in range(resolution + 1):
        for j in range(resolution - i + 1):
            b = np.array([i, j, resolution - i - j], dtype=float) / resolution
            best = max(best, np.linalg.norm(b) * np.linalg.norm(A.T @ b))
    return best


class TestChannelDiffNorm:
    def test_zero(self):
        W = cb.make_random(3, 3, seed=0)
        assert cb.channel_diff_norm(W, W) == 0.0

    def test_single_row_closed_form(self):
        # N=1: the only simplex point is b=(1); value is the row's 2-norm.
        W1 = cb.ChannelMatrix([[0.2, 0.8]])
        W2 = cb.ChannelMatrix([[0.5, 0.5]])
        res = cb.channel_diff_norm(W1, W2)
        assert res == pytest.approx(math.sqrt(0.3**2 + 0.3**2), abs=1e-15)

    def test_random_pair_vs_grid_oracle(self):
        W1 = cb.make_random(3, 3, seed=21)
        W2 = cb.make_random(3, 3, seed=22)
        A = W1.entries - W2.entries
        # refine the simplex grid until stable to 1e-6
        prev, cur = -1.0, 0.0
        resolution = 50
        while abs(cur - prev) > 1e-6:
            prev, cur = cur, simplex_grid_max(A, resolution)
            resolution *= 2
        rng = np.random.default_rng(23)
        samples = rng.dirichlet(np.ones(3), size=100_000)
        sampled = float(np.max(np.linalg.norm(samples, axis=1)
                               * np.linalg.norm(samples @ A, axis=1)))
        oracle = max(cur, sampled)
        res = cb.channel_diff_norm(W1, W2)
        assert oracle <= res + 1e-9
        assert res == pytest.approx(oracle, abs=1e-6)

    def test_sign_symmetry_and_triangle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            W1 = cb.make_random(n, m, seed=int(rng.integers(0, 1 << 30)))
            W2 = cb.make_random(n, m, seed=int(rng.integers(0, 1 << 30)))
            W3 = cb.make_random(n, m, seed=int(rng.integers(0, 1 << 30)))
            d12 = cb.channel_diff_norm(W1, W2)
            d21 = cb.channel_diff_norm(W2, W1)
            assert d12 == pytest.approx(d21, abs=1e-12)
            d13 = cb.channel_diff_norm(W1, W3)
            d32 = cb.channel_diff_norm(W3, W2)
            assert d12 <= d13 + d32 + 1e-9


class TestContinuityBound:
    def test_zero(self):
        assert cb.continuity_capacity_bound(0.0, 3, 4) == 0.0

    def test_half(self):
        # 3*0.5*log2(4) + 2*eta(0.5) = 3 + 1
        assert cb.continuity_capacity_bound(0.5, 2, 4) == pytest.approx(4.0, abs=1e-14)

    def test_one(self):
        assert cb.continuity_capacity_bound(1.0, 5, 3) == pytest.approx(3 * math.log2(5), abs=1e-14)

    def test_clamps(self):
        assert cb.continuity_capacity_bound(2.0, 2, 2) == cb.continuity_capacity_bound(1.0, 2, 2)


class TestChannelMatrix:
    def test_text_roundtrip(self):
        text = """
        # a 2x3 channel
        2 3
        0.6 0.4 0.0
        0.0 0.4 0.6  # trailing comment
        """
        W = cb.ChannelMatrix.from_text(text)
        assert W.rows == 2 and W.cols == 3
        assert W.gamma == 0.0
        np.testing.assert_allclose(W.entries[0], [0.6, 0.4, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(InvalidChannel):
            cb.ChannelMatrix([[1.2, -0.2], [0.5, 0.5]])

    def test_rejects_nan(self):
        with pytest.raises(InvalidChannel):
            cb.ChannelMatrix.from_text("1 2\nnan 1.0\n")

    def test_rejects_bad_rowsum(self):
        with pytest.raises(InvalidChannel):
            cb.ChannelMatrix([[0.7, 0.2], [0.5, 0.5]])

    def test_renormalizes_roundoff(self):
        W = cb.ChannelMatrix([[0.6, 0.4 + 3e-10], [0.5, 0.5]])
        np.testing.assert_allclose(W.entries.sum(axis=1), 1.0, atol=1e-15)

    def test_r_matches_row_entropy(self):
        W = cb.make_random(5, 4, seed=9)
        for i in range(5):
            assert W.r[i] == pytest.approx(cb.entropy(W.entries[i]), abs=1e-12)

    def test_gamma_is_exact_min(self):
        W = cb.make_random(5, 4, seed=10)
        assert W.gamma == W.entries.min()


@st.composite
def softmax_inputs(draw):
    """Entries in [-1e3, 1e3], some -inf (at least one entry finite), maybe one NaN."""
    size = draw(st.integers(1, 40))
    a = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
    keep = draw(st.integers(0, size - 1))
    for i in draw(st.lists(st.integers(0, size - 1), max_size=size)):
        if i != keep:
            a[i] = -np.inf
    if draw(st.booleans()):
        a[draw(st.integers(0, size - 1))] = np.nan
    return a


@settings(max_examples=300, deadline=None)
@given(a=softmax_inputs(), inplace=st.booleans())
def test_softmax_matches_reference_bit_for_bit(a, inplace):
    ref_lse, ref_e = softmax_reference(a)
    work = a.copy()
    lse, e = _softmax(work, out=work if inplace else None)
    assert np.float64(lse).tobytes() == np.float64(ref_lse).tobytes()
    assert e.tobytes() == ref_e.tobytes()
    if inplace:
        assert e is work
    if np.isnan(a).any():
        # A NaN propagates to the log-sum-exp and to every weight.
        assert math.isnan(lse) and np.isnan(e).all()
    else:
        assert math.isfinite(lse) and e.sum() == pytest.approx(1.0, abs=1e-12)
