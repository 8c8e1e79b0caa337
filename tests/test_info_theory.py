import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import segment_lp_max as segment_lp_max_reference
from reference import softmax as softmax_reference
from scipy.optimize import linprog

import capbound as cb
from capbound.errors import DimensionMismatch, InvalidChannel
from capbound.info_theory import _segment_lp_max, _softmax


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

    def test_stores_c_ordered_entries(self):
        # A relabelled channel (rows, then columns picked) is Fortran-ordered;
        # the solvers walk row blocks of W, so it is stored C-ordered, and
        # every solve sees the same array as for the C-ordered input.
        entries = cb.make_random(40, 7, seed=11).entries
        rng = np.random.default_rng(0)
        picked = entries[rng.permutation(40)][:, rng.permutation(7)]
        assert picked.flags.f_contiguous and not picked.flags.c_contiguous
        W_f, W_c = cb.ChannelMatrix(picked), cb.ChannelMatrix(np.ascontiguousarray(picked))
        assert W_f.entries.flags.c_contiguous
        assert W_f.entries.tobytes() == W_c.entries.tobytes()
        for stopping in ("apriori", "aposteriori"):
            rep_f = cb.solve_capacity(W_f, epsilon=0.05, stopping=stopping)
            rep_c = cb.solve_capacity(W_c, epsilon=0.05, stopping=stopping)
            assert rep_f.iterations == rep_c.iterations
            assert (rep_f.c_lb, rep_f.c_ub) == (rep_c.c_lb, rep_c.c_ub)
            assert rep_f.p_hat.weights.tobytes() == rep_c.p_hat.weights.tobytes()
            assert rep_f.lambda_hat.values.tobytes() == rep_c.lambda_hat.values.tobytes()
            ba_f, ba_c = cb.ba_solve(W_f, 1e-3, stopping), cb.ba_solve(W_c, 1e-3, stopping)
            assert ba_f.iterations == ba_c.iterations
            assert (ba_f.c_lb, ba_f.c_ub) == (ba_c.c_lb, ba_c.c_ub)
            assert ba_f.p.weights.tobytes() == ba_c.p.weights.tobytes()


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


@st.composite
def segment_lps(draw, costs=st.sampled_from([0.0, 1.0]) | st.floats(0, 5)):
    """(f, s, budget) with N in [1, 16], some tied costs and values, budget in [min s, max s]."""
    n = draw(st.integers(1, 16))
    f = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 2.5]) | st.floats(-10, 10),
                               min_size=n, max_size=n)))
    s = np.array(draw(st.lists(costs, min_size=n, max_size=n)))
    budget = float(s.min() + draw(st.floats(0, 1)) * (s.max() - s.min()))
    return f, s, budget


# HiGHS accepts a constraint violated by up to its feasibility tolerance
# (1e-7 by default; sum p = 1 + 5e-10 once gave 2.50000000125 for a largest
# value of 2.5), so the oracle runs at 1e-10, and costs that differ by less
# are one cost to it: with costs (0, 0, 0, 0, 0, 1.5e-218), budget 0 and the
# best value on the last input, it reports that value, which the budget does
# not afford.  The oracle's costs lie on a grid of eighths.
@settings(max_examples=300, deadline=None)
@given(lp=segment_lps(costs=st.integers(0, 40).map(lambda k: k / 8)))
def test_segment_lp_max_solves_the_lp(lp):
    # An independent LP solver: max f.p over p >= 0, sum p = 1, s.p <= budget.
    f, s, budget = lp
    res = linprog(-f, A_ub=s[None, :], b_ub=[budget], A_eq=np.ones((1, f.size)), b_eq=[1.0],
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    assert _segment_lp_max(f, s, budget) == pytest.approx(-res.fun, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(lp=segment_lps())
def test_segment_lp_max_matches_numpy_scalar_hull_bit_for_bit(lp):
    f, s, budget = lp
    got, want = _segment_lp_max(f, s, budget), segment_lp_max_reference(f, s, budget)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
