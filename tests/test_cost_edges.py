"""Cost-constrained sandwiches on 2- and 3-input channels against a brute-force oracle.

The oracle computes C(S) = max I(p) over {p in simplex : s^T p <= S}
without any of the solver's machinery: it walks the cost slices
{s^T p = sigma} for sigma from the cheapest cost up to min(S, max s)
(with the costs rescaled to [0, 1], for resolution), and
along each slice, by golden-section search on a fine parametrisation.  I(p)
is concave in p, so both the slice maximum C_eq(sigma) and the walk over
sigma are unimodal, and C(S) = max over sigma <= S of C_eq(sigma).  Every
point it evaluates is feasible, so the oracle never exceeds C(S); the
search closes in on the maximiser to about 1e-16 of the parameter range.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capbound as cb

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_STEPS = 80  # golden-section steps: the bracket shrinks to 0.618**80 ~ 2e-17 of its length
# Rounding allowance of a comparison: I(p) and F + G of these small channels
# round by less, and no bound of the solver is widened by it.
_ROUNDING = 1e-12
# Half-width of the band of budgets drawn around S_max, the cost of the
# unconstrained optimum, where the constraint stops binding.
_GUARD = 1e-4


def _mutual_information_bits(p, W):
    """I(p) = H(W^T p) - sum_i p_i H(W_i) in bits, for a positive W."""
    q = W.T @ p
    return float(-(q @ np.log2(q)) + p @ (W * np.log2(W)).sum(axis=1))


def _golden_max(f, lo, hi):
    """Largest value of f seen while golden-section searching [lo, hi], ends included."""
    best = max(f(lo), f(hi))
    a, b = lo, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_STEPS):
        best = max(best, fc, fd)
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return max(best, fc, fd)


def _slice_ends(s, sigma):
    """Two points of the simplex whose segment is the cost slice {s^T p = sigma}."""
    n = s.size
    points = []
    for i in range(n):
        for j in range(i + 1, n):
            if s[i] == s[j]:
                if s[i] == sigma:
                    points += [np.eye(n)[i], np.eye(n)[j]]
            elif min(s[i], s[j]) <= sigma <= max(s[i], s[j]):
                t = (sigma - s[j]) / (s[i] - s[j])  # weight on input i
                p = np.zeros(n)
                p[i], p[j] = t, 1.0 - t
                points.append(p)
    return max(((a, b) for a in points for b in points),
               key=lambda ab: float(np.abs(ab[0] - ab[1]).sum()))


def _slice_capacity(W, s, sigma):
    """C_eq(sigma): the largest I(p) over the cost slice {s^T p = sigma}."""
    a, b = _slice_ends(s, sigma)
    return _golden_max(lambda u: _mutual_information_bits((1.0 - u) * a + u * b, W), 0.0, 1.0)


def capacity_oracle(W, s, budget):
    """C(budget) = max I(p) over {p in simplex : s^T p <= budget}, by brute force."""
    W = np.asarray(W, dtype=float)
    if s.min() == s.max():
        # No constraint, and the one slice is the whole simplex: walk the
        # slices of distinct costs instead, up to the dearest.
        s = np.arange(float(s.size))
        budget = s[-1]
    # Walk the costs rescaled to [0, 1]: costs that differ by far less than
    # their size (1 and 1 - 1e-16) or by a few subnormals (0 and 5e-324)
    # then keep slices between them that the costs have no float to name.
    lo, scale = float(s.min()), float(s.max() - s.min())
    top = (min(budget, float(s.max())) - lo) / scale
    return _golden_max(lambda sigma: _slice_capacity(W, (s - lo) / scale, sigma), 0.0, top)


def _binary_entropy(x):
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@pytest.mark.parametrize("budget", [0.0, 1e-9, 0.1, 0.3, 0.5, 0.7, 1.0])
def test_oracle_on_bsc_with_unit_cost(budget):
    # BSC(0.1), cost 1 on input 1: C(S) = h(S (1 - 2 x) + x) - h(x) for
    # S <= 1/2, where p_1 = S, and the capacity 1 - h(x) from S = 1/2 on.
    x = 0.1
    W = cb.make_bsc(x).entries
    p1 = min(budget, 0.5)
    want = _binary_entropy(p1 * (1 - 2 * x) + x) - _binary_entropy(x) if p1 > 0 else 0.0
    got = capacity_oracle(W, np.array([0.0, 1.0]), budget)
    assert got == pytest.approx(want, abs=1e-13)


def test_oracle_on_ternary_symmetric_channel():
    # Equal costs put the whole simplex on one slice: C = log2 3 - H(row).
    W = np.full((3, 3), 0.1) + 0.7 * np.eye(3)
    row = W[0]
    want = math.log2(3) + float(row @ np.log2(row))
    assert capacity_oracle(W, np.array([0.5, 0.5, 0.5]), 0.5) == pytest.approx(want, abs=1e-13)
    # With cost 1 on input 2 and budget 0 only inputs 0 and 1 are usable,
    # and by symmetry the even mix of the two is optimal.
    sub = capacity_oracle(W, np.array([0.0, 0.0, 1.0]), 0.0)
    assert sub == pytest.approx(_mutual_information_bits(np.array([0.5, 0.5, 0.0]), W),
                                abs=1e-13)


@st.composite
def small_cost_problems(draw):
    """A positive 2- or 3-input channel and a cost constraint, costs with ties allowed.

    Budgets come from the edges of the cost range: the cheapest cost, just
    above it, within _GUARD of S_max (estimated by certified
    Blahut-Arimoto to 1e-6) and the dearest cost, as well as anywhere in
    [s_min, s_max].
    """
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    gamma = 10.0 ** draw(st.floats(-6.0, -2.0))
    V = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    V[V.sum(axis=1) == 0.0] = 1.0
    W = cb.ChannelMatrix(gamma + (1.0 - m * gamma) * (V / V.sum(axis=1, keepdims=True)))
    s = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                               min_size=n, max_size=n)))
    lo, hi = float(s.min()), float(s.max())
    s_max = float(s @ cb.ba_solve(W, 1e-6, "aposteriori").p.weights)
    kind = draw(st.sampled_from(["cheapest", "above-cheapest", "guard", "guard-edge",
                                 "dearest", "anywhere"]))
    if kind == "cheapest":
        budget = lo
    elif kind == "above-cheapest":
        budget = lo + 10.0 ** draw(st.floats(-12.0, -3.0)) * (hi - lo)
    elif kind == "guard":
        budget = s_max + draw(st.floats(-2.0, 2.0)) * _GUARD
    elif kind == "guard-edge":
        budget = s_max + draw(st.sampled_from([-1.0, 1.0])) * _GUARD
    elif kind == "dearest":
        budget = hi
    else:
        budget = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    return W, cb.CostConstraint(s, max(budget, lo))


@settings(max_examples=50, deadline=None)
@given(problem=small_cost_problems(), stopping=st.sampled_from(["aposteriori", "apriori"]),
       eps=st.sampled_from([1e-1, 1e-2]))
def test_sandwich_brackets_brute_force_capacity(problem, stopping, eps):
    W, cost = problem
    s, budget = cost.costs, cost.budget
    rep = cb.solve_capacity(W, cost=cost, epsilon=eps, stopping=stopping)
    assert float(s @ rep.p_hat.weights) <= budget + _ROUNDING
    if stopping == "aposteriori":
        assert rep.stop_reason == "gap<=eps"
    oracle = capacity_oracle(W.entries, s, budget)
    assert rep.c_lb <= oracle + _ROUNDING
    assert oracle <= rep.c_ub + _ROUNDING
