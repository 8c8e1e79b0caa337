"""Cost-constrained sandwiches on 2- and 3-input channels against a brute-force oracle.

The oracle computes C(S) = max I(p) over {p in simplex : s^T p <= S}
without any of the solver's machinery: it walks the cost slices
{s^T p = sigma} for sigma from the cheapest cost up to min(S, max s), and
along each slice, by golden-section search on a fine parametrisation.  I(p)
is concave in p, so both the slice maximum C_eq(sigma) and the walk over
sigma are unimodal, and C(S) = max over sigma <= S of C_eq(sigma).  Every
point it evaluates is feasible, so the oracle never exceeds C(S); the
search closes in on the maximiser to about 1e-16 of the parameter range.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import capbound as cb
from capbound import dual_solver
from capbound.dual_solver import S_MAX_GUARD
from capbound.errors import CertificateViolated
from capbound.info_theory import _COST_TOL

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_STEPS = 80  # golden-section steps: the bracket shrinks to 0.618**80 ~ 2e-17 of its length
# Rounding allowance of a comparison: I(p) and F + G of these small channels
# round by less, and no bound of the solver is widened by it.
_ROUNDING = 1e-12


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
    top = min(budget, float(s.max()))
    return _golden_max(lambda sigma: _slice_capacity(W, s, sigma), float(s.min()), top)


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
    """A positive 2- or 3-input channel, costs with ties allowed, a budget, and S_max.

    S_max is estimated as ``solve_capacity`` does.  Budgets come from the
    edges of the cost range: the cheapest cost, just above it, the S_max
    guard band and the dearest cost, as well as anywhere in [s_min, s_max].
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
    s_max = float(s @ cb.ba_solve(W, dual_solver._SMAX_SOLVE_EPS, "aposteriori").p.weights)
    kind = draw(st.sampled_from(["cheapest", "above-cheapest", "guard", "guard-edge",
                                 "dearest", "anywhere"]))
    if kind == "cheapest":
        budget = lo
    elif kind == "above-cheapest":
        budget = lo + 10.0 ** draw(st.floats(-12.0, -3.0)) * (hi - lo)
    elif kind == "guard":
        budget = s_max + draw(st.floats(-2.0, 2.0)) * S_MAX_GUARD
    elif kind == "guard-edge":
        budget = s_max + draw(st.sampled_from([-1.0, 1.0])) * S_MAX_GUARD
    elif kind == "dearest":
        budget = hi
    else:
        budget = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    return W, cb.CostConstraint(s, max(budget, lo)), s_max


@settings(max_examples=50, deadline=None)
@given(problem=small_cost_problems(), stopping=st.sampled_from(["aposteriori", "apriori"]),
       eps=st.sampled_from([1e-1, 1e-2]))
def test_sandwich_brackets_brute_force_capacity(problem, stopping, eps):
    # c_lb <= C(S) <= c_ub, except where a defect listed under "Sound
    # cost edges" in ROADMAP.md applies; test_known_cost_edge_defects pins
    # a draw of each, and each exception below goes when its defect is
    # mended.
    W, cost, s_max = problem
    s, budget = cost.costs, cost.budget
    # Distinct costs closer than the multiplier solve's absolute tolerance
    # are pooled by it but kept apart by the hull LP (defect "tiny costs").
    assume(np.diff(np.unique(s)).min(initial=1.0) > _COST_TOL)
    oracle = capacity_oracle(W.entries, s, budget)
    if stopping == "apriori" and budget < s.max():
        # The a priori masses meet the budget only to the multiplier solve's
        # acceptance, 100 tol (defect "a priori overspend"); where that
        # moves C by more than 1e-10 the overspent c_lb can exceed c_ub by
        # more than 1e-9, and the report raises.
        accept = 100 * _COST_TOL * max(1.0, abs(budget))
        assume(capacity_oracle(W.entries, s, budget + accept) - oracle <= 1e-10)
    rep = cb.solve_capacity(W, cost=cost, epsilon=eps, stopping=stopping)

    spend = float(s @ rep.p_hat.weights)
    if stopping == "aposteriori":
        assert spend <= budget + _ROUNDING
    # c_lb is I(p_hat); with no overspend this is c_lb <= C(S).
    at_spend = oracle if spend <= budget else capacity_oracle(W.entries, s, spend)
    assert rep.c_lb <= at_spend + _ROUNDING
    if budget < s_max - S_MAX_GUARD or budget >= s.max():
        assert oracle <= rep.c_ub + _ROUNDING
    else:
        # In the guard band an overspending unconstrained p_hat makes the
        # solve enforce s . p = S, and c_ub then bounds the slice's C_eq(S),
        # which is below C(S) when S is above the true S_max (defect
        # "guard band").
        assert _slice_capacity(W.entries, s, budget) <= rep.c_ub + _ROUNDING


# One draw of each cost-edge defect the property found, as (W, costs,
# budget, stopping, eps).  Each fails the full claim c_lb <= C(S) <= c_ub.
KNOWN_DEFECTS = [
    pytest.param(
        [[0.0032869699864322205, 0.22703834991893593, 0.7696746800946319],
         [0.9993127144995119, 1e-06, 0.0006862855004882236]],
        [8.77893432662699e-191, 1.0], 1.222105609487873e-09, "apriori", 0.1,
        marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                reason="a priori overspend: c_lb 3.8e-11 above C(S)"),
        id="apriori-overspend"),
    pytest.param(
        [[0.9852129819893923, 0.011665290415845355, 0.0031217275947622463],
         [0.0031119065846975176, 0.3856914286146145, 0.611196664800688],
         [0.0031119065840081923, 0.48010383466889617, 0.5167842587470957]],
        [1e-05, 1.0, 0.0], 2.1294825743969224e-09, "apriori", 0.01,
        marks=pytest.mark.xfail(strict=True, raises=CertificateViolated,
                                reason="a priori overspend where C is steep: c_lb > c_ub"),
        id="apriori-overspend-raises"),
    pytest.param(
        [[0.16342037672412518, 0.42239769689973716, 0.22350411936167247,
          0.1906778070144652],
         [0.8212013722284381, 0.0024117563261603116, 0.17397511425752177,
          0.0024117571878797322],
         [0.0024117563261603116, 0.0024117563261603116, 0.002415351898165778,
          0.9927611354495136]],
        [0.0, 0.0, 2.225073858507203e-309], 0.0, "apriori", 0.01,
        marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                reason="tiny costs: c_lb 0.57 bits above C(S)"),
        id="tiny-costs-apriori"),
    pytest.param(
        [[0.9999879673316772, 1.2032668322761327e-05],
         [0.5892592292624411, 0.4107407707375589]],
        [1.250348048605315e-18, 1e-300], 1e-300, "aposteriori", 0.01,
        marks=pytest.mark.xfail(strict=True, raises=CertificateViolated,
                                reason="tiny costs: the cost-tilted BA's c_lb > c_ub"),
        id="tiny-costs-aposteriori"),
    pytest.param(
        [[0.20446306086132435, 0.7955369391386756],
         [1.3201952271744753e-06, 0.9999986798047727]],
        [0.5651066614675043, 0.661463844657097], 0.6250563936489305, "aposteriori", 0.01,
        marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                reason="guard band: c_ub 4.5e-7 below C(S)"),
        id="guard-band"),
]


@pytest.mark.parametrize("rows, costs, budget, stopping, eps", KNOWN_DEFECTS)
def test_known_cost_edge_defects(rows, costs, budget, stopping, eps):
    W, s = cb.ChannelMatrix(np.array(rows)), np.array(costs)
    rep = cb.solve_capacity(W, cost=cb.CostConstraint(s, budget), epsilon=eps, stopping=stopping)
    oracle = capacity_oracle(W.entries, s, budget)
    assert rep.c_lb <= oracle + _ROUNDING
    assert oracle <= rep.c_ub + _ROUNDING
