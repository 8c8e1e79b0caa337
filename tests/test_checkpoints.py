"""Checkpoint ladder, stop reasons and the warm-started multiplier solve."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import capbound as cb
from capbound import dual_solver
from capbound.dual_solver import _max_entropy_multipliers, scheduled_iterations
from capbound.errors import Infeasible


def _ladder(n):
    """Progress k values of the default ladder on a run of n + 1 steps."""
    ks, due = [], 10
    while due - 1 < n:
        ks.append(due - 1)
        due = math.ceil(1.25 * due)
    return ks + [n]


class TestCheckpointLadder:
    def test_progress_follows_ladder(self):
        W = cb.make_random(16, 8, seed=26)
        seen = []
        rep = cb.solve_capacity(W, epsilon=0.01, stopping="apriori",
                                progress=lambda k, lb, ub, gap: seen.append(k))
        n = scheduled_iterations(0.01, *cb.smoothing_constants(W))
        assert rep.iterations == n
        assert seen[:4] == [9, 12, 16, 21]
        assert seen == _ladder(n)

    def test_apriori_without_callback_checks_once(self, monkeypatch):
        calls = []
        original = dual_solver.exact_G_unconstrained

        def counting(lam, W):
            calls.append(1)
            return original(lam, W)

        monkeypatch.setattr(dual_solver, "exact_G_unconstrained", counting)
        rep = cb.solve_capacity(cb.make_random(16, 8, seed=26), epsilon=0.01,
                                stopping="apriori")
        assert len(calls) == 1
        assert rep.iterations > 100


class TestStopReason:
    def test_gap_reached(self):
        W = cb.make_random(16, 8, seed=26)
        rep = cb.solve_capacity(W, epsilon=0.01)
        assert rep.stop_reason == "gap<=eps"
        assert rep.aposteriori_err <= 0.01
        assert rep.iterations < scheduled_iterations(0.01, *cb.smoothing_constants(W))

    def test_apriori_count(self):
        rep = cb.solve_capacity(cb.make_random(6, 4, seed=3), epsilon=0.05,
                                stopping="apriori")
        assert rep.stop_reason == "apriori_n"

    def test_aposteriori_cap(self, monkeypatch):
        # With the first ladder rung beyond the schedule, the only check is
        # at the last scheduled step, the cap of an a posteriori run.
        W = cb.make_random(3, 3, seed=5)
        n = scheduled_iterations(1e-3, *cb.smoothing_constants(W))
        monkeypatch.setattr(dual_solver, "_LADDER_FIRST", n + 1)
        rep = cb.solve_capacity(W, epsilon=1e-3)
        assert rep.stop_reason == "cap"
        assert rep.iterations == n
        assert rep.aposteriori_err <= 1e-3

    def test_degenerate_alphabet(self):
        rep = cb.solve_capacity(cb.ChannelMatrix([[0.3, 0.7]]), epsilon=1e-3)
        assert rep.stop_reason == "gap<=eps"

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError, match="stop reason"):
            cb.SolveReport(c_lb=0.0, c_ub=0.0, apriori_err=0.0, aposteriori_err=0.0,
                           iterations=0, p_hat=cb.ProbVector.uniform(2),
                           lambda_hat=dual_solver.DualPoint(np.zeros(2), 1.0),
                           wall_time=0.0, nu=1.0, stop_reason="tired")


class TestWarmStartMultipliers:
    def _problem(self):
        rng = np.random.default_rng(41)
        logmass = rng.normal(scale=300.0, size=7)
        s = np.array([0.0, 0.3, 0.9, 1.4, 2.0, 3.0, 3.5])
        return logmass, s, 1.1

    def test_starts_meet_budget(self):
        logmass, s, budget = self._problem()
        _, m2_star, _ = _max_entropy_multipliers(logmass, s, budget)
        tol = 100 * 1e-11 * (s.max() - s.min())
        for delta in (0.0, 1.0, -1.0, 1e3, -1e3):
            _, m2, mass = _max_entropy_multipliers(logmass, s, budget, m2_star + delta)
            assert mass.sum() == pytest.approx(1.0, abs=1e-12)
            assert abs(s @ mass - budget) <= tol
            assert m2 == pytest.approx(m2_star, rel=1e-6, abs=1e-6)

    def test_infeasible_with_start(self):
        logmass, s, _ = self._problem()
        with pytest.raises(Infeasible):
            _max_entropy_multipliers(logmass, s, -0.5, 12.0)

    def test_constrained_solve_meets_budget(self):
        W = cb.make_random(2, 2, 32)
        cost = cb.CostConstraint(np.array([0.0, 1.0]), 0.25)
        rep = cb.solve_capacity(W, cost=cost, epsilon=1e-4)
        assert rep.constrained and rep.stop_reason == "gap<=eps"
        assert rep.aposteriori_err <= 1e-4
        assert abs(cost.costs @ rep.p_hat.weights - cost.budget) <= 1e-9


@st.composite
def positive_channels(draw, max_size=8):
    n, m = draw(st.integers(2, max_size)), draw(st.integers(2, max_size))
    rows = draw(st.lists(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    V = np.array(rows)
    return cb.ChannelMatrix(V / V.sum(axis=1, keepdims=True))


@settings(max_examples=40, deadline=None)
@given(W=positive_channels(), eps=st.sampled_from([1e-2, 1e-3]))
def test_aposteriori_gap_and_ba_intersection(W, eps):
    dual = cb.solve_capacity(W, epsilon=eps)
    assert dual.aposteriori_err <= eps
    ba = cb.ba_solve(W, eps, stopping="aposteriori")
    assert max(dual.c_lb, ba.c_lb) <= min(dual.c_ub, ba.c_ub) + 1e-9


@settings(max_examples=50, deadline=None)
@given(W=positive_channels(max_size=6), eps=st.sampled_from([1e-2, 1e-3]), data=st.data())
def test_relabelled_and_repeated_inputs_keep_the_sandwich(W, eps, data):
    # Relabelling inputs or outputs, or repeating an input, leaves the
    # capacity unchanged, so the three certified intervals share a point.
    rows = data.draw(st.permutations(range(W.rows)))
    cols = data.draw(st.permutations(range(W.cols)))
    dup = data.draw(st.integers(0, W.rows - 1))
    variants = [W, cb.ChannelMatrix(W.entries[rows][:, cols]),
                cb.ChannelMatrix(np.vstack([W.entries, W.entries[dup]]))]
    reps = [cb.solve_capacity(V, epsilon=eps) for V in variants]
    for rep in reps:
        assert rep.aposteriori_err <= eps
    assert max(rep.c_lb for rep in reps) <= min(rep.c_ub for rep in reps) + 1e-9


@settings(max_examples=30, deadline=None)
@given(W=positive_channels(max_size=6), eps=st.sampled_from([1e-2, 1e-3]))
def test_identical_rows_have_zero_capacity(W, eps):
    rep = cb.solve_capacity(cb.ChannelMatrix(np.tile(W.entries[0], (W.rows, 1))), epsilon=eps)
    assert rep.c_lb <= 1e-9
    assert -1e-9 <= rep.c_ub <= eps


@settings(max_examples=60, deadline=None)
@given(W=positive_channels(max_size=6), eps=st.sampled_from([1e-2, 1e-3]), data=st.data())
def test_constrained_p_hat_is_feasible(W, eps, data):
    # Budgets keep 1e-3 of the cost range from either end; the ends
    # themselves have their own tests (test_budget_at_*).
    costs = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=W.rows,
                                        max_size=W.rows)))
    lo, hi = float(costs.min()), float(costs.max())
    assume(hi - lo > 1e-3)
    budget = lo + (hi - lo) * data.draw(st.floats(1e-3, 1.0 - 1e-3))
    rep = cb.solve_capacity(W, cost=cb.CostConstraint(costs, budget), epsilon=eps)
    assert costs @ rep.p_hat.weights <= budget + 1e-9
    # A zero-capacity channel can give c_lb = 1.1e-16 over c_ub = 0.
    assert rep.c_lb <= rep.c_ub + 1e-12
    assert rep.aposteriori_err <= eps


def test_budget_at_cheapest_cost_stalls():
    # The budget is within the solver tolerance of the cheapest cost, next to
    # a cost of 1e-286: the multiplier solve takes the end point (all mass on
    # the cheapest input) instead of bracketing a tilt of order 1e286.
    W = cb.ChannelMatrix([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
    cost = cb.CostConstraint(np.array([0.0, 1.0, 1.9274805906209525e-286]), 5e-324)
    rep = cb.solve_capacity(W, cost=cost, epsilon=1e-2)
    assert cost.costs @ rep.p_hat.weights <= cost.budget + 1e-9


def test_budget_just_above_cheapest_cost_uses_affordable_inputs():
    # The budget is within the solver tolerance of the cheapest cost and
    # above a cost of 1e-13: the end point keeps both inputs the budget
    # affords.  With the cheapest input alone the lower bound stayed 0 while
    # the cost-slice LP used both, and the run hit its cap with a gap of 0.19.
    W = cb.ChannelMatrix([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
    cost = cb.CostConstraint(np.array([0.0, 1.0, 1e-13]), 1.5e-13)
    for stopping in ("aposteriori", "apriori"):
        rep = cb.solve_capacity(W, cost=cost, epsilon=1e-2, stopping=stopping)
        assert cost.costs @ rep.p_hat.weights <= cost.budget
        assert rep.c_lb > 0.04 and rep.aposteriori_err <= 1e-2


def test_budget_at_dearest_cost():
    # An affordable softmax is not tilted: at the dearest cost, and at any
    # budget the untilted masses do not overspend, m2 = 0 and the masses
    # are the softmax of the log-masses, whatever the start.
    logmass, s = np.array([0.3, -0.2, 0.1]), np.array([1.0, 0.0, 1.0])
    w = np.exp(logmass)
    spend = float(s @ w) / w.sum()
    for budget in (1.0, 1.0 - 5e-12, 0.5 * (spend + 1.0), spend * (1.0 + 1e-12)):
        for start in (0.0, -3.0):
            phi, m2, mass = _max_entropy_multipliers(logmass, s, budget, start)
            assert m2 == 0.0
            np.testing.assert_allclose(mass, w / w.sum(), rtol=1e-15, atol=0)
            assert phi == pytest.approx(math.log(w.sum()), rel=1e-15)
    # The smoothed input term is then the unconstrained one.
    W = cb.ChannelMatrix([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
    value, grad, p = cb.eval_G_nu_constrained(
        np.zeros(2), W, 0.1, cb.CostConstraint(np.array([1.0, 0.0, 1.0]), 1.0))
    free_value, free_grad, free_p = cb.eval_G_nu_unconstrained(np.zeros(2), W, 0.1)
    assert value == free_value
    np.testing.assert_array_equal(grad, free_grad)
    np.testing.assert_array_equal(p.weights, free_p.weights)
