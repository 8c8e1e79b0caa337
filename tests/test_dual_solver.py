import math

import numpy as np
import pytest
from reference import _eval_F_direct, _eval_G_nu_direct
from scipy.optimize import brentq, linprog
from scipy.special import rel_entr

import capbound as cb
from capbound.dual_solver import (
    FastGradientState,
    _max_entropy_multipliers,
    apriori_error_bound,
    exact_G_constrained,
    exact_G_unconstrained,
    project_ball,
    scheduled_iterations,
)
from capbound.errors import AssumptionViolated, Infeasible


def binary_entropy(p):
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def central_diff_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


class TestEvalF:
    def test_zero_lambda(self):
        val, grad = cb.eval_F(np.zeros(4))
        assert val == pytest.approx(2.0, abs=1e-14)
        np.testing.assert_allclose(grad, -0.25, atol=1e-14)

    def test_ones(self):
        val, _ = cb.eval_F(np.array([1.0, 1.0]))
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_gradient_sums_to_minus_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, grad = cb.eval_F(rng.normal(size=6) * 10)
            assert grad.sum() == pytest.approx(-1.0, abs=1e-12)

    def test_finite_differences(self):
        lam = np.array([0.0, 10.0])
        _, grad = cb.eval_F(lam)
        fd = central_diff_grad(lambda x: cb.eval_F(x)[0], lam, h=1e-5)
        np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_stabilized_matches_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lam = rng.uniform(-20, 20, size=5)
            v1, g1 = cb.eval_F(lam)
            v2, g2 = _eval_F_direct(lam)
            assert v1 == pytest.approx(v2, abs=1e-10)
            np.testing.assert_allclose(g1, g2, atol=1e-10)


class TestEvalGnuUnconstrained:
    def test_symmetric_channel_at_zero(self):
        W = cb.make_bsc(0.1)
        for nu in (0.3, 0.01):
            val, grad, p = cb.eval_G_nu_unconstrained(np.zeros(2), W, nu)
            assert val == pytest.approx(-binary_entropy(0.1), abs=1e-12)
            np.testing.assert_allclose(p.weights, 0.5, atol=1e-12)

    def test_finite_differences(self):
        W = cb.make_random(4, 3, seed=5)
        rng = np.random.default_rng(6)
        lam = rng.normal(size=3)
        nu = 0.01
        _, grad, _ = cb.eval_G_nu_unconstrained(lam, W, nu)
        fd = central_diff_grad(lambda x: cb.eval_G_nu_unconstrained(x, W, nu)[0], lam)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_large_nu_gives_uniform(self):
        W = cb.make_random(6, 4, seed=7)
        # deviation scales like (score spread)/nu: ~1e-4 at nu=1e3, gone at 1e6
        _, _, p = cb.eval_G_nu_unconstrained(np.ones(4), W, nu=1e3)
        np.testing.assert_allclose(p.weights, 1.0 / 6, atol=1e-4)
        _, _, p = cb.eval_G_nu_unconstrained(np.ones(4), W, nu=1e6)
        np.testing.assert_allclose(p.weights, 1.0 / 6, atol=1e-6)

    def test_uniform_approximation_of_exact_G(self):
        W = cb.make_random(5, 4, seed=8)
        radius = cb.dual_radius(W)
        rng = np.random.default_rng(9)
        for nu in (0.5, 0.05):
            for _ in range(25):
                lam = project_ball(rng.normal(size=4) * radius, radius)
                gnu, _, _ = cb.eval_G_nu_unconstrained(lam, W, nu)
                g = exact_G_unconstrained(lam, W)
                assert gnu <= g + 1e-9
                assert g <= gnu + nu * math.log2(W.rows) + 1e-9

    def test_stabilized_matches_naive(self):
        W = cb.make_random(4, 3, seed=10)
        rng = np.random.default_rng(11)
        for _ in range(20):
            lam = rng.uniform(-3, 3, size=3)
            v1, g1, p1 = cb.eval_G_nu_unconstrained(lam, W, nu=0.5)
            v2, g2, p2 = _eval_G_nu_direct(lam, W, nu=0.5)
            assert v1 == pytest.approx(v2, abs=1e-10)
            np.testing.assert_allclose(g1, g2, atol=1e-10)
            np.testing.assert_allclose(p1.weights, p2, atol=1e-10)


def _multipliers(lam, W, nu, cost):
    """Base-2 multipliers (mu1, mu2) making p_i = 2^(mu1 + (W lambda - r)_i/nu + mu2 s_i)
    feasible, from the multiplier solve's log-normaliser Phi at the budget
    and its tilt m2 per unit of the cost range: mu1 = -Phi - m2 S in nats."""
    s, S = cost.costs, cost.budget
    scores = (W.entries @ lam - W.r) * (math.log(2.0) / nu)
    phi, m2, _ = _max_entropy_multipliers(scores, s, S)
    m2 = m2 / (s.max() - s.min()) if m2 else 0.0
    return (-phi - m2 * S) / math.log(2.0), m2 / math.log(2.0)


class TestSolveMu:
    def test_degenerate_constant_cost(self):
        W = cb.make_random(4, 3, seed=12)
        cost = cb.CostConstraint(np.full(4, 0.7), 0.7)
        _, mu2 = _multipliers(np.zeros(3), W, 0.1, cost)
        assert mu2 == 0.0
        val_c, grad_c, p_c = cb.eval_G_nu_constrained(np.zeros(3), W, 0.1, cost)
        val_u, grad_u, p_u = cb.eval_G_nu_unconstrained(np.zeros(3), W, 0.1)
        assert val_c == pytest.approx(val_u, abs=1e-12)
        np.testing.assert_allclose(p_c.weights, p_u.weights, atol=1e-12)

    def test_forced_two_point_solution(self):
        # identity channel, lambda = 0: tilts vanish, constraints pin p.
        W = cb.ChannelMatrix(np.eye(2))
        cost = cb.CostConstraint(np.array([0.0, 1.0]), 0.25)
        mu1, mu2 = _multipliers(np.zeros(2), W, 1.0, cost)
        p = 2.0 ** (mu1 + np.array([0.0, 1.0]) * mu2)
        np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-10)

    def test_constraints_met(self):
        # Complementary slackness: the masses spend at most S, all of it
        # with mu2 < 0 where the untilted softmax overspends, and are that
        # softmax (mu2 = 0) where it does not.
        rng = np.random.default_rng(13)
        W = cb.make_random(6, 4, seed=14)
        s = np.array([0.0, 0.3, 0.9, 1.4, 2.0, 3.0])
        binding = 0
        for _ in range(20):
            lam = rng.normal(size=4)
            nu = 10 ** rng.uniform(-3, 0)
            S = rng.uniform(0.1, 2.5)
            cost = cb.CostConstraint(s, S)
            mu1, mu2 = _multipliers(lam, W, nu, cost)
            f = W.entries @ lam - W.r
            p = 2.0 ** (mu1 + f / nu + mu2 * s)
            untilted = np.exp2((f - f.max()) / nu)
            untilted /= untilted.sum()
            assert p.sum() == pytest.approx(1.0, abs=1e-10)
            assert s @ p <= S + 1e-8
            if s @ untilted > S:
                binding += 1
                assert mu2 < 0.0
                assert s @ p == pytest.approx(S, abs=1e-8)
            else:
                assert mu2 == 0.0
                np.testing.assert_allclose(p, untilted, rtol=1e-9, atol=1e-12)
        assert 0 < binding < 20

    def test_brute_force_segment_oracle(self):
        # The cost slice {p in simplex_3 : s^T p = S} is a segment between
        # the two pair-support vertices; golden-section on it is the oracle.
        # Each drawn lambda's untilted softmax overspends S, so the budget
        # binds and the slice maximiser is the one over s^T p <= S.
        W = cb.make_random(3, 3, seed=15)
        s = np.array([0.0, 1.0, 2.0])
        S = 0.7
        nu = 0.2
        cost = cb.CostConstraint(s, S)
        v1 = np.array([1.0 - S, S, 0.0])
        v2 = np.array([1.0 - S / 2.0, 0.0, S / 2.0])
        rng = np.random.default_rng(16)
        for _ in range(3):
            lam = rng.normal(size=3)
            f = W.entries @ lam - W.r
            untilted = np.exp2((f - f.max()) / nu)
            assert s @ untilted / untilted.sum() > S

            def objective(t):
                p = (1.0 - t) * v1 + t * v2
                return float(f @ p) + nu * (cb.entropy(cb.ProbVector(p)) - math.log2(3))

            lo, hi = 0.0, 1.0
            invphi = (math.sqrt(5.0) - 1.0) / 2.0
            a, b = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
            fa, fb = objective(a), objective(b)
            for _ in range(200):
                if fa > fb:
                    hi, b, fb = b, a, fa
                    a = hi - invphi * (hi - lo)
                    fa = objective(a)
                else:
                    lo, a, fa = a, b, fb
                    b = lo + invphi * (hi - lo)
                    fb = objective(b)
            t_star = 0.5 * (lo + hi)
            p_star = (1.0 - t_star) * v1 + t_star * v2
            val, _, p_nu = cb.eval_G_nu_constrained(lam, W, nu, cost)
            np.testing.assert_allclose(p_nu.weights, p_star, atol=1e-4)
            assert val == pytest.approx(objective(t_star), abs=1e-8)

    def test_infeasible_budget(self):
        W = cb.make_random(3, 3, seed=17)
        with pytest.raises(Infeasible):
            _multipliers(np.zeros(3), W, 0.1, cb.CostConstraint(np.array([1.0, 2.0, 3.0]), 0.5))


class TestEvalGnuConstrained:
    def test_finite_differences(self):
        W = cb.make_random(4, 3, seed=18)
        cost = cb.CostConstraint(np.array([0.0, 1.0, 2.0, 3.0]), 1.2)
        rng = np.random.default_rng(19)
        lam = rng.normal(size=3)
        nu = 0.05
        _, grad, _ = cb.eval_G_nu_constrained(lam, W, nu, cost)
        fd = central_diff_grad(
            lambda x: cb.eval_G_nu_constrained(x, W, nu, cost)[0], lam
        )
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_gradient_lipschitz(self, constrained):
        W = cb.make_random(5, 4, seed=20)
        cost = cb.CostConstraint(np.array([0.0, 0.5, 1.0, 1.5, 2.0]), 0.8)
        nu = 0.05
        radius = cb.dual_radius(W)
        rng = np.random.default_rng(21)
        for _ in range(100):
            l1 = project_ball(rng.normal(size=4) * radius / 4, radius)
            l2 = project_ball(rng.normal(size=4) * radius / 4, radius)
            if constrained:
                _, g1, _ = cb.eval_G_nu_constrained(l1, W, nu, cost)
                _, g2, _ = cb.eval_G_nu_constrained(l2, W, nu, cost)
            else:
                _, g1, _ = cb.eval_G_nu_unconstrained(l1, W, nu)
                _, g2, _ = cb.eval_G_nu_unconstrained(l2, W, nu)
            lhs = np.linalg.norm(g1 - g2)
            rhs = (1.0 / nu) * np.linalg.norm(l1 - l2) * (1.0 + 1e-6)
            assert lhs <= rhs


class TestProjectQ:
    def test_inside_unchanged(self):
        x = np.array([0.1, -0.2])
        out = project_ball(x, 1.0)
        np.testing.assert_array_equal(out, x)

    def test_rescales(self):
        out = project_ball(np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_norm_bounded_sweep(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            r = float(rng.uniform(0.1, 5.0))
            x = rng.normal(size=4) * 10
            assert np.linalg.norm(project_ball(x, r)) <= r + 1e-12


# Relative error allowed between the stacked step and the textbook step,
# in norm: both run the same method, rounded in a different order.
STEP_RTOL = 1e-12


@pytest.mark.parametrize("centred", [False, True])
def test_stacked_step_is_textbook_step(centred):
    rng = np.random.default_rng(20)
    M, radius, L = 5, 4.0, 1.0 + 1.0 / 0.05
    centre = rng.uniform(-1.0, 1.0, size=M) if centred else None
    c = np.zeros(M) if centre is None else centre
    state = FastGradientState(M, radius, L, centre)
    x, gsum = c.copy(), np.zeros(M)
    left_y = left_z = 0
    for k in range(500):
        gG = rng.normal(size=M) * 10.0 ** rng.uniform(-1.0, 2.5)
        pF = rng.dirichlet(np.ones(M))
        g = gG - pF
        y_in = x - g / L
        gsum += (k + 1) * g
        z_in = c - gsum / (2.0 * L)
        left_y += np.linalg.norm(y_in) > radius
        left_z += np.linalg.norm(z_in) > radius
        y = project_ball(y_in, radius)
        z = project_ball(z_in, radius)
        x = 2.0 * z / (k + 3) + (k + 1) * y / (k + 3)

        y_state = state.step(np.array([gG, pF]))
        assert np.linalg.norm(y_state - y) <= STEP_RTOL * np.linalg.norm(y), k
        assert np.linalg.norm(state.x - x) <= STEP_RTOL * np.linalg.norm(x), k
    # Both projections ran on some steps and were idle on others.
    assert 0 < left_y < 500 and 0 < left_z < 500
    assert state.k == 500


class TestExactG:
    def test_unconstrained_is_row_max(self):
        W = cb.make_random(5, 3, seed=23)
        lam = np.array([0.3, -0.2, 1.0])
        assert exact_G_unconstrained(lam, W) == pytest.approx(
            (W.entries @ lam - W.r).max(), abs=1e-15
        )

    def test_constrained_matches_linprog(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            n = int(rng.integers(3, 13))
            W = cb.make_random(n, 4, seed=int(rng.integers(0, 1 << 30)))
            s = rng.uniform(0, 3, size=n)
            S = float(rng.uniform(s.min(), s.max()))
            lam = rng.normal(size=4)
            cost = cb.CostConstraint(s, S)
            got = exact_G_constrained(lam, W, cost)
            f = W.entries @ lam - W.r
            res = linprog(-f, A_ub=s[None, :], b_ub=[S], A_eq=np.ones((1, n)), b_eq=[1.0],
                          bounds=[(0, None)] * n, method="highs")
            assert res.success
            assert got == pytest.approx(-res.fun, abs=1e-9)

    def test_constrained_infeasible(self):
        # A budget below the cheapest cost affords nothing; one above the
        # dearest affords every input, so G is the row maximum.
        W = cb.make_random(3, 3, seed=25)
        s, lam = np.array([1.0, 1.5, 2.0]), np.array([0.3, -0.2, 1.0])
        with pytest.raises(Infeasible):
            exact_G_constrained(lam, W, cb.CostConstraint(s, 0.5))
        assert exact_G_constrained(lam, W, cb.CostConstraint(s, 5.0)) \
            == exact_G_unconstrained(lam, W)


class TestSchedules:
    def test_monotone_in_epsilon(self):
        n1 = scheduled_iterations(0.1, 4.0, 2.0)
        n2 = scheduled_iterations(0.05, 4.0, 2.0)
        assert n2 > n1
        assert n2 <= 2 * n1 + math.ceil(2 * math.sqrt(4.0 / 0.05)) + 1

    def test_scheduled_meets_target(self):
        for eps in (1.0, 0.1, 0.01):
            for d1, d2 in ((1.0, 1.0), (800.0, 1.0), (3.5e6, 13.3)):
                n = scheduled_iterations(eps, d1, d2)
                assert apriori_error_bound(n, d1, d2) <= eps
                assert apriori_error_bound(n - 1, d1, d2) > eps


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_epsilon_must_be_positive_and_finite(eps):
    W = cb.make_bsc(0.2)
    for solve in (lambda: scheduled_iterations(eps, 4.0, 2.0),
                  lambda: cb.ba_iterations(2, eps),
                  lambda: cb.solve_capacity(W, epsilon=eps),
                  lambda: cb.solve_capacity(cb.ChannelMatrix([[0.5, 0.5]]), epsilon=eps),
                  lambda: cb.ba_solve(W, eps),
                  lambda: cb.solve_poisson_grid(1.0, epsilon=eps)):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            solve()


class TestSolveCapacity:
    def test_bsc_sandwich(self):
        rep = cb.solve_capacity(cb.make_bsc(0.1), epsilon=1e-3)
        truth = 1.0 - binary_entropy(0.1)
        assert rep.c_lb - 1e-9 <= truth <= rep.c_ub + 1e-9
        assert rep.aposteriori_err <= 1e-3

    def test_symmetric_two_by_two(self):
        W = cb.ChannelMatrix([[0.6, 0.4], [0.4, 0.6]])
        rep = cb.solve_capacity(W, epsilon=1e-4)
        truth = 1.0 - binary_entropy(0.4)
        assert rep.c_lb - 1e-9 <= truth <= rep.c_ub + 1e-9

    def test_checkpoint_sandwich_property(self):
        gaps = []

        def watch(k, lb, ub, gap):
            gaps.append(gap)
            assert lb <= ub + 1e-9

        cb.solve_capacity(cb.make_random(16, 8, seed=26), epsilon=0.01,
                          stopping="apriori", progress=watch)
        assert gaps and min(gaps) >= -1e-9

    def test_apriori_bound_holds(self):
        W = cb.make_random(12, 6, seed=27)
        rep = cb.solve_capacity(W, epsilon=0.05, stopping="apriori")
        assert rep.aposteriori_err <= rep.apriori_err + 1e-9
        d1, d2 = cb.smoothing_constants(W)
        assert rep.apriori_err == pytest.approx(
            apriori_error_bound(rep.iterations, d1, d2), rel=1e-12
        )

    def test_constrained_meets_budget(self):
        W = cb.make_random(3, 3, seed=28)
        s = np.array([0.0, 1.0, 2.0])
        pre = cb.solve_capacity(W, epsilon=1e-4)
        s_max = float(s @ pre.p_hat.weights)
        cost = cb.CostConstraint(s, 0.5 * s_max)
        rep = cb.solve_capacity(W, cost=cost, epsilon=1e-4)
        assert rep.constrained
        assert s @ rep.p_hat.weights == pytest.approx(0.5 * s_max, abs=1e-8)
        assert rep.c_lb <= rep.c_ub + 1e-9
        assert rep.c_lb <= pre.c_ub + 1e-9  # constrained capacity cannot exceed C

    def test_loose_budget_drops_constraint(self):
        # A budget at or above the dearest cost affords every input: the
        # constraint is dropped and the solve is the free one.  A budget
        # between S_max and the dearest cost enters the solve but does not
        # bind, so both pairs bound the same capacity.
        W = cb.make_random(3, 3, seed=29)
        s = np.array([0.0, 1.0, 2.0])
        free = cb.solve_capacity(W, epsilon=1e-4)
        for budget in (2.0, 3.5):
            rep = cb.solve_capacity(W, cost=cb.CostConstraint(s, budget), epsilon=1e-4)
            assert not rep.constrained
            for field in ("c_lb", "c_ub", "apriori_err", "aposteriori_err", "iterations",
                          "nu", "stop_reason", "warm_start_iterations"):
                assert getattr(rep, field) == getattr(free, field), field
            np.testing.assert_array_equal(rep.p_hat.weights, free.p_hat.weights)
            np.testing.assert_array_equal(rep.lambda_hat.values, free.lambda_hat.values)
        assert s @ free.p_hat.weights < 1.99
        rep = cb.solve_capacity(W, cost=cb.CostConstraint(s, 1.99), epsilon=1e-4)
        assert rep.constrained
        assert s @ rep.p_hat.weights <= 1.99
        assert max(rep.c_lb, free.c_lb) <= min(rep.c_ub, free.c_ub) + 1e-9

    def test_budget_below_min_cost_infeasible(self):
        W = cb.make_random(3, 3, seed=30)
        with pytest.raises(Infeasible):
            cb.solve_capacity(W, cost=cb.CostConstraint(np.array([1.0, 2.0, 3.0]), 0.5))

    def test_budget_below_tiny_costs_infeasible(self):
        # The feasibility test scales with the costs: a budget of 0 affords
        # none of these, whatever the stopping mode or solver, and an
        # absolute 1e-12 allowance would have let an input spending 1e-20 in.
        W = cb.make_random(3, 3, seed=30)
        cost = cb.CostConstraint(np.array([1e-20, 2e-20, 3e-20]), 0.0)
        for stopping in ("aposteriori", "apriori"):
            with pytest.raises(Infeasible):
                cb.solve_capacity(W, cost=cost, epsilon=1e-2, stopping=stopping)
        with pytest.raises(Infeasible):
            cb.ba_solve(W, 1e-2, "aposteriori", cost=cost)
        with pytest.raises(Infeasible):
            exact_G_constrained(np.zeros(3), W, cost)
        # Costs in [0, 1] keep the 1e-12 allowance.
        unit = cb.CostConstraint(np.array([5e-13, 0.5, 1.0]), 0.0)
        assert cb.solve_capacity(W, cost=unit, epsilon=1e-2).constrained

    def test_zero_entry_channel_rejected(self):
        with pytest.raises(AssumptionViolated):
            cb.solve_capacity(cb.make_bec(0.4))

    def test_bad_stopping_mode(self):
        with pytest.raises(ValueError):
            cb.solve_capacity(cb.make_bsc(0.2), stopping="never")

    def test_primal_average_is_distribution(self):
        rep = cb.solve_capacity(cb.make_random(9, 5, seed=31), epsilon=0.02)
        w = rep.p_hat.weights
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def _binary_input_optimum(W):
    """p_1 of the capacity-achieving input of a 2-input channel (brentq)."""
    E = W.entries

    def divergence_gap(t):
        q = E.T @ np.array([1.0 - t, t])
        return rel_entr(E[1], q).sum() - rel_entr(E[0], q).sum()

    return brentq(divergence_gap, 1e-12, 1.0 - 1e-12, xtol=1e-15)


class TestSMaxPreSolve:
    """Budgets near S_max, the cost of the unconstrained optimum, and degenerate channels."""

    @pytest.mark.parametrize("d", [-2e-4, -1e-4, -5e-5, 0.0, 5e-5])
    def test_guard_band_budget_is_met(self, d):
        W = cb.make_random(2, 2, seed=32)
        s = np.array([0.0, 1.0])
        budget = _binary_input_optimum(W) + d
        rep = cb.solve_capacity(W, cost=cb.CostConstraint(s, budget), epsilon=1e-2)
        assert rep.constrained
        assert s @ rep.p_hat.weights <= budget
        assert rep.c_lb <= rep.c_ub

    def test_single_output_channel(self):
        W = cb.ChannelMatrix(np.ones((3, 1)))
        s = np.array([0.0, 1.0, 2.0])
        for budget in (1.5, 0.5):
            rep = cb.solve_capacity(W, cost=cb.CostConstraint(s, budget), epsilon=1e-2)
            assert not rep.constrained
            assert rep.c_lb == rep.c_ub == 0.0
            assert s @ rep.p_hat.weights <= budget
