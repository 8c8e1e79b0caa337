"""A posteriori solves start at a Blahut-Arimoto point.

The seeded fast-gradient run takes x_0 = -log2(W^T p_BA), shifted to mean
0, as its first iterate and prox-centre; p_BA comes from certified
Blahut-Arimoto, cost-tilted when the solve enforces a cost constraint.
BA's pair (I(p_BA), F(x_0) + G(x_0)), as BA computes it, joins the
certificate; ``_start_pair`` recomputes it independently.  The report is
its intersection with the dual's own pair, and the run stops at the first
checkpoint where that intersection meets epsilon.  A priori solves stay
cold (x_0 = 0).
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import capbound as cb
from capbound import dual_solver
from capbound.cli import main
from capbound.info_theory import _affordable_budget

# The first twelve criterion-3 channels (the perfbench dmc-small channels).
_CRITERION_3 = np.random.default_rng(100)
DMC_SMALL = [(int(_CRITERION_3.integers(2, 65)), int(_CRITERION_3.integers(2, 65)),
              int(_CRITERION_3.integers(0, 1 << 30))) for _ in range(12)]


def _cold(W, eps, cost=None):
    """The unseeded a posteriori run: _fast_gradient from the ball centre."""
    radius = cb.dual_radius(W)
    d1, d2 = cb.smoothing_constants(W)
    n = cb.scheduled_iterations(eps, d1, d2)
    nu = (2.0 / (n + 1)) * np.sqrt(d1 / d2)
    if cost is None:
        s = budget = None
        exact_G = lambda y: cb.exact_G_unconstrained(y, W)
    else:
        # Masses that never overspend, so that c_lb bounds C(budget).
        s, budget = cost.costs, _affordable_budget(cost.costs, cost.budget)
        exact_G = lambda y: cb.exact_G_constrained(y, W, cost)
    _, _, _, c_lb, c_ub = dual_solver._fast_gradient(
        W.entries, W.r, None, radius, nu, n, s, budget, exact_G, eps, None)
    return c_lb, c_ub


def _start_pair(W, eps, cost=None):
    """The BA start's pair of a seeded solve: (I(p_BA), F(x_0) + G(x_0))."""
    ba = cb.ba_solve(W, eps / 3.0, "aposteriori", cost=cost)
    x0 = dual_solver._arimoto_point(W, ba.p)
    G = cb.exact_G_unconstrained(x0, W) if cost is None else cb.exact_G_constrained(x0, W, cost)
    return ba.c_lb, cb.eval_F(x0)[0] + G


def test_dmc_small_dual_iterations():
    # BA to eps/3 already certifies eps, so each solve stops at the first
    # rung: 9 dual steps (k = 0..9), where the dual's own pair took 932 and
    # the cold run 6,655 in all.
    reps = [cb.solve_capacity(cb.make_random(n, m, key), epsilon=1e-2)
            for n, m, key in DMC_SMALL]
    assert all(rep.stop_reason == "gap<=eps" for rep in reps)
    assert all(rep.warm_start_iterations > 0 for rep in reps)
    assert all(rep.iterations == dual_solver._LADDER_FIRST - 1 for rep in reps)


def test_seeded_run_reports_its_start():
    W = cb.make_random(6, 5, 3)
    rep = cb.solve_capacity(W, epsilon=1e-3)
    ba = cb.ba_solve(W, 1e-3 / 3.0, stopping="aposteriori")
    assert rep.warm_start_iterations == ba.iterations > 0
    # The a priori bound of an off-centre prox-centre x0 takes
    # d1 = (R + |x0|)^2 / 2, the largest |lambda - x0|^2 / 2 over the ball.
    x0 = dual_solver._arimoto_point(W, ba.p)
    d1 = 0.5 * (cb.dual_radius(W) + np.linalg.norm(x0)) ** 2
    d2 = cb.smoothing_constants(W)[1]
    assert rep.apriori_err == pytest.approx(
        rep.nu * d2 + 4.0 * d1 * (1.0 + 1.0 / rep.nu) / (rep.iterations + 1) ** 2, rel=1e-12)
    assert cb.solve_capacity(W, epsilon=1e-2, stopping="apriori").warm_start_iterations == 0
    cost = cb.CostConstraint(np.array([0.0, 0.5, 1.0, 2.0, 3.0, 0.2]), 0.4)
    rep = cb.solve_capacity(W, cost=cost, epsilon=1e-2)
    assert rep.constrained
    assert rep.warm_start_iterations == cb.ba_solve(W, 1e-2 / 3.0, "aposteriori",
                                                    cost=cost).iterations
    assert cb.solve_capacity(W, cost=cost, epsilon=1e-2,
                             stopping="apriori").warm_start_iterations == 0


@st.composite
def positive_channels(draw, max_size=12):
    """Random positive channels with every entry at least gamma in [1e-6, 1e-2]."""
    n, m = draw(st.integers(2, max_size)), draw(st.integers(2, max_size))
    gamma = 10.0 ** draw(st.floats(-6.0, -2.0))
    rows = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    V = np.array(rows)
    V[V.sum(axis=1) == 0.0] = 1.0
    # Normalise before scaling: (1 - m*gamma) * V rounds a subnormal row
    # back to itself, and dividing that by its sum would give a row sum > 1.
    return cb.ChannelMatrix(gamma + (1.0 - m * gamma) * (V / V.sum(axis=1, keepdims=True)))


@settings(max_examples=50, deadline=None)
@given(W=positive_channels(), eps=st.sampled_from([1e-2, 1e-3]))
def test_seeded_solve_certifies(W, eps):
    rep = cb.solve_capacity(W, epsilon=eps)
    assert rep.stop_reason == "gap<=eps" and rep.aposteriori_err <= eps
    assert rep.apriori_err >= rep.aposteriori_err
    c_lb, c_ub = _cold(W, eps)
    assert max(rep.c_lb, c_lb) <= min(rep.c_ub, c_ub) + 1e-9


@settings(max_examples=25, deadline=None)
@given(shape=st.tuples(st.integers(2, 6), st.integers(2, 6)), key=st.integers(0, 2**30),
       zeros=st.floats(0.1, 0.5), eps=st.sampled_from([1e-2, 1e-3]))
def test_perturb_solve_aposteriori_meets_ba(shape, key, zeros, eps):
    # perturb-solve on a channel with zero entries: the outer sandwich, which
    # certifies the original channel, meets Blahut-Arimoto's certificate there.
    n, m = shape
    rng = np.random.default_rng(key)
    V = rng.random((n, m)) * (rng.random((n, m)) >= zeros)
    V[np.arange(n), rng.integers(0, m, n)] += 1.0  # no empty row
    W = cb.ChannelMatrix(V / V.sum(axis=1, keepdims=True))
    with tempfile.TemporaryDirectory() as tmp:
        channel, out = Path(tmp) / "w.txt", Path(tmp) / "rep.json"
        channel.write_text(f"{n} {m}\n" + "\n".join(" ".join(repr(float(x)) for x in row)
                                                    for row in W.entries))
        assert main(["perturb-solve", f"file:{channel}", "--stopping", "aposteriori",
                     "--eps", repr(eps), "--quiet", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
    assert rep["stop_reason"] == "gap<=eps"
    ba = cb.ba_solve(W, eps, stopping="aposteriori")
    assert max(rep["c_lb"], ba.c_lb) <= min(rep["c_ub"], ba.c_ub) + 1e-9


@settings(max_examples=25, deadline=None)
@given(W=positive_channels(max_size=6), data=st.data(), eps=st.sampled_from([1e-2, 1e-3]))
def test_cost_ba_meets_cold_constrained_dual(W, data, eps):
    # Binding budgets: between the cheapest cost and S_max, the cost of the
    # unconstrained optimum (estimated by certified BA to 1e-6), less 2e-4.
    s = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=W.rows, max_size=W.rows)))
    pre = cb.ba_solve(W, 1e-6, stopping="aposteriori")
    top = float(s @ pre.p.weights) - 2e-4
    assume(top > s.min())
    cost = cb.CostConstraint(s, s.min() + data.draw(st.floats(0.0, 1.0)) * (top - s.min()))
    ba = cb.ba_solve(W, eps, stopping="aposteriori", cost=cost)
    # An early BA iterate may not yet spend the whole budget.
    assert float(s @ ba.p.weights) <= cost.budget + 1e-12
    c_lb, c_ub = _cold(W, eps, cost)
    rep = cb.solve_capacity(W, cost=cost, epsilon=eps)
    assert rep.constrained
    assert cost.costs @ rep.p_hat.weights <= cost.budget + 1e-12
    assert max(ba.c_lb, c_lb, rep.c_lb) <= min(ba.c_ub, c_ub, rep.c_ub) + 1e-9


def test_item3_binding_budgets():
    # make_random(16, 8, key) with costs U(0, 1) from default_rng(0) and the
    # budget at their 30% quantile.  The budget binds (p_hat spends it) on
    # six of the seven channels, which took 10,258 dual steps from the ball
    # centre and 86-136 each on the dual's own pair; with the cost-tilted
    # BA start's pair each stops at the first rung.  The over-relaxed cost
    # BA takes 980 iterations for the seven starts, where plain steps took
    # 1,988.
    s = np.random.default_rng(0).random(16)
    cost = cb.CostConstraint(s, float(np.quantile(s, 0.3)))
    reps = [cb.solve_capacity(cb.make_random(16, 8, key), cost=cost, epsilon=1e-3)
            for key in range(101, 108)]
    assert sum(rep.warm_start_iterations for rep in reps) <= 1000
    assert all(s @ rep.p_hat.weights <= cost.budget for rep in reps)
    binding = [rep for rep in reps if s @ rep.p_hat.weights > cost.budget - 1e-9]
    assert len(binding) == 6
    assert all(rep.stop_reason == "gap<=eps" for rep in binding)
    assert all(rep.warm_start_iterations > 0 for rep in binding)
    assert all(rep.iterations == dual_solver._LADDER_FIRST - 1 for rep in binding)


@settings(max_examples=50, deadline=None)
@given(W=positive_channels(max_size=8), eps=st.sampled_from([1e-2, 1e-3]),
       binding=st.booleans(), data=st.data())
def test_report_is_intersection_of_start_and_dual(W, eps, binding, data):
    # Each side of the report is the better of the two pairs' sides, with
    # the input or dual point that attains it.
    cost = None
    if binding:
        s = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=W.rows,
                                        max_size=W.rows)))
        top = float(s @ cb.ba_solve(W, 1e-6, stopping="aposteriori").p.weights) - 2e-4
        assume(top > s.min())
        cost = cb.CostConstraint(s, s.min() + data.draw(st.floats(0.0, 1.0)) * (top - s.min()))
    rep = cb.solve_capacity(W, cost=cost, epsilon=eps)
    lb_0, ub_0 = _start_pair(W, eps, cost)
    lam = rep.lambda_hat.values
    G = cb.exact_G_unconstrained(lam, W) if cost is None \
        else cb.exact_G_constrained(lam, W, cost)
    assert rep.constrained == binding
    assert rep.c_lb == pytest.approx(max(rep.dual_c_lb, lb_0), abs=1e-12)
    assert rep.c_ub == pytest.approx(min(rep.dual_c_ub, ub_0), abs=1e-12)
    assert rep.c_lb == pytest.approx(cb.mutual_information(rep.p_hat, W), abs=1e-12)
    assert rep.c_ub == pytest.approx(cb.eval_F(lam)[0] + G, abs=1e-12)
    assert rep.aposteriori_err <= eps
    if cost is not None:
        assert cost.costs @ rep.p_hat.weights <= cost.budget
