import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_seeded_start import positive_channels

import capbound as cb
from capbound import blahut_arimoto
from capbound.info_theory import (_COST_TOL, LN2, _affordable_budget, _max_entropy_multipliers,
                                  _segment_lp_max, _softmax)


def binary_entropy(p):
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def test_bsc_value():
    rep = cb.ba_solve(cb.make_bsc(0.1), epsilon=1e-4)
    assert abs(rep.c_lb - (1.0 - binary_entropy(0.1))) <= 1e-4


def test_bec_value():
    rep = cb.ba_solve(cb.make_bec(0.4), epsilon=1e-4)
    assert abs(rep.c_lb - 0.6) <= 1e-4


def test_report_invariant():
    rep = cb.ba_solve(cb.make_random(8, 4, seed=1), epsilon=0.01)
    assert rep.apriori_err == pytest.approx(math.log2(8) / rep.iterations, abs=1e-12)
    assert rep.iterations == math.ceil(math.log2(8) / 0.01)


def test_iteration_count_doubles_when_eps_halves():
    # log2(16)/eps is integral for these eps, so the doubling is exact.
    assert cb.ba_iterations(16, 0.1) == 40
    assert cb.ba_iterations(16, 0.05) == 80


def test_ascent_property():
    # An a priori run of n updates returns I(p_n), so runs at eps = log2(N)/n
    # for growing n trace the iterate values.
    W = cb.make_random(12, 7, seed=2)
    runs = [cb.ba_solve(W, math.log2(12) / n) for n in range(1, 181)]
    values = [rep.c_lb for rep in sorted(runs, key=lambda rep: rep.iterations)]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)


def test_agrees_with_dual_solver():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 33))
        m = int(rng.integers(2, 33))
        W = cb.make_random(n, m, seed=int(rng.integers(0, 1 << 30)))
        ba = cb.ba_solve(W, epsilon=1e-3)
        dual = cb.solve_capacity(W, epsilon=1e-3)
        # both intervals contain the capacity, so they must overlap
        assert dual.c_lb - 1e-9 <= ba.c_lb + ba.apriori_err
        assert ba.c_lb - 1e-9 <= dual.c_ub


def test_tolerates_zero_entries():
    rep = cb.ba_solve(cb.make_bec(0.25), epsilon=1e-3)
    assert abs(rep.c_lb - 0.75) <= 1e-3


def test_aposteriori_certifies_gap():
    # the first 12 criterion-3 channels
    rng = np.random.default_rng(100)
    eps = 1e-3
    for _ in range(12):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 65))
        W = cb.make_random(n, m, seed=int(rng.integers(0, 1 << 30)))
        ba = cb.ba_solve(W, epsilon=eps, stopping="aposteriori")
        assert ba.c_ub - ba.c_lb <= eps
        assert ba.iterations <= cb.ba_iterations(n, eps)
        dual = cb.solve_capacity(W, epsilon=eps)
        assert max(ba.c_lb, dual.c_lb) <= min(ba.c_ub, dual.c_ub) + 1e-9


def test_default_is_apriori_bit_for_bit():
    W = cb.make_random(20, 9, seed=4)
    default = cb.ba_solve(W, epsilon=0.01)
    explicit = cb.ba_solve(W, epsilon=0.01, stopping="apriori")
    assert default.iterations == explicit.iterations == cb.ba_iterations(20, 0.01)
    for field in ("c_lb", "c_ub", "apriori_err"):
        assert getattr(default, field) == getattr(explicit, field)
    assert default.p.weights.tobytes() == explicit.p.weights.tobytes()


def test_uniform_optimal_stops_at_zero_iterations():
    rep = cb.ba_solve(cb.make_bsc(0.1), epsilon=1e-6, stopping="aposteriori")
    assert rep.iterations == 0
    assert math.isfinite(rep.apriori_err)
    assert rep.c_ub - rep.c_lb <= 1e-6


def test_aposteriori_apriori_err_is_the_certified_gap():
    W = cb.make_random(20, 9, seed=4)
    for cap in (None, 5):
        rep = cb.ba_solve(W, 1e-3, "aposteriori", iteration_cap=cap)
        assert rep.apriori_err == rep.c_ub - rep.c_lb


def test_overrelaxed_cycle_falls_back_to_plain_steps():
    # Inputs 0 and 2 are noiseless, and the step log p += 2 D maps their
    # weights (a, b) to (b, a): a 2-cycle that never reaches (1/2, 1/2).
    # I(p) still rises between the checkpoints at 9 and 12 iterations while
    # input 1 dies out, so no fall of c_lb gives it away; it rises less than
    # one plain step from the checkpoint at 9 would, and the run goes back
    # there and certifies with plain steps.  The same holds under costs
    # (0, 0.5, 1) and budget 0.9, which the optimum (1/2, 0, 1/2) meets, on
    # the cost-tilted path.
    W = cb.ChannelMatrix([[1.0, 0.0], [0.75, 0.25], [0.0, 1.0]])
    for cost in (None, cb.CostConstraint(np.array([0.0, 0.5, 1.0]), 0.9)):
        at9, at12 = (cb.ba_solve(W, 1e-3, "aposteriori", iteration_cap=k, cost=cost)
                     for k in (9, 12))
        assert at9.c_lb < at12.c_lb
        assert at12.c_ub - at12.c_lb > 0.01
        rep = cb.ba_solve(W, 1e-3, "aposteriori", cost=cost)
        assert rep.stop_reason == "gap<=eps" and rep.c_ub - rep.c_lb <= 1e-3
        assert rep.iterations == 16
        assert rep.c_lb <= 1.0 <= rep.c_ub
        if cost is not None:
            assert cost.costs @ rep.p.weights <= cost.budget


@pytest.mark.parametrize("db", [6, 14])
def test_safeguard_rescues_a_divergent_step(monkeypatch, db):
    # Alone, the step log p += 3 D diverges on the Poisson grid at 6 and
    # 14 dB; the safeguard falls back to plain steps and still certifies.
    monkeypatch.setattr(blahut_arimoto, "_OVERRELAX", 3.0)
    rep = cb.solve_poisson_grid(10.0 ** (db / 10.0), 1.0)
    assert rep.stop_reason == "gap<=eps"
    assert rep.c_ub - rep.c_lb <= 1e-3


def test_safeguard_rescues_a_divergent_cost_step(monkeypatch):
    # The cost-tilted step log p += 3 D still certifies make_random(16, 8,
    # 101..107) under these costs without a fallback.  Alone, the step
    # log p += 10 D runs to the a priori count on four of the seven (keys
    # 102, 105, 106 and 107); the safeguard falls back to plain tilted
    # steps and certifies all seven within the budget.
    s = np.random.default_rng(0).random(16)
    cost = cb.CostConstraint(s, float(np.quantile(s, 0.3)))
    for overrelax in (3.0, 10.0):
        monkeypatch.setattr(blahut_arimoto, "_OVERRELAX", overrelax)
        for key in range(101, 108):
            rep = cb.ba_solve(cb.make_random(16, 8, key), 1e-3, "aposteriori", cost=cost)
            assert rep.stop_reason == "gap<=eps" and rep.c_ub - rep.c_lb <= 1e-3, key
            assert cost.costs @ rep.p.weights <= cost.budget


@settings(max_examples=200, deadline=None)
@given(W=positive_channels(max_size=8), data=st.data(), with_cost=st.booleans())
def test_plain_step_gain_bound(W, data, with_cost):
    # From log-weights whose normaliser Phi is 0, the plain (cost-tilted)
    # step p' gains I(p') >= Phi(logp + D)/ln 2, the safeguard's bound.  A
    # binding tilt spends the rescaled budget only to within the multiplier
    # solve's tolerance (100 * _COST_TOL at most), which moves the bound by
    # up to |m2' - m2| times that.
    logw = np.array(data.draw(st.lists(st.floats(-30.0, 30.0), min_size=W.rows,
                                       max_size=W.rows)))
    if with_cost:
        s = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=W.rows,
                                        max_size=W.rows)))
        assume(s.max() > s.min())
        budget = s.min() + data.draw(st.floats(0.01, 0.99)) * (s.max() - s.min())
        spend = _affordable_budget(s, budget)

        def tilt(a, m2):
            return _max_entropy_multipliers(a, s, spend, m2)
    else:
        def tilt(a, m2):
            lse, mass = _softmax(a)
            return lse, 0.0, mass
    phi, m2, p = tilt(logw, 0.0)
    logp = logw - phi
    div = W.neg_ent - W.entries @ np.log(W.entries.T @ p)
    phi_step, m2_step, p_step = tilt(logp + div, m2)
    if with_cost:
        assert s @ p_step <= budget
    slack = 1e-12 + abs(m2_step - m2) * 100 * _COST_TOL / LN2
    assert cb.mutual_information(cb.ProbVector(p_step), W) >= phi_step / LN2 - slack


@st.composite
def sparse_channels(draw, max_size=6):
    """Channels with zero entries, noiseless rows included."""
    n, m = draw(st.integers(2, max_size)), draw(st.integers(2, max_size))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m).filter(any),
                         min_size=n, max_size=n))
    V = np.array(rows)
    return cb.ChannelMatrix(V / V.sum(axis=1, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(W=sparse_channels(), eps=st.sampled_from([1e-2, 1e-3]))
def test_aposteriori_certifies_within_the_apriori_count(W, eps):
    rep = cb.ba_solve(W, eps, stopping="aposteriori")
    assert rep.stop_reason == "gap<=eps"
    assert rep.c_ub - rep.c_lb <= eps
    assert rep.iterations <= cb.ba_iterations(W.rows, eps)
    # Both intervals contain the capacity.
    apriori = cb.ba_solve(W, eps)
    assert max(rep.c_lb, apriori.c_lb) <= min(rep.c_ub, apriori.c_lb + apriori.apriori_err) + 1e-9


def test_unknown_stopping_mode():
    with pytest.raises(ValueError):
        cb.ba_solve(cb.make_bsc(0.1), epsilon=1e-2, stopping="never")


def test_upper_bound_survives_underflowed_output():
    # Output 2 is reached only from input 2, whose weight BA drives below
    # the float range, so q_2 = 0 and D(W_2 || q) is infinite as computed.
    d = 5e-4
    W = cb.ChannelMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [(1 - d) / 2, (1 - d) / 2, d]])
    rep = cb.ba_solve(W, epsilon=1e-3)
    assert (W.entries.T @ rep.p.weights)[2] == 0.0
    # the capacity exceeds 1 bit by far less than 1e-300
    assert rep.c_lb - 1e-12 <= 1.0 <= rep.c_ub + 1e-12
    assert rep.c_ub - rep.c_lb <= 1e-9


def test_stop_reason_and_iteration_cap():
    W = cb.make_random(20, 9, seed=4)
    assert cb.ba_solve(W, 1e-2).stop_reason == "apriori_n"
    assert cb.ba_solve(W, 1e-2, "aposteriori").stop_reason == "gap<=eps"
    for stopping in ("apriori", "aposteriori"):
        capped = cb.ba_solve(W, 1e-6, stopping, iteration_cap=5)
        assert capped.iterations == 5 and capped.stop_reason == "cap"
        assert capped.c_lb <= capped.c_ub
    # A cap above the a priori count changes nothing, bit for bit.
    free, loose = cb.ba_solve(W, 1e-2), cb.ba_solve(W, 1e-2, iteration_cap=10**9)
    assert (free.iterations, free.c_lb, free.c_ub) == (loose.iterations, loose.c_lb, loose.c_ub)
    assert free.p.weights.tobytes() == loose.p.weights.tobytes()
    assert loose.stop_reason == "apriori_n"
    with pytest.raises(ValueError):
        cb.ba_solve(W, 1e-2, iteration_cap=0)
    # A non-integral cap would never equal the iteration count.
    with pytest.raises(ValueError, match="integer"):
        cb.ba_solve(W, 1e-2, iteration_cap=2.5)
    with pytest.raises(ValueError):
        cb.BAReport(0.1, 0.2, 0.0, 1, free.p, 0.0, stop_reason="tired")


def test_cost_needs_aposteriori():
    cost = cb.CostConstraint(np.array([0.0, 1.0]), 0.25)
    with pytest.raises(ValueError, match="aposteriori"):
        cb.ba_solve(cb.make_random(2, 2, seed=32), 1e-3, stopping="apriori", cost=cost)


def test_cost_iterates_spend_the_budget():
    # Every cost-tilted iterate spends S to within the multiplier solve's
    # tolerance and never more, so c_lb = I(p) is feasible, and c_ub is the
    # LP over the affordable inputs at the same output law.
    W = cb.make_random(16, 8, seed=103)
    s = np.random.default_rng(0).random(16)
    cost = cb.CostConstraint(s, float(np.quantile(s, 0.3)))
    rep = cb.ba_solve(W, 1e-3, stopping="aposteriori", cost=cost)
    assert rep.stop_reason == "gap<=eps" and rep.c_ub - rep.c_lb <= 1e-3
    assert cost.budget - 1e-10 <= float(s @ rep.p.weights) <= cost.budget
    assert rep.c_lb == pytest.approx(cb.mutual_information(rep.p, W), abs=1e-12)
    q = W.entries.T @ rep.p.weights
    div = (W.entries * np.log2(W.entries / q)).sum(axis=1)
    assert rep.c_ub == pytest.approx(_segment_lp_max(div, s, cost.budget), abs=1e-12)
    assert rep.c_ub < float(div.max())
