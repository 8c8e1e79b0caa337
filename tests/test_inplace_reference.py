"""The in-place solver loops agree bit for bit with their allocating references.

``dual_solver._fast_gradient`` and ``blahut_arimoto.ba_solve`` reuse their
work arrays; ``reference.py`` keeps the versions that allocate every
intermediate.  Equality is exact: the same floating-point operations run in
the same order, only the memory they write to differs.
"""

import math

import numpy as np
import pytest
from reference import ba_solve as ba_solve_reference
from reference import fast_gradient as fast_gradient_reference

import capbound as cb
from capbound import dual_solver
from capbound.dual_solver import ball_radius, project_ball


def _same(a, b):
    """Exact equality of floats and arrays, NaN included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _discrete_args(W, cost, eps):
    """_fast_gradient's arguments as _solve_core builds them."""
    radius = cb.dual_radius(W)
    d1, d2 = cb.smoothing_constants(W)
    n = cb.scheduled_iterations(eps, d1, d2)
    nu = (2.0 / (n + 1)) * math.sqrt(d1 / d2)
    if cost is None:
        return (W.entries, W.r, None, radius, nu, n, None, None,
                lambda y: cb.exact_G_unconstrained(y, W))
    return (W.entries, W.r, None, radius, nu, n, cost.costs, cost.budget,
            lambda y: cb.exact_G_constrained(y, W, cost))


def _quadrature_args(n):
    trunc = cb.truncate(cb.poisson_channel(1.0, 1.0), 8, quad_nodes=64)
    return (trunc.kernel_nodes, trunc.r_nodes, np.log(trunc.weights),
            ball_radius(trunc.M, trunc.gamma_M), 0.05, n, None, None,
            lambda lam: float(trunc.f_values(lam).max()))


def _seeded_args(W, eps):
    """_fast_gradient's arguments, prox-centre and start pair, as _solve_core builds them."""
    ba = cb.ba_solve(W, eps / 3.0, "aposteriori")
    return _discrete_args(W, None, eps), dual_solver._arimoto_point(W, ba.p), (ba.c_lb, ba.c_ub)


CASES = {
    "unconstrained-6x5": lambda: _discrete_args(cb.make_random(6, 5, 3), None, 0.05),
    "unconstrained-40x7": lambda: _discrete_args(cb.make_random(40, 7, 11), None, 0.2),
    "bsc": lambda: _discrete_args(cb.make_bsc(0.1), None, 1e-3),
    "cost-2x2": lambda: _discrete_args(
        cb.make_random(2, 2, 32), cb.CostConstraint(np.array([0.0, 1.0]), 0.25), 1e-3),
    "cost-5x4": lambda: _discrete_args(
        cb.make_random(5, 4, 7), cb.CostConstraint(np.array([0.0, 0.5, 1.0, 2.0, 3.0]), 0.8),
        0.05),
    "quadrature": lambda: _quadrature_args(400),
}


# Unconstrained a posteriori solves start at a Blahut-Arimoto point, which is
# also their prox-centre, and stop on the intersection with BA's pair.
SEEDED = {
    "seeded-6x5": lambda: _seeded_args(cb.make_random(6, 5, 3), 0.05),
    "seeded-40x7": lambda: _seeded_args(cb.make_random(40, 7, 11), 0.2),
    "seeded-3x4": lambda: _seeded_args(cb.make_random(3, 4, 5), 1e-3),
}


# Row blocks of the input term: _BLOCK_BYTES set so that these channels
# stream through several blocks (2, 2, 3 and 3 rows a block).
BLOCKS = {
    "cost-5x4": 8 * 4 * 2,
    "unconstrained-6x5": 8 * 5 * 2,
    "unconstrained-40x7": 8 * 7 * 3,
    "seeded-40x7": 8 * 7 * 3,
}


@pytest.mark.parametrize("case, target", [
    *[(case, target) for case in sorted(CASES)
      for target in ("aposteriori", "apriori", "apriori+progress")],
    *[(case, "aposteriori") for case in sorted(SEEDED)],
])
def test_fast_gradient_matches_reference(case, target):
    _check_fast_gradient(case, target)


@pytest.mark.parametrize("case, target", [
    *[(case, target) for case in sorted(BLOCKS) if case in CASES
      for target in ("aposteriori", "apriori", "apriori+progress")],
    *[(case, "aposteriori") for case in sorted(BLOCKS) if case in SEEDED],
])
def test_fast_gradient_matches_reference_in_blocks(case, target, monkeypatch):
    monkeypatch.setattr(dual_solver, "_BLOCK_BYTES", BLOCKS[case])
    _check_fast_gradient(case, target)


def _check_fast_gradient(case, target):
    args, centre, start = (CASES[case](), None, (-math.inf, math.inf)) if case in CASES \
        else SEEDED[case]()
    seen = {"new": [], "ref": []}
    results = {}
    for key, fn in (("new", dual_solver._fast_gradient), ("ref", fast_gradient_reference)):
        progress = (lambda *a, key=key: seen[key].append(a)) \
            if target == "apriori+progress" else None
        results[key] = fn(*args, 1e-3 if target == "aposteriori" else None, progress, centre,
                          start)
    (k, y, mass, lb, ub), (rk, ry, rmass, rlb, rub) = results["new"], results["ref"]
    assert k == rk
    assert _same(y, ry) and _same(mass, rmass)
    assert _same(lb, rlb) and _same(ub, rub)
    assert _same(seen["new"], seen["ref"])


BA_CHANNELS = {
    "random-12x9": cb.make_random(12, 9, 4),
    "random-3x40": cb.make_random(3, 40, 8),
    "bec": cb.make_bec(0.4),
    "zero-entries": cb.ChannelMatrix([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.2, 0.0, 0.8]]),
    # Output 2's only input underflows: the masked log and the q floor run.
    "underflow": cb.ChannelMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   [(1 - 5e-4) / 2, (1 - 5e-4) / 2, 5e-4]]),
    # The over-relaxed step cycles on the noiseless inputs: the a posteriori
    # run goes back to a checkpoint and finishes with plain steps.
    "noiseless-cycle": cb.ChannelMatrix([[1.0, 0.0], [0.75, 0.25], [0.0, 1.0]]),
}


_ITEM_1_COSTS = np.random.default_rng(0).random(16)

# Cost-tilted runs, a posteriori only.
BA_COST_CHANNELS = {
    # Costs U(0, 1) and the budget at their 30% quantile, where the tilt binds.
    "cost-16x8": (cb.make_random(16, 8, 103),
                  cb.CostConstraint(_ITEM_1_COSTS, float(np.quantile(_ITEM_1_COSTS, 0.3)))),
    # The over-relaxed 2-cycle under a budget that the optimum meets: the
    # tilt is 0, and the run falls back to plain steps as without a cost.
    "noiseless-cycle-cost": (BA_CHANNELS["noiseless-cycle"],
                             cb.CostConstraint(np.array([0.0, 0.5, 1.0]), 0.9)),
}


@pytest.mark.parametrize("name, stopping", [
    *[(name, stopping) for name in sorted(BA_CHANNELS) for stopping in ("apriori", "aposteriori")],
    *[(name, "aposteriori") for name in sorted(BA_COST_CHANNELS)],
])
def test_ba_solve_matches_reference(name, stopping):
    W, cost = BA_COST_CHANNELS[name] if name in BA_COST_CHANNELS else (BA_CHANNELS[name], None)
    rep = cb.ba_solve(W, 1e-3, stopping, cost=cost)
    ref = ba_solve_reference(W, 1e-3, stopping, cost=cost)
    assert rep.iterations == ref.iterations
    for field in ("c_lb", "c_ub", "apriori_err"):
        assert _same(getattr(rep, field), getattr(ref, field)), field
    assert _same(rep.p.weights, ref.p.weights)


def test_projection_norm_is_linalg_norm():
    # project_ball takes the norm as sqrt(x . x), which is how np.linalg.norm
    # evaluates a real 1-D array; the scaled point must not move by a bit.
    rng = np.random.default_rng(2)
    for _ in range(2000):
        x = rng.normal(size=int(rng.integers(1, 200))) * 10.0 ** rng.uniform(-5, 5)
        assert math.sqrt(x.dot(x)) == np.linalg.norm(x)
        radius = 0.5 * float(np.linalg.norm(x))
        assert _same(project_ball(x, radius), x * (radius / np.linalg.norm(x)))


class TestNoAliasing:
    def test_eval_G_nu_returns_independent_arrays(self):
        W = cb.make_random(5, 4, 9)
        _, g1, p1 = cb.eval_G_nu_unconstrained(np.zeros(4), W, 0.1)
        keep_g, keep_p = g1.copy(), p1.weights.copy()
        _, g2, p2 = cb.eval_G_nu_unconstrained(np.ones(4), W, 0.1)
        assert g1 is not g2 and not np.shares_memory(g1, g2)
        assert not np.shares_memory(p1.weights, p2.weights)
        assert _same(g1, keep_g) and _same(p1.weights, keep_p)

    @pytest.mark.parametrize("scale", [0.1, 10.0])
    def test_project_ball_leaves_input(self, scale):
        x = np.array([3.0, -4.0, 1.0]) * scale
        keep = x.copy()
        y = project_ball(x, 1.0)
        assert _same(x, keep)
        assert np.linalg.norm(y) <= 1.0 + 1e-15

    def test_later_solve_leaves_earlier_report(self):
        W = cb.make_random(6, 5, 3)
        rep = cb.solve_capacity(W, epsilon=1e-2)
        keep_p, keep_lam = rep.p_hat.weights.copy(), rep.lambda_hat.values.copy()
        cb.solve_capacity(cb.make_random(6, 5, 4), epsilon=1e-2)
        cb.solve_capacity(W, epsilon=1e-3)
        assert _same(rep.p_hat.weights, keep_p)
        assert _same(rep.lambda_hat.values, keep_lam)
        ba = cb.ba_solve(W, 1e-2)
        keep_ba = ba.p.weights.copy()
        cb.ba_solve(W, 1e-3)
        assert _same(ba.p.weights, keep_ba)
