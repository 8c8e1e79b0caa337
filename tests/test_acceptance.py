"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  `pytest tests/test_acceptance.py -v -s`  to see the per-criterion
lines; a pytest FAILED entry is the fail line.  Criterion 9 drives the
largest instance (10^4 x 100 at a priori 0.1, ~273k iterations) and is
marked `slow`; deselect with `-m "not slow"` when iterating.
"""

import math
import time

import numpy as np
import pytest
from reference import _eval_F_direct, _eval_G_nu_direct, poisson_tail_direct

import capbound as cb
from capbound.continuous import _truncated_rows
from capbound.dual_solver import project_ball

# Pre-tuned reference settings per peak power in dB for the unit-dark-current
# counting channel: truncation level M, iterations n, smoothing nu.
REFERENCE_POISSON_SETTINGS = {
    0: (16, 40_000, 0.0026),
    1: (17, 40_000, 0.0029),
    2: (19, 40_000, 0.0036),
    3: (20, 50_000, 0.0029),
    4: (22, 60_000, 0.0027),
    5: (25, 70_000, 0.0029),
    6: (28, 90_000, 0.0026),
    7: (31, 120_000, 0.0022),
    8: (36, 200_000, 0.0016),
    9: (42, 500_000, 7.1e-5),
    10: (49, 2_000_000, 8.0e-4),
    11: (59, 3_000_000, 8.3e-4),
    12: (71, 4_000_000, 9.7e-4),
    13: (85, 9_000_000, 6.2e-4),
    14: (104, 15_000_000, 5.8e-4),
}


def binary_entropy(p):
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def test_criterion_01_bec_perturbation_reproduction():
    """Perturbed erasure channel reproduces the reference bounds table."""
    t0 = time.perf_counter()
    targets = {
        1e-4: (0.6024, 0.5949),
        1e-5: (0.6003, 0.5994),
        1e-6: (0.6000, 0.5999),
        1e-7: (0.6000, 0.6000),
    }
    for eps_perturb, (want_ub, want_lb) in targets.items():
        res = cb.solve_with_perturbation(cb.make_bec(0.4), eps_perturb, 0.01,
                                         stopping="apriori")
        assert res.c_ub == pytest.approx(want_ub, abs=2e-3), eps_perturb
        assert res.c_lb == pytest.approx(want_lb, abs=2e-3), eps_perturb
        assert res.c_lb <= 0.6 <= res.c_ub
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: BEC perturbation table reproduced ({elapsed:.1f}s)")


def test_criterion_02_apriori_bound():
    """Final duality gap never exceeds the scheduled a priori bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    for _ in range(25):
        n = int(rng.integers(4, 257))
        m = int(rng.integers(2, 33))
        V = rng.random((n, m))
        V /= V.sum(axis=1, keepdims=True)
        W = cb.ChannelMatrix(0.9 * V + 0.1 / m)
        assert W.gamma >= 1e-3
        rep = cb.solve_capacity(W, epsilon=0.05, stopping="apriori")
        d1, d2 = cb.smoothing_constants(W)
        bound = cb.apriori_error_bound(rep.iterations, d1, d2)
        assert rep.aposteriori_err <= bound + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 2: a priori bound held on 25 channels ({elapsed:.1f}s)")


def test_criterion_03_cross_method_oracle():
    """Dual solver and Blahut-Arimoto certify overlapping intervals."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    for _ in range(50):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 65))
        W = cb.make_random(n, m, seed=int(rng.integers(0, 1 << 30)))
        dual = cb.solve_capacity(W, epsilon=1e-3, stopping="aposteriori")
        ba = cb.ba_solve(W, epsilon=1e-3)
        # both intervals contain C, so they must intersect
        assert dual.c_lb - 1e-9 <= ba.c_lb + ba.apriori_err
        assert ba.c_lb - 1e-9 <= dual.c_ub
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 3: dual and BA agree on 50 channels ({elapsed:.1f}s)")


def test_criterion_04_known_capacities():
    """Symmetric binary channels are sandwiched around 1 - H_b(p)."""
    for p in (0.05, 0.1, 0.25):
        rep = cb.solve_capacity(cb.make_bsc(p), epsilon=1e-4,
                                stopping="aposteriori")
        truth = 1.0 - binary_entropy(p)
        assert rep.aposteriori_err <= 1e-4 + 1e-12
        assert rep.iterations <= 10**6
        assert rep.c_lb - 1e-9 <= truth <= rep.c_ub + 1e-9
    print("\nPASS criterion 4: BSC capacities sandwiched at gap <= 1e-4")


def test_criterion_05_constrained_solve():
    """Cost-constrained solve meets the budget; closed form matches brute force."""
    W = cb.make_random(3, 3, seed=5)
    s = np.array([0.0, 1.0, 2.0])
    pre = cb.solve_capacity(W, epsilon=1e-6, stopping="aposteriori")
    s_max = float(s @ pre.p_hat.weights)
    S = 0.5 * s_max
    cost = cb.CostConstraint(s, S)
    rep = cb.solve_capacity(W, cost=cost, epsilon=1e-5, stopping="aposteriori")
    assert rep.constrained
    assert abs(float(s @ rep.p_hat.weights) - S) <= 1e-6
    assert rep.c_lb <= rep.c_ub + 1e-9
    assert rep.aposteriori_err >= -1e-9

    # brute force: the feasible set is the segment between the two
    # pair-support vertices; golden-section maximizes the smoothed objective
    nu = 0.2
    v1 = np.array([1.0 - S, S, 0.0])
    v2 = np.array([1.0 - S / 2.0, 0.0, S / 2.0])
    rng = np.random.default_rng(55)
    for _ in range(3):
        lam = rng.normal(size=3)
        f = W.entries @ lam - W.r

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
        p_star = (1.0 - 0.5 * (lo + hi)) * v1 + 0.5 * (lo + hi) * v2
        _, _, p_nu = cb.eval_G_nu_constrained(lam, W, nu, cost)
        np.testing.assert_allclose(p_nu.weights, p_star, atol=1e-4)
    print("\nPASS criterion 5: constrained solve meets budget; closed form matches brute force")


def test_criterion_06_gradient_suite():
    """All three gradient paths match central finite differences; Lipschitz holds."""
    rng = np.random.default_rng(66)

    def central(fn, x, h=1e-6):
        g = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
        return g

    def check(grad, fd):
        scale = max(1.0, float(np.linalg.norm(fd)))
        assert np.linalg.norm(grad - fd) / scale <= 1e-5

    for _ in range(20):
        lam = rng.normal(size=6) * 3
        _, grad = cb.eval_F(lam)
        check(grad, central(lambda x: cb.eval_F(x)[0], lam))

    W = cb.make_random(5, 4, seed=60)
    nu = 0.05
    for _ in range(20):
        lam = rng.normal(size=4)
        _, grad, _ = cb.eval_G_nu_unconstrained(lam, W, nu)
        check(grad, central(lambda x: cb.eval_G_nu_unconstrained(x, W, nu)[0], lam))

    trunc = cb.truncate(cb.poisson_channel(1.0, 1.0), 8, quad_nodes=128)
    for _ in range(20):
        lam = rng.normal(size=8) * 0.5
        _, grad, _ = cb.eval_G_nu_continuous(lam, trunc, nu)
        check(grad, central(lambda x: cb.eval_G_nu_continuous(x, trunc, nu)[0], lam))

    radius = cb.dual_radius(W)
    for _ in range(100):
        l1 = project_ball(rng.normal(size=4) * radius / 4, radius)
        l2 = project_ball(rng.normal(size=4) * radius / 4, radius)
        _, g1, _ = cb.eval_G_nu_unconstrained(l1, W, nu)
        _, g2, _ = cb.eval_G_nu_unconstrained(l2, W, nu)
        assert (np.linalg.norm(g1 - g2)
                <= (1.0 / nu) * np.linalg.norm(l1 - l2) * (1 + 1e-6))
    print("\nPASS criterion 6: gradient suite (FD agreement + Lipschitz)")


def test_criterion_07_tails_and_truncation():
    """Direct tail sums below the closed form; truncation bound dominates."""
    t0 = time.perf_counter()
    for A in (1.0, 5.0, 10.0):
        for eta in (0.0, 1.0):
            base = cb.poisson_channel(A, eta)
            m_lo = math.ceil(A + eta)
            for k in (0.25, 0.5, 1.0):
                for M in range(m_lo, 61):
                    direct = poisson_tail_direct(base, M, k)
                    closed = cb.tail_Rk(base, M, k)
                    assert direct <= closed * (1 + 1e-12) + 1e-300

    base = cb.poisson_channel(1.0, 1.0)
    M = 8
    xs = np.linspace(0.0, 1.0, 40)
    rows_small = _truncated_rows(base, xs, M)
    rows_big = _truncated_rows(base, xs, 4 * M)
    bound = (cb.truncation_error_bound(base, M, 0.5)
             + cb.truncation_error_bound(base, 4 * M, 0.5))

    def mi(p, rows):
        q = rows.T @ p
        tot = 0.0
        for i in range(rows.shape[0]):
            nz = rows[i] > 0
            if p[i] > 0:
                tot += p[i] * float(rows[i, nz] @ np.log2(rows[i, nz] / q[nz]))
        return tot

    rng = np.random.default_rng(77)
    for _ in range(100):
        p = rng.dirichlet(np.ones(xs.size))
        assert abs(mi(p, rows_big) - mi(p, rows_small)) <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 7: tail and truncation bounds dominate ({elapsed:.1f}s)")


def test_criterion_08_poisson_sandwich():
    """Counting-channel sandwich matches the reference curve; ordering holds on the sweep."""
    t0 = time.perf_counter()
    targets = {0: (0.1191, 0.1058), 5: (0.5192, 0.5010)}
    # The certified grid Blahut-Arimoto sweep at its defaults, on the 0:14:2
    # grid plus the second reference point.
    sweep = {row["A_dB"]: row for row in cb.poisson_sweep(sorted({*range(0, 15, 2), 5}))}
    for db, (want_ub, want_lb) in targets.items():
        M, n, nu = REFERENCE_POISSON_SETTINGS[db]
        rep = cb.solve_poisson(10 ** (db / 10.0), 1.0, M=M, iterations=n, nu=nu)
        assert rep.c_ub == pytest.approx(want_ub, abs=0.01), db
        assert rep.c_lb == pytest.approx(want_lb, abs=0.01), db
        # Both pairs are certificates, so they must meet.
        row = sweep[db]
        assert max(row["c_lb"], rep.c_lb_certified) <= min(row["c_ub"], rep.c_ub_certified), db

    assert cb.lapidoth_lb(10.0, 1.0) == pytest.approx(0.2739, abs=1e-3)

    # full sweep at strongly reduced iteration counts: ordering only
    for db, (M, n, nu) in REFERENCE_POISSON_SETTINGS.items():
        rep = cb.solve_poisson(10.0 ** (db / 10.0), 1.0, M=M, iterations=min(n, 12_000), nu=nu)
        assert rep.c_lb <= rep.c_ub + 1e-9, db
        assert rep.c_ub >= rep.lapidoth, db

    for db in range(0, 15, 2):
        assert sweep[db]["c_ub"] - sweep[db]["c_lb"] <= 1e-3, db
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion 8: reference points within 0.01, sweep ordering holds, "
          f"certified sweep gaps <= 1e-3 ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_09_large_scale_behavior():
    """Large random channel: a posteriori gap far below the a priori target."""
    t0 = time.perf_counter()
    W = cb.make_random(10_000, 100, seed=1)
    ba1 = cb.ba_solve(W, epsilon=1.0)
    ba2 = cb.ba_solve(W, epsilon=0.1)
    assert ba1.iterations == 14
    assert ba2.iterations == 133

    rep1 = cb.solve_capacity(W, epsilon=1.0, stopping="apriori")
    assert rep1.aposteriori_err <= 1.0
    rep2 = cb.solve_capacity(W, epsilon=0.1, stopping="apriori")
    assert rep2.aposteriori_err <= 0.1 / 5.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"\nPASS criterion 9: gap {rep2.aposteriori_err:.2e} <= 0.02 at target 0.1; "
          f"BA counts 14/133 ({elapsed:.0f}s)")


def test_criterion_10_stabilization_equivalence():
    """Shifted and direct exponential paths agree wherever the latter is finite."""
    rng = np.random.default_rng(1010)
    W = cb.make_random(6, 4, seed=10)
    checked = 0
    for _ in range(50):
        lam = rng.uniform(-20, 20, size=4)
        nu = float(rng.uniform(0.1, 2.0))
        v_direct, g_direct = _eval_F_direct(lam)
        v_stab, g_stab = cb.eval_F(lam)
        if math.isfinite(v_direct):
            assert abs(v_direct - v_stab) <= 1e-10
            assert np.max(np.abs(g_direct - g_stab)) <= 1e-10
            checked += 1
        gv_direct, gg_direct, gp_direct = _eval_G_nu_direct(lam, W, nu)
        gv_stab, gg_stab, gp_stab = cb.eval_G_nu_unconstrained(lam, W, nu)
        if math.isfinite(gv_direct):
            assert abs(gv_direct - gv_stab) <= 1e-10
            assert np.max(np.abs(gg_direct - gg_stab)) <= 1e-10
            assert np.max(np.abs(gp_direct - gp_stab.weights)) <= 1e-10
            checked += 1
    assert checked >= 50
    print(f"\nPASS criterion 10: stabilized/direct paths agree on {checked} finite cases")
