import ast
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import kernel_floor, poisson_tail_direct

import capbound as cb
from capbound import continuous
from capbound.continuous import (
    _SUP_TOL,
    _converged_truncation,
    _gl_grid,
    _truncated_rows,
    refined_sup_f,
)
from capbound.dual_solver import ball_radius
from capbound.errors import AssumptionViolated, InvalidOrder, NeedLargerM
from capbound.info_theory import LN2, _neg_xlogx_nats


def discrete_mutual_information(p, rows):
    """Double-sum oracle for an input supported on finitely many atoms."""
    q = rows.T @ p
    total = 0.0
    for i in range(rows.shape[0]):
        for j in range(rows.shape[1]):
            if p[i] > 0 and rows[i, j] > 0:
                total += p[i] * rows[i, j] * math.log2(rows[i, j] / q[j])
    return total


class TestTruncate:
    def test_poisson_rows_sum_to_one(self):
        base = cb.poisson_channel(1.0, 1.0)
        trunc = cb.truncate(base, 16, quad_nodes=128)
        rows = _truncated_rows(base, np.array([0.0, 0.5, 1.0]), 16)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(trunc.kernel_nodes.sum(axis=1), 1.0, atol=1e-10)

    def test_poisson_gamma_bounds(self):
        base = cb.poisson_channel(1.0, 1.0)
        trunc = cb.truncate(base, 16, quad_nodes=128)
        # series oracle: tail at x=0 (the minimizer), divided by M
        series = math.fsum(
            math.exp(-1.0) / math.factorial(j) for j in range(16, 80)
        )
        assert trunc.gamma_M == pytest.approx(series / 16, rel=1e-10)
        assert trunc.gamma_M >= series / 16 * (1 - 1e-12)
        dense = _truncated_rows(base, np.linspace(0.0, 1.0, 10 * 128 + 1), 16)
        assert trunc.gamma_M <= dense.min()


    # Reference levels 0, 5 and 14 dB (M from criterion 8's settings): the
    # closed-form floor is bit for bit the one the dense 10x-node scan gave,
    # so the ball radius of the reproduced solves is unchanged.
    @pytest.mark.parametrize("db, M, nodes",
                             [(0, 16, 512), (0, 16, 1024), (5, 25, 1024),
                              (14, 104, 1024), (14, 104, 8192)])
    def test_blocked_floor_matches_unblocked_scan(self, db, M, nodes):
        base = cb.poisson_channel(10.0 ** (db / 10.0), 1.0)
        gamma = cb.truncate(base, M, nodes).gamma_M
        assert gamma.hex() == kernel_floor(base, M, nodes).hex()

    def test_unbounded_floor_refused(self):
        # At 30 dB and M = 1001 the floor gammainc(M, eta)/M underflows to 0,
        # so the kernel minimum cannot be bounded away from zero.
        with pytest.raises(AssumptionViolated, match="underflows"):
            cb.truncate(cb.poisson_channel(1000.0, 1.0), 1001, 64)


class TestTailBounds:
    def test_direct_below_closed_form_k1(self):
        base = cb.poisson_channel(1.0, 1.0)
        direct = poisson_tail_direct(base, 16, 1.0)
        closed = cb.tail_Rk(base, 16, 1.0)
        assert direct <= closed * (1 + 1e-12)
        # alpha degenerates to 1 at k=1: bound is (A+eta)^M / M!
        assert closed == pytest.approx(2.0**16 / math.factorial(16), rel=1e-12)

    def test_direct_below_closed_form_khalf(self):
        base = cb.poisson_channel(1.0, 1.0)
        direct = poisson_tail_direct(base, 20, 0.5)
        closed = cb.tail_Rk(base, 20, 0.5)
        assert direct <= closed * (1 + 1e-12)

    def test_invalid_order(self):
        base = cb.poisson_channel(1.0, 1.0)
        for k in (0.0, 1.5, -0.2):
            with pytest.raises(InvalidOrder):
                cb.tail_Rk(base, 16, k)

    def test_closed_form_overflow_is_infinite(self):
        # At 30 dB and M = 1001 the factorial-tail bound exceeds the largest
        # float: it is reported as inf, which only widens the sandwich.
        base = cb.poisson_channel(1000.0, 1.0)
        for k in (0.5, 1.0):
            assert cb.tail_Rk(base, 1001, k) == math.inf
        assert cb.truncation_error_bound(base, 1001, 0.5) == math.inf

    def test_closed_form_needs_large_m(self):
        with pytest.raises(NeedLargerM):
            cb.tail_Rk(cb.poisson_channel(10.0, 1.0), 5, 0.5)


class TestTruncationErrorBound:
    def test_reference_magnitude_8db(self):
        base = cb.poisson_channel(10**0.8, 1.0)
        err = cb.truncation_error_bound(base, 36, 0.5)
        assert 5e-4 <= err <= 1.1e-3

    def test_k_range_checked(self):
        base = cb.poisson_channel(1.0, 1.0)
        with pytest.raises(InvalidOrder):
            cb.truncation_error_bound(base, 16, 1.0)

    def test_dominates_measured_difference(self):
        base = cb.poisson_channel(1.0, 1.0)
        M = 8
        xs = np.linspace(0.0, 1.0, 50)
        rows_small = _truncated_rows(base, xs, M)
        rows_big = _truncated_rows(base, xs, 4 * M)
        bound = (cb.truncation_error_bound(base, M, 0.5)
                 + cb.truncation_error_bound(base, 4 * M, 0.5))
        rng = np.random.default_rng(40)
        for _ in range(100):
            p = rng.dirichlet(np.ones(xs.size))
            measured = abs(discrete_mutual_information(p, rows_big)
                           - discrete_mutual_information(p, rows_small))
            assert measured <= bound


class TestEvalGnuContinuous:
    def test_constant_kernel_degenerate(self):
        # Rows that do not depend on x: every input has the same f, so the
        # smoothed term is that constant and the density is uniform on [0, 2].
        nodes, weights = _gl_grid(0.0, 2.0, 64)
        trunc = cb.TruncatedChannel(
            base=cb.poisson_channel(2.0, 1.0), M=4, gamma_M=0.25, nodes=nodes,
            weights=weights, kernel_nodes=np.full((nodes.size, 4), 0.25),
            r_nodes=np.full(nodes.size, 2.0))
        lam = np.array([0.1, -0.3, 0.7, 0.2])
        const = 0.25 * lam.sum() - math.log2(4)
        for nu in (1.0, 0.01):
            val, grad, p = cb.eval_G_nu_continuous(lam, trunc, nu)
            assert val == pytest.approx(const, abs=1e-10)
            np.testing.assert_allclose(p, 1.0 / 2.0, atol=1e-10)

    def test_gradient_sums_to_one(self):
        trunc = cb.truncate(cb.poisson_channel(1.0, 1.0), 16, quad_nodes=128)
        rng = np.random.default_rng(50)
        for _ in range(5):
            lam = rng.normal(size=16)
            _, grad, _ = cb.eval_G_nu_continuous(lam, trunc, 0.05)
            assert grad.sum() == pytest.approx(1.0, abs=1e-10)

    def test_finite_differences(self):
        trunc = cb.truncate(cb.poisson_channel(1.0, 1.0), 16, quad_nodes=256)
        rng = np.random.default_rng(51)
        lam = rng.normal(size=16) * 0.5
        nu = 0.01
        _, grad, _ = cb.eval_G_nu_continuous(lam, trunc, nu)
        fd = np.zeros(16)
        h = 1e-6
        for i in range(16):
            e = np.zeros(16)
            e[i] = h
            vp, _, _ = cb.eval_G_nu_continuous(lam + e, trunc, nu)
            vm, _, _ = cb.eval_G_nu_continuous(lam - e, trunc, nu)
            fd[i] = (vp - vm) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_large_nu_uniform_density(self):
        trunc = cb.truncate(cb.poisson_channel(1.0, 1.0), 16, quad_nodes=128)
        # deviation scales like (f spread)/nu, so crank nu for the tight check
        _, _, p = cb.eval_G_nu_continuous(np.zeros(16), trunc, 1e3)
        np.testing.assert_allclose(p, 1.0, atol=1e-3)  # density 1/A with A=1
        _, _, p = cb.eval_G_nu_continuous(np.zeros(16), trunc, 1e7)
        np.testing.assert_allclose(p, 1.0, atol=1e-6)

    def test_quadrature_verification_passes_when_converged(self):
        trunc = cb.truncate(cb.poisson_channel(1.0, 1.0), 16, quad_nodes=512)
        assert _converged_truncation(trunc, 0.01, np.zeros(16))[1]
        val, _, _ = cb.eval_G_nu_continuous(np.zeros(16), trunc, 0.01)
        assert math.isfinite(val)

    def test_quadrature_verification_fails_on_coarse_grid(self):
        trunc = cb.truncate(cb.poisson_channel(1.0, 1.0), 16, quad_nodes=8)
        assert not _converged_truncation(trunc, 1e-4, np.full(16, 3.0))[1]


class TestLapidoth:
    def test_reference_point_10db(self):
        assert abs(cb.lapidoth_lb(10.0, 1.0) - 0.273875) <= 1e-3

    def test_negative_below_crossing(self):
        val = cb.lapidoth_lb(10**0.85, 1.0)
        assert val < 0
        assert abs(val - (-0.0043)) <= 5e-4

    def test_strictly_increasing(self):
        vals = [cb.lapidoth_lb(10 ** (db / 10.0), 1.0) for db in np.arange(9, 14.1, 0.5)]
        assert all(np.diff(vals) > 0)


class TestSolvePoisson:
    def test_small_run_consistency(self):
        rep = cb.solve_poisson(1.0, 1.0, M=16, iterations=1500, nu=0.01)
        assert rep.c_lb <= rep.c_ub + 1e-9
        assert rep.mutual_info <= rep.dual_value + 1e-9
        assert rep.c_lb <= rep.c_lb_certified <= rep.c_ub_certified <= rep.c_ub
        assert rep.c_ub >= rep.lapidoth  # lapidoth is far negative at 0 dB

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
    def test_nu_outside_positive_reals_rejected(self, monkeypatch, nu):
        # Refused before any grid is built: an infinite nu used to run four
        # node doublings and return a NaN bound.
        def no_grid(*args):
            raise AssertionError("grid built for a refused nu")

        monkeypatch.setattr(continuous, "truncate", no_grid)
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            cb.solve_poisson(1.0, 1.0, M=16, iterations=10, nu=nu)

    def test_infinite_truncation_bound_refused(self, monkeypatch):
        # With dark current 1000 the closed-form tails overflow at M = 1001:
        # every pair would be infinite, so the solve is refused before any
        # grid is built.
        def no_grid(*args):
            raise AssertionError("grid built for an infinite truncation bound")

        monkeypatch.setattr(continuous, "truncate", no_grid)
        with pytest.raises(AssumptionViolated, match=r"M = 1001 \(R_1\(1001\) = inf"):
            cb.solve_poisson(1.0, 1000.0, M=1001, iterations=1, nu=0.05)

    def test_each_truncation_built_once(self, monkeypatch):
        # Node doubling folds each (M, nodes) grid once: here the default
        # grid and the one doubling that confirms it.
        folded = []
        fold = continuous.truncate

        def spy_fold(base, M, quad_nodes):
            folded.append((M, quad_nodes))
            return fold(base, M, quad_nodes)

        monkeypatch.setattr(continuous, "truncate", spy_fold)
        rep = cb.solve_poisson(1.0, 1.0, M=16, iterations=300, nu=0.01)
        assert len(folded) == len(set(folded))
        assert folded == [(rep.M, rep.quad_nodes), (rep.M, 2 * rep.quad_nodes)]

    @settings(max_examples=40, deadline=None)
    @given(peak=st.floats(0.5, 10.0), extra=st.integers(0, 3), n=st.integers(20, 400),
           log_nu=st.floats(-2.5, -1.0))
    def test_certified_pair_meets_grid_pair(self, peak, extra, n, log_nu):
        # Every pair bounds the same capacity, so they must meet, and the
        # paper pair contains the certified pair.
        base = cb.poisson_channel(peak, 1.0)
        M = cb.choose_truncation_level(base, 1e-3)[0] + extra
        rep = cb.solve_poisson(peak, 1.0, M=M, iterations=n, nu=10.0 ** log_nu)
        grid = cb.solve_poisson_grid(peak, 1.0)
        assert max(rep.c_lb_certified, grid.c_lb) <= min(rep.c_ub_certified, grid.c_ub)
        assert rep.c_lb <= rep.c_lb_certified
        assert rep.c_ub_certified <= rep.c_ub
        assert max(rep.c_lb, grid.c_lb) <= min(rep.c_ub, grid.c_ub)


class TestReproducedNumbers:
    # Every field but wall_time, as computed before the continuous module
    # was narrowed to the Poisson channel; refactors must keep them (to
    # rounding, rel 1e-12).  In SOLVE, g_sup is the curvature-certified
    # supremum, within 1e-14 of the 8193-point scan maximum it replaced;
    # c_lb_certified is mutual_info and c_ub_certified is dual_value plus the
    # least truncation bound.  GRID is the a posteriori Blahut-Arimoto solve
    # with the over-relaxed step and the checkpoint ladder (1302 plain
    # iterations gave [0.11301757264635093, 0.11391359376013939]); its c_ub
    # is the certified sup with a curvature bound per group of grid cells
    # (one global bound gave 0.11391341699836333, 9.5e-5 higher).
    SOLVE = {
        "peak": 1.0, "dark_current": 1.0, "M": 16, "nu": 0.01, "iterations": 300,
        "tail_order": 0.5, "trunc_error": 0.000932010044376853,
        "mutual_info": 0.09684390011748611, "dual_value": 0.15421815574754127,
        "g_sup": -6.301321157629703,
        "c_lb": 0.0385376344430541,
        "c_ub": 0.21252442142197328, "c_lb_certified": 0.09684390011748611,
        "c_ub_certified": 0.15421855574387833, "lapidoth": -1.522897959841617,
        "gamma_M": 1.1673521644800382e-15, "quad_nodes": 512,
        "quadrature_converged": True,
    }
    GRID = {
        "peak": 1.0, "dark_current": 1.0, "M": 14, "tail_order": 0.95,
        "trunc_error": 1.9490730835847594e-05, "iterations": 659,
        "stop_reason": "gap<=eps", "c_lb": 0.11303039039346396,
        "c_ub": 0.11381800221659819, "lapidoth": -1.522897959841617,
    }

    @staticmethod
    def check(rep, want):
        got = {k: v for k, v in vars(rep).items() if k != "wall_time"}
        assert set(got) == set(want)
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
            else:
                assert got[key] == value, key

    def test_solve_poisson(self):
        self.check(cb.solve_poisson(1.0, 1.0, M=16, iterations=300, nu=0.01), self.SOLVE)

    def test_solve_poisson_grid(self):
        self.check(cb.solve_poisson_grid(1.0, 1.0), self.GRID)


class TestSweep:
    def test_two_point_sweep(self):
        rows = cb.poisson_sweep([0.0, 1.0], 1.0)
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"A_dB", "M", "iterations", "stop_reason", "c_lb", "c_ub",
                                "E", "lapidoth_lb"}
            assert row["stop_reason"] == "gap<=eps"
            assert row["c_lb"] <= row["c_ub"]
            assert row["c_ub"] - row["c_lb"] <= 1e-3
            assert row["c_ub"] >= row["lapidoth_lb"]

    def test_capped_point_says_so(self):
        # A point the iteration cap stops keeps a certified but wider pair,
        # and its row tells it apart from a point that reached the gap.
        row, = cb.poisson_sweep([0.0], iteration_cap=10)
        assert row["stop_reason"] == "cap" and row["iterations"] == 10
        assert row["c_lb"] <= row["c_ub"]


class TestGridSandwich:
    @staticmethod
    def check_covers_scan(base, M, lam):
        # At the pinned solve's allowance and at a coarse one, the certified
        # supremum dominates a 65,537-point scan and the node maximum of a
        # 128-node quadrature grid.  The scan and the nodes evaluate f in
        # other blocks than the sup does, and two evaluations of the M-term
        # sum f = sum_i W_M(i) (lam_i + log2 W_M(i)) at one x may differ by
        # M eps (max|lam| + log2(1/gamma)).  The pinned allowance lies below
        # that once |lam| is large, so there the sup is compared up to it.
        xs = np.linspace(0.0, base.peak, 65_537)
        f = continuous._f_scan(base, M, lam, xs)
        node_max = float(cb.truncate(base, M, 128).f_values(lam).max())
        rounding = M * np.finfo(float).eps * (
            np.abs(lam).max() - math.log2(continuous._kernel_floor_bound(base, M)))
        for tol, slack in ((_SUP_TOL, rounding), (1e-4, 0.0)):
            sup = refined_sup_f(base, M, lam, tol) + slack
            assert sup >= f.max() and sup >= node_max, tol
        # The chord bound needs only f'' >= -L, so in every group of cells
        # that shares a curvature bound L, L dominates -f'' as the second
        # differences of every fourth scan point read it (up to 4 roundings
        # of f).  A difference whose three points span two groups is
        # compared with the larger of their bounds.
        edges = np.linspace(0.0, base.peak, continuous._GRID_INPUTS)[::continuous._CURVATURE_CELLS]
        L = continuous._curvature_bounds(base, M, lam, edges)
        g, h = f[::4], 4.0 * (xs[1] - xs[0])
        neg_second = -(g[2:] - 2.0 * g[1:-1] + g[:-2]) / (h * h)
        k = np.arange(1, g.size - 1)
        per = (g.size - 1) // L.size
        cover = np.maximum(L[(k - 1) // per], L[k // per])
        assert np.all(cover + 4.0 * rounding / (h * h) >= neg_second)

    @settings(max_examples=24, deadline=None)
    @given(peak=st.sampled_from([0.5, 1.0, 5.0, 25.0, 10.0 ** 1.7]), data=st.data())
    def test_certified_sup_covers_fine_scan(self, peak, data):
        # At the sweep's truncation level and lam = -log2 q for a random
        # output law q (entries spread over twelve decades).
        base = cb.poisson_channel(peak, 1.0)
        M = cb.choose_truncation_level(base, 1e-4)[0]
        expo = data.draw(st.lists(st.floats(-12.0, 0.0), min_size=M, max_size=M))
        q = 10.0 ** np.array(expo)
        self.check_covers_scan(base, M, -np.log2(q / q.sum()))

    @settings(max_examples=32, deadline=None)
    @given(peak=st.floats(0.5, 10.0 ** 1.7), data=st.data())
    def test_certified_sup_covers_fine_scan_anywhere_in_ball(self, peak, data):
        # Neither bound assumes lam = -log2 q: the same holds at any lam in
        # the dual ball of radius ball_radius(M, gamma), gamma the kernel
        # floor, at the sweep's level and at the two smallest levels.
        base = cb.poisson_channel(peak, 1.0)
        level = cb.choose_truncation_level(base, 1e-4)[0]
        M = data.draw(st.one_of(st.just(level), st.integers(1, 2)))
        radius = ball_radius(M, continuous._kernel_floor_bound(base, M))
        lam = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=M, max_size=M)))
        norm = np.linalg.norm(lam)
        if norm > 0.0:
            lam = lam / norm * (data.draw(st.floats(0.0, 1.0)) * radius)
        self.check_covers_scan(base, M, lam)

    @pytest.mark.parametrize("tol", [-1e-3, math.nan, 0.0, math.inf])
    def test_bad_allowance_rejected(self, tol):
        # At tol <= 0 the halving never ends; a NaN tol used to skip it.
        with pytest.raises(ValueError, match="positive and finite"):
            refined_sup_f(cb.poisson_channel(1.0, 1.0), 14, np.zeros(14), tol)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_lam_rejected(self, bad):
        # A NaN curvature bound fails every comparison, so its cells would
        # drop out and the sup would read -inf.
        lam = np.zeros(14)
        lam[3] = bad
        with pytest.raises(ValueError, match="lam must be finite"):
            refined_sup_f(cb.poisson_channel(1.0, 1.0), 14, lam, 1e-4)

    @pytest.mark.parametrize("db, most", [(0.0, 600), (14.0, 1500)])
    def test_sup_scan_stays_near_first_grid(self, monkeypatch, db, most):
        # With a curvature bound per group of cells, a sweep point's sup
        # builds few rows beyond the 513 of its first grid, which it takes
        # from the Blahut-Arimoto channel; the one global bound it replaced
        # scanned 513 rows at 0 dB and 8,977 at 14 dB.
        rows = []
        scan = continuous._f_scan

        def counted(base, M, lam, xs):
            rows.append(xs.size)
            return scan(base, M, lam, xs)

        monkeypatch.setattr(continuous, "_f_scan", counted)
        cb.poisson_sweep([db])
        assert sum(rows) <= most

    def test_grid_rows_leave_the_sup_unchanged(self):
        # The rows a caller already holds give the first scan the same f,
        # bit for bit, as building them again.
        base = cb.poisson_channel(25.0, 1.0)
        M = cb.choose_truncation_level(base, 1e-4)[0]
        lam = np.linspace(2.0, 30.0, M)
        rows = _truncated_rows(base, np.linspace(0.0, base.peak, continuous._GRID_INPUTS), M)
        for tol in (_SUP_TOL, 1e-4):
            assert refined_sup_f(base, M, lam, tol, rows) == refined_sup_f(base, M, lam, tol)

    def test_scan_blocks_match_one_pass(self):
        base = cb.poisson_channel(5.0, 1.0)
        lam = np.linspace(0.5, 9.0, 12)
        xs = np.linspace(0.0, 5.0, 2 * continuous._SCAN_BLOCK + 7)
        K = base.kernel(xs[:, None], np.arange(12)) + (base.tail_mass(xs, 12) / 12)[:, None]
        one = K @ lam - _neg_xlogx_nats(K).sum(axis=1) / LN2
        np.testing.assert_allclose(continuous._f_scan(base, 12, lam, xs), one,
                                   rtol=1e-14, atol=1e-13)

    def test_truncation_level_is_smallest(self):
        # For each (peak, target) pair the chosen level meets the target at
        # the tail order it reports, and the level below misses it at every
        # tail order (none of these pairs stops at the least level A + eta).
        for peak, target in itertools.product((0.5, 1.0, 10.0, 25.0), (1e-2, 1e-4, 1e-6)):
            base = cb.poisson_channel(peak, 1.0)
            M, err, k = cb.choose_truncation_level(base, target)
            assert err == cb.truncation_error_bound(base, M, k) <= target
            assert min(cb.truncation_error_bound(base, M - 1, kk)
                       for kk in continuous._TAIL_ORDERS) > target

    def test_iteration_cap_leaves_certified_sandwich(self):
        rep = cb.solve_poisson_grid(1.0, 1.0, iteration_cap=10)
        assert rep.iterations == 10 and rep.stop_reason == "cap"
        assert rep.c_lb <= rep.c_ub
        full = cb.solve_poisson_grid(1.0, 1.0)
        assert full.stop_reason == "gap<=eps" and full.c_ub - full.c_lb <= 1e-3
        assert max(rep.c_lb, full.c_lb) <= min(rep.c_ub, full.c_ub)

    def test_uncertifiable_channels_refused(self, monkeypatch):
        # No dark current leaves f'' unbounded at x = 0 and the kernel
        # without a positive floor; from about 18 dB the kernel floor
        # gammainc(M, eta)/M underflows.  Either is refused before a row is
        # built: at 20 dB at the chosen M, at 30 dB (where the closed-form
        # tail overflows) and 300 dB (M about 1e30) at the least level.  The
        # pinned dual solve refuses a channel without dark current as early.
        def no_rows(*args):
            raise AssertionError("rows built for a refused channel")

        monkeypatch.setattr(continuous, "_truncated_rows", no_rows)
        with pytest.raises(AssumptionViolated):
            cb.solve_poisson_grid(1.0, 0.0)
        with pytest.raises(AssumptionViolated, match="dark current"):
            cb.solve_poisson(1.0, 0.0, M=8, iterations=10, nu=0.05)
        for db in (20, 30, 300):
            with pytest.raises(AssumptionViolated, match="underflows"):
                cb.solve_poisson_grid(10.0 ** (db / 10.0), 1.0)

    @pytest.mark.parametrize("peak, eta", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
                                           (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)])
    def test_bad_poisson_parameters_rejected(self, peak, eta):
        for make in (cb.poisson_channel, cb.lapidoth_lb):
            with pytest.raises(cb.InvalidChannel):
                make(peak, eta)


# The Poisson names capbound exported before it resolved them lazily.
POISSON_EXPORTS = ("PoissonChannel", "PoissonGridReport", "PoissonReport",
                   "TruncatedChannel", "choose_truncation_level", "eval_G_nu_continuous",
                   "lapidoth_lb", "poisson_channel", "poisson_sweep", "solve_poisson",
                   "solve_poisson_grid", "tail_Rk", "truncate", "truncation_error_bound")


def test_poisson_exports_resolve_lazily():
    listed = dir(cb)
    for name in POISSON_EXPORTS:
        obj = getattr(continuous, name)
        assert getattr(cb, name) is obj, name
        scope = {}
        exec(f"from capbound import {name}", scope)
        assert scope[name] is obj, name
        assert name in listed, name
        # Resolved on each access, never cached, so a rebinding in
        # capbound.continuous shows through capbound.<name>.
        assert name not in vars(cb), name
    with pytest.raises(AttributeError, match="no_such_name"):
        cb.no_such_name
    with pytest.raises(ImportError):
        exec("from capbound import no_such_name", {})


def _fresh_run(statement):
    """Run ``statement`` in a fresh interpreter after ``import capbound, capbound.cli``.

    Returns the lines it printed and the sorted names of the scipy modules
    and of ``capbound.continuous`` that were loaded when it finished.
    """
    env = dict(os.environ)
    src = str(Path(cb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "\n".join([
        "import sys, capbound, capbound.cli",
        "from capbound import cli",
        statement,
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'"
        " or m == 'capbound.continuous'))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return out[:-1], ast.literal_eval(out[-1])


def test_import_leaves_out_scipy_optimize():
    # scipy.special and capbound.continuous take most of a cold start, and
    # only the Poisson commands and awgnq: channels use them; capbound never
    # needs scipy.optimize.
    assert _fresh_run("") == ([], [])
    for argv in (["solve-dmc", "bsc:0.1", "--quiet"],
                 ["perturb-solve", "bec:0.4", "--eps", "0.01", "--quiet"]):
        lines, loaded = _fresh_run(f"assert cli.main({argv!r}) == 0")
        assert loaded == [], argv
        report = dict(line.split(": ", 1) for line in lines)
        assert float(report["c_lb"]) <= float(report["c_ub"]), argv

    lines, loaded = _fresh_run(
        "assert cli.main(['poisson-sweep', '--db-grid', '0:0:1', '--quiet']) == 0")
    assert {"scipy.special", "capbound.continuous"} <= set(loaded)
    assert "scipy.optimize" not in loaded
    header, row = lines
    sweep = dict(zip(header.split(","), row.split(",")))
    assert float(sweep["c_lb"]) <= float(sweep["c_ub"]) <= float(sweep["c_lb"]) + 1e-3

    lines, loaded = _fresh_run(
        "W = capbound.parse_channel_spec('awgnq:0.5,8,1').entries\n"
        "print(W.shape, abs(W.sum(axis=1) - 1).max())")
    assert "scipy.special" in loaded and "capbound.continuous" not in loaded
    shape, err = lines[0].rsplit(" ", 1)
    assert shape == "(8, 8)" and float(err) <= 1e-12
