"""Allocating reference implementations for the tests.

The solvers in capbound reuse their work arrays from step to step.  The
functions here run the same floating-point operations in the same order but
build every intermediate as a new array; the tests require the two to agree
bit for bit.  So ``FastGradientState.step`` is the stacked step (one 2 x 2
by 2 x M product for both unprojected points, one product for the next
iterate), ``smoothed_input_term`` walks the rows of K in blocks of
``info_theory._BLOCK_BYTES`` (block matvecs, block softmaxes, a softmax of
their log-sum-exps to merge them) and also returns its log-masses, and
``ba_solve`` takes each step as one ``smoothed_input_term`` call in nats
and shifts log p by the Phi it returns, as the solvers do;
``tests/test_dual_solver.py`` checks the
stacked step against the textbook one.  ``segment_lp_max`` is the hull LP
over numpy scalars that ``info_theory._segment_lp_max`` replaced with a
loop over Python floats.  ``_eval_F_direct`` and
``_eval_G_nu_direct`` evaluate the dual terms without the max shift
(criterion 10's reference), and
``poisson_tail_direct`` sums the Poisson tail series that ``tail_Rk`` bounds
in closed form (criterion 7's oracle).  ``kernel_floor`` is the dense
kernel-floor scan that set ``TruncatedChannel.gamma_M`` before the closed
form ``continuous._kernel_floor_bound`` did.
"""

import math
import time

import numpy as np
from scipy.special import gammaln

from capbound import info_theory
from capbound.blahut_arimoto import (_LADDER_FIRST, _LADDER_GROWTH, _LOG_Q_FLOOR, _OVERRELAX,
                                     BAReport, ba_iterations)
from capbound.continuous import _truncated_rows
from capbound.dual_solver import _as_values
from capbound.errors import NewtonStall
from capbound.info_theory import (LN2, ProbVector, _affordable_budget, _cost_range,
                                  _entropy_bits, _max_entropy_multipliers, _segment_lp_max)


def _eval_F_direct(lam):
    """Unshifted reference evaluation of F; overflows for large |lambda|."""
    lam = _as_values(lam)
    t = np.power(2.0, -lam)
    s = t.sum()
    return float(np.log2(s)), -t / s


def _eval_G_nu_direct(lam, W, nu):
    """Unshifted reference evaluation of G_nu; overflows for small nu."""
    lam = _as_values(lam)
    f = W.entries @ lam - W.r
    t = np.power(2.0, f / nu)
    s = t.sum()
    p = t / s
    value = nu * np.log2(s) - nu * math.log2(W.rows)
    return float(value), W.entries.T @ p, p


def softmax(a):
    m = a.max()
    e = np.exp(a - m)
    s = e.sum()
    return m + math.log(s), e / s


def project_ball(x, radius):
    x = np.asarray(x, dtype=float)
    n = np.linalg.norm(x)
    if n <= radius or n == 0.0:
        return x
    return x * (radius / n)


def max_entropy_multipliers(logmass, s, budget, start=0.0):
    """The bracketed Newton solve with m2 <= 0, for budgets strictly between the end costs."""
    u = (s - s.min()) / (s.max() - s.min())
    b = (budget - s.min()) / (s.max() - s.min())

    def moments(m2):
        lognorm, mass = softmax(logmass + m2 * u)
        mean = float(u @ mass)
        var = float((u * u) @ mass) - mean * mean
        return mean, var, lognorm, mass

    m2 = lo = hi = min(start, 0.0)
    mean, var, lognorm, mass = moments(m2)
    first = m2 - (mean - b) / var if var > 0 else math.nan
    if mean > b:
        step = 1.0
        while True:
            lo -= step
            if moments(lo)[0] <= b:
                break
            step *= 2.0
            if step > 1e30:
                raise NewtonStall("reference bracket expansion diverged")
    else:
        if m2 < 0.0:
            hi = 0.0
            mean, _, lognorm, mass = moments(hi)
        if mean <= b:
            return lognorm, 0.0, mass
    m2 = first if lo < first < hi else 0.5 * (lo + hi)
    for _ in range(200):
        mean, var, lognorm, mass = moments(m2)
        g = mean - b
        if abs(g) <= 1e-11:
            return lognorm - m2 * b, m2, mass
        if g > 0:
            hi = m2
        else:
            lo = m2
        cand = m2 - g / var if var > 0 else math.nan
        m2 = cand if lo < cand < hi else 0.5 * (lo + hi)
    mean, var, lognorm, mass = moments(m2)
    if abs(mean - b) <= 100 * 1e-11:
        return lognorm - m2 * b, m2, mass
    raise NewtonStall("reference multiplier solve stalled")


def smoothed_input_term(K, r, lam, nu, logw=None, s=None, budget=None, m2=0.0):
    """(Phi, K^T mass, mass, m2, log-masses): the term's result and its log-mass work array."""
    # Row blocks of info_theory._BLOCK_BYTES, merged by a softmax of their log-sum-exps.
    rows = max(1, info_theory._BLOCK_BYTES // (8 * K.shape[1]))
    starts = range(0, K.shape[0], rows)
    logmass = (np.concatenate([K[i:i + rows] @ lam for i in starts]) - r) * (LN2 / nu)
    if logw is not None:
        logmass += logw
    if s is not None:
        lse, m2, mass = max_entropy_multipliers(logmass, s, budget, m2)
        return lse, K.T @ mass, mass, m2, logmass
    blocks = [softmax(logmass[i:i + rows]) for i in starts]
    parts = [K[i:i + rows].T @ mass_b for i, (_, mass_b) in zip(starts, blocks)]
    if len(blocks) == 1:
        return blocks[0][0], parts[0], blocks[0][1], m2, logmass
    lse, weight = softmax(np.array([lse_b for lse_b, _ in blocks]))
    mass = np.concatenate([mass_b * w for (_, mass_b), w in zip(blocks, weight)])
    return lse, weight @ np.array(parts), mass, m2, logmass


def segment_lp_max(f, s, budget):
    """max f^T p over {p in simplex : s^T p <= budget}, the hull walked over numpy scalars."""
    smin, _ = _cost_range(s, budget)
    budget = max(budget, smin)
    top = float(f.max())
    if float(s[f == top].min()) <= budget:
        return top
    order = np.lexsort((-f, s))
    ss, fs = s[order], f[order]
    keep = np.ones(ss.size, dtype=bool)
    keep[1:] = np.diff(ss) > 0
    ss, fs = ss[keep], fs[keep]
    hull = []
    for i in range(ss.size):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (ss[a] - ss[o]) * (fs[i] - fs[o]) - (fs[a] - fs[o]) * (ss[i] - ss[o])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    hx = ss[hull]
    hy = fs[hull]
    j = int(np.searchsorted(hx, budget, side="right"))
    t = (budget - hx[j - 1]) / (hx[j] - hx[j - 1])
    return float((1.0 - t) * hy[j - 1] + t * hy[j])


class FastGradientState:
    """The stacked fast-gradient step of ``dual_solver.FastGradientState``, allocating."""

    def __init__(self, dim, radius, lipschitz, centre=None):
        self.radius = radius
        self.L = lipschitz
        c = np.zeros(dim) if centre is None else centre
        self.S = np.array([c, c], dtype=float)
        self.k = 0

    @property
    def x(self):
        return self.S[0]

    def step(self, HE):
        k, L = self.k, self.L
        h = (k + 1) / (2.0 * L)
        T = np.array([[-1.0 / L, 1.0 / L], [-h, h]]) @ HE + self.S
        y = project_ball(T[0], self.radius)
        z = project_ball(T[1], self.radius)
        x = np.array([(k + 1) / (k + 3), 2.0 / (k + 3)]) @ np.array([y, z])
        self.S = np.array([x, T[1]])
        self.k = k + 1
        return y


def fast_gradient(K, r, logw, radius, nu, n, s, budget, exact_G, target, progress,
                  centre=None, start=(-math.inf, math.inf)):
    """Reference for ``dual_solver._fast_gradient``: same arguments and result."""
    state = FastGradientState(K.shape[1], radius, 1.0 + 1.0 / nu, centre)
    acc = np.zeros(K.shape[0])
    watch = target is not None or progress is not None
    due = _LADDER_FIRST
    m2 = 0.0
    x = state.x
    for k in range(n + 1):
        _, gG, mass, m2, _ = smoothed_input_term(K, r, x, nu, logw, s, budget, m2)
        _, pF = softmax(-x * LN2)
        acc += (k + 1) * mass
        y = state.step(np.array([gG, pF]))
        x = state.x

        if k == n or (watch and k + 1 == due):
            due = math.ceil(_LADDER_GROWTH * due)
            mass_hat = acc * (2.0 / ((k + 1) * (k + 2)))
            q_hat = K.T @ mass_hat
            c_lb = float(-(r @ mass_hat) + _entropy_bits(q_hat))
            lse, _ = softmax(-y * LN2)
            c_ub = float(lse / LN2) + exact_G(y)
            lb, ub = max(c_lb, start[0]), min(c_ub, start[1])
            if progress is not None:
                progress(k, lb, ub, ub - lb)
            if k == n or (target is not None and ub - lb <= target):
                break
    return k, y, mass_hat, c_lb, c_ub


def ba_solve(W, epsilon, stopping="apriori", cost=None):
    """Reference for ``blahut_arimoto.ba_solve``: one input-term twin call a step.

    Same ladder, step and safeguard: with lam = -ln q and r the row
    entropies in nats, the term's log-masses at nu = ln2/t are logp + t*D.
    """
    t0 = time.perf_counter()
    N = W.rows
    n = ba_iterations(N, epsilon)
    Wm = W.entries
    wlogw = np.zeros_like(Wm)
    mask = Wm > 0.0
    wlogw[mask] = Wm[mask] * np.log(Wm[mask])
    ent = -wlogw.sum(axis=1)
    reachable = mask.any(axis=0)
    s = spend = None
    if cost is not None:
        s, spend = cost.costs, _affordable_budget(cost.costs, cost.budget)

    lam, logp = np.zeros(W.cols), np.full(N, -math.log(N))
    watch = stopping == "aposteriori"
    step = _OVERRELAX if watch else 1.0
    nu = math.inf
    m2 = 0.0
    kept, kept_lb, kept_gain = None, -math.inf, 0.0
    due = _LADDER_FIRST
    it = 0
    while True:
        phi, q, p, m2, logmass = smoothed_input_term(Wm, ent, lam, nu, logp, s, spend, m2)
        logp = logmass - phi
        nz = q > 0.0
        lam = np.zeros_like(q)
        lam[nz] = -np.log(q[nz])
        if it == n or (watch and (it == 0 or it + 1 == due)):
            if it + 1 == due:
                due = math.ceil(_LADDER_GROWTH * due)
            c_lb = float(-(W.r @ p) + _entropy_bits(q))
            div = Wm @ lam - ent
            bound = div
            if not nz[reachable].all():
                bound = Wm @ np.where(reachable & ~nz, -_LOG_Q_FLOOR, lam) - ent
            c_ub = (float(bound.max()) if cost is None
                    else _segment_lp_max(bound, cost.costs, cost.budget)) / LN2
            if it == n or c_ub - c_lb <= epsilon:
                break
            if step != 1.0:
                if c_lb - kept_lb < kept_gain:
                    (logp, lam), step = kept, 1.0
                else:
                    kept, kept_lb = (logp, lam), c_lb
                    gain = (softmax(logp + div)[0] if cost is None
                            else _max_entropy_multipliers(logp + div, s, spend, m2)[0])
                    kept_gain = max(gain / LN2 - c_lb, 0.0)
        nu = LN2 / step
        it += 1

    return BAReport(c_lb=c_lb, c_ub=c_ub,
                    apriori_err=c_ub - c_lb if watch else math.log2(N) / max(it, 1),
                    iterations=it, p=ProbVector(p), wall_time=time.perf_counter() - t0)


def poisson_tail_direct(base, M, k):
    """R_k(M) = sum_{i>=M} (sup_x W(i|x))^k for a Poisson channel, summed directly.

    sup over x in [0, peak] of the pmf at i sits at the mean nearest i in
    [eta, peak + eta].  The series is summed until a term drops below 1e-18
    and the rest is bounded by a geometric majorant at the last term ratio.
    That is sound here: from i >= peak + eta on, the ratio of consecutive
    terms is ((peak + eta)/(i + 1))^k, which keeps decreasing.
    """
    peak, eta = base.peak, base.dark_current
    total, prev = 0.0, None
    for i in range(M, M + 500_000):
        m = min(max(float(i), eta), peak + eta)
        if m == 0.0:
            term = (1.0 if i == 0 else 0.0) ** k
        else:
            term = float(math.exp(-m + i * math.log(m) - gammaln(i + 1))) ** k
        total += term
        if term < 1e-18:
            if term == 0.0:
                return total
            ratio = term / prev if prev else 1.0
            if ratio < 0.99:
                return total + term * ratio / (1.0 - ratio)
        prev = term
    raise AssertionError(f"direct tail sum from M = {M} did not converge")


def kernel_floor(base, M, quad_nodes):
    """Kernel floor from a dense scan with 10x the grid's nodes.

    The larger of the tail bound min tail(x)/M and the scan minimum less a
    dip allowance of twice the spacing (|d/dx W(i|x)| <= 1 for the Poisson
    kernel).
    """
    dense = np.linspace(0.0, base.peak, 10 * quad_nodes + 1)
    grid_min = float(_truncated_rows(base, dense, M).min())
    tail_lb = float(np.min(base.tail_mass(dense, M))) / M
    dip = 2.0 * (base.peak / (10 * quad_nodes))
    return min(max(tail_lb, grid_min - dip), grid_min)
