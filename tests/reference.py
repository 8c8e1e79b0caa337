"""Allocating reference implementations for the tests.

The solvers in capbound reuse their work arrays from step to step.  The
functions here are the straightforward versions they replaced, which build
every intermediate as a new array; the tests require the two to agree bit
for bit.  ``_eval_F_direct`` and ``_eval_G_nu_direct`` evaluate the dual
terms without the max shift (criterion 10's reference), and
``poisson_tail_direct`` sums the Poisson tail series that ``tail_Rk`` bounds
in closed form (criterion 7's oracle).
"""

import math
import time

import numpy as np
from scipy.special import gammaln

from capbound.blahut_arimoto import _LOG_Q_FLOOR, BAReport, ba_iterations
from capbound.dual_solver import _LADDER_FIRST, _LADDER_GROWTH, _as_values
from capbound.errors import NewtonStall
from capbound.info_theory import LN2, ProbVector, _entropy_bits


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
    """The bracketed Newton solve for interior budgets (no end-point rule)."""
    tol = 1e-11 * max(1.0, abs(budget))
    if float(s.max()) - float(s.min()) <= 1e-12 * max(1.0, abs(float(s.max()))):
        lognorm, mass = softmax(logmass)
        return -lognorm, 0.0, mass

    def moments(m2):
        lognorm, mass = softmax(logmass + m2 * s)
        mean = float(s @ mass)
        var = float((s * s) @ mass) - mean * mean
        return mean, var, lognorm, mass

    lo = hi = start
    step = 1.0
    if moments(start)[0] > budget:
        while True:
            lo -= step
            if moments(lo)[0] <= budget:
                break
            step *= 2.0
            if step > 1e30:
                raise NewtonStall("reference bracket expansion diverged")
    else:
        while True:
            hi += step
            if moments(hi)[0] >= budget:
                break
            step *= 2.0
            if step > 1e30:
                raise NewtonStall("reference bracket expansion diverged")
    m2 = 0.5 * (lo + hi)
    for _ in range(200):
        mean, var, lognorm, prob = moments(m2)
        g = mean - budget
        if abs(g) <= tol:
            return -lognorm, m2, prob
        if g > 0:
            hi = m2
        else:
            lo = m2
        cand = m2 - g / var if var > 0 else math.nan
        m2 = cand if lo < cand < hi else 0.5 * (lo + hi)
    mean, var, lognorm, prob = moments(m2)
    if abs(mean - budget) <= 100 * tol:
        return -lognorm, m2, prob
    raise NewtonStall("reference multiplier solve stalled")


def smoothed_input_term(K, r, lam, nu, logw=None, s=None, budget=None, m2=0.0):
    logmass = (K @ lam - r) * (LN2 / nu)
    if logw is not None:
        logmass += logw
    if s is None:
        lse, mass = softmax(logmass)
    else:
        m1, m2, mass = max_entropy_multipliers(logmass, s, budget, m2)
        lse = -(m1 + m2 * budget)
    return lse, K.T @ mass, mass, m2


class FastGradientState:
    def __init__(self, dim, radius, lipschitz):
        self.radius = radius
        self.L = lipschitz
        self.x = np.zeros(dim)
        self.gsum = np.zeros(dim)
        self.k = 0

    def step(self, grad):
        k = self.k
        y = project_ball(self.x - grad / self.L, self.radius)
        self.gsum += (0.5 * (k + 1)) * grad
        z = project_ball(-self.gsum / self.L, self.radius)
        self.x = (2.0 / (k + 3)) * z + ((k + 1) / (k + 3)) * y
        self.k = k + 1
        return y


def fast_gradient(K, r, logw, radius, nu, n, s, budget, exact_G, target, progress):
    """Reference for ``dual_solver._fast_gradient``: same arguments and result."""
    state = FastGradientState(K.shape[1], radius, 1.0 + 1.0 / nu)
    acc = np.zeros(K.shape[0])
    watch = target is not None or progress is not None
    due = _LADDER_FIRST
    m2 = 0.0
    x = state.x
    for k in range(n + 1):
        _, gG, mass, m2 = smoothed_input_term(K, r, x, nu, logw, s, budget, m2)
        _, pF = softmax(-x * LN2)
        acc += (k + 1) * mass
        y = state.step(gG - pF)
        x = state.x

        if k == n or (watch and k + 1 == due):
            due = math.ceil(_LADDER_GROWTH * due)
            mass_hat = acc * (2.0 / ((k + 1) * (k + 2)))
            q_hat = K.T @ mass_hat
            c_lb = float(-(r @ mass_hat) + _entropy_bits(q_hat))
            lse, _ = softmax(-y * LN2)
            c_ub = float(lse / LN2) + exact_G(y)
            if progress is not None:
                progress(k, c_lb, c_ub, c_ub - c_lb)
            if k == n or (target is not None and c_ub - c_lb <= target):
                break
    return k, y, mass_hat, c_lb, c_ub


def ba_solve(W, epsilon, stopping="apriori"):
    """Reference for ``blahut_arimoto.ba_solve``."""
    t0 = time.perf_counter()
    N = W.rows
    n = ba_iterations(N, epsilon)
    Wm = W.entries
    wlogw = np.zeros_like(Wm)
    mask = Wm > 0.0
    wlogw[mask] = Wm[mask] * np.log(Wm[mask])
    row_neg_ent = wlogw.sum(axis=1)
    reachable = mask.any(axis=0)

    logp = np.full(N, -math.log(N))
    it = 0
    while True:
        p = np.exp(logp - logp.max())
        p /= p.sum()
        q = Wm.T @ p
        logq = np.zeros_like(q)
        nz = q > 0.0
        logq[nz] = np.log(q[nz])
        div = row_neg_ent - Wm @ logq
        if it == n or stopping == "aposteriori":
            c_lb = float(-(W.r @ p) + _entropy_bits(q))
            bound = div
            if not nz[reachable].all():
                bound = row_neg_ent - Wm @ np.where(reachable & ~nz, _LOG_Q_FLOOR, logq)
            c_ub = float(bound.max()) / LN2
            if it == n or c_ub - c_lb <= epsilon:
                break
        logp = logp + div
        logp -= logp.max()
        it += 1

    return BAReport(c_lb=c_lb, c_ub=c_ub, apriori_err=math.log2(N) / max(it, 1),
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
