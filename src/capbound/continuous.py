"""Capacity bounds for the peak-limited Poisson counting channel.

The channel's input is x in [0, A] and its output is Poisson with mean
x + dark_current.  The countable output is folded onto {0, ..., M-1} by
spreading the tail mass Sum_{j>=M} W(j|x) uniformly over the kept symbols;
the capacity shift this causes is bounded explicitly through closed-form
bounds on the polynomial-tail sums

    R_k(M) = sum_{i>=M} (sup_x W(i|x))^k.

The truncated channel is then a finite-output problem whose dual can be
smoothed and solved by the same fast-gradient scheme as the discrete case,
with the input integrals discretized on a fixed composite Gauss-Legendre
grid.  The final sandwich combines the primal value, the dual value and the
truncation penalty:

    2*I - (F+G) - E  <=  C  <=  2*(F+G) - I + E.

The sweep takes a second, certified path: Blahut-Arimoto on a uniform input
grid gives I(p, W_M) <= C (the fold is a garbling of the output), and
Arimoto's bound sup_x D(W_M(.|x) || q) + E, with the supremum over the whole
input interval certified by a curvature bound, gives the upper side.  A
classical explicit lower bound is reported next to both.

All values are in bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc, gammaln, xlogy

from .blahut_arimoto import ba_solve
from .dual_solver import _fast_gradient, _smoothed_input_term, ball_radius, eval_F
from .errors import (
    AssumptionViolated,
    Infeasible,
    InvalidChannel,
    InvalidOrder,
    NeedLargerM,
    require_sandwich,
)
from .info_theory import LN2, ChannelMatrix, _neg_xlogx_nats

_GL_ORDER = 8

# Quadrature nodes of the default grid (the Poisson solve's, before node
# doubling) and of the scan that estimates sup f.
_QUAD_NODES = 512
_SUP_SCAN_NODES = 8192

# The most kernel rows one block of a sup scan builds at once (one
# 16,385-row scan raised a sweep's peak resident memory from 84 MB to 109 MB).
_SCAN_BLOCK = 8193

# Bound on |d/dx W(i|x)| uniformly in i: for the Poisson kernel
# d/dx W(i|x) = W(i-1|x) - W(i|x), and |W(i-1|x) - W(i|x)| <= 1.
_KERNEL_LIPSCHITZ = 1.0


# ---------------------------------------------------------------------------
# The channel


def _check_poisson_params(peak: float, dark_current: float) -> None:
    """Raise InvalidChannel unless 0 < peak < inf and 0 <= dark_current < inf."""
    if not (math.isfinite(peak) and peak > 0):
        raise InvalidChannel(f"peak power must be positive and finite, got {peak!r}")
    if not (math.isfinite(dark_current) and dark_current >= 0):
        raise InvalidChannel(
            f"dark current must be nonnegative and finite, got {dark_current!r}")


@dataclass(frozen=True)
class PoissonChannel:
    """Counting channel: output Poisson-distributed with mean x + dark_current.

    kernel(x, i) evaluates W(i|x) and broadcasts over both arguments: an
    input column x[:, None] against outputs np.arange(M) gives the (len(x), M)
    block of rows (a scalar i works too); tail_mass(x, M) gives
    sum_{j>=M} W(j|x).  pmf and tails are evaluated through log-gamma /
    regularized incomplete gamma, so truncation levels in the hundreds stay
    far from overflow.  Build it with ``poisson_channel``, which checks the
    parameters.
    """

    peak: float
    dark_current: float

    def kernel(self, x, i):
        # xlogy(0, 0) = 0 makes a zero mean put all mass on i = 0.
        m = np.asarray(x, dtype=float) + self.dark_current
        with np.errstate(divide="ignore"):
            return np.exp(xlogy(i, m) - m - gammaln(np.asarray(i) + 1))

    def tail_mass(self, x, M):
        m = np.asarray(x, dtype=float) + self.dark_current
        return gammainc(M, m)


def poisson_channel(peak: float, dark_current: float = 1.0) -> PoissonChannel:
    """The Poisson channel on inputs [0, peak] with the given dark current."""
    _check_poisson_params(peak, dark_current)
    return PoissonChannel(peak=float(peak), dark_current=float(dark_current))


@dataclass(frozen=True)
class ContinuousCost:
    """Average cost constraint E[s(X)] = budget with a Lipschitz cost s.

    The quadrature solve has no S_max step (unlike the discrete solver), so
    it enforces the budget with equality, not as E[s(X)] <= budget.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    budget: float
    lipschitz: float


# ---------------------------------------------------------------------------
# Truncation


@dataclass
class TruncatedChannel:
    """M-truncated channel on a fixed quadrature grid over [0, peak].

    Kept rows get the folded tail: W_M(i|x) = W(i|x) + tail(x)/M for i < M.
    ``gamma_M`` is a positive lower estimate of min_{x,i} W_M(i|x), combining
    a dense grid minimum (with a Lipschitz dip allowance) and the sound tail
    bound min_x tail(x)/M.
    """

    base: PoissonChannel
    M: int
    gamma_M: float
    nodes: np.ndarray
    weights: np.ndarray
    kernel_nodes: np.ndarray  # (nodes, M) truncated kernel values
    r_nodes: np.ndarray       # per-node row entropy, bits

    def f_values(self, lam: np.ndarray) -> np.ndarray:
        return self.kernel_nodes @ lam - self.r_nodes


def _gl_grid(a: float, b: float, total_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre grid with panels of fixed order."""
    panels = max(1, math.ceil(total_nodes / _GL_ORDER))
    xi, wi = leggauss(_GL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    weights = (half[:, None] * wi[None, :]).ravel()
    return nodes, weights


def _truncated_rows(base: PoissonChannel, x: np.ndarray, M: int) -> np.ndarray:
    """Rows W(i|x) + tail(x)/M, i < M, for a 1-D array of inputs x."""
    K = base.kernel(x[:, None], np.arange(M))
    K += (base.tail_mass(x, M) / M)[:, None]
    return K


def truncate(base: PoissonChannel, M: int, quad_nodes: int = _QUAD_NODES) -> TruncatedChannel:
    """Fold the output tail onto {0..M-1} and fix the integration grid."""
    return _kernel_floor(_fold_on_grid(base, M, quad_nodes))


def _fold_on_grid(base: PoissonChannel, M: int, quad_nodes: int) -> TruncatedChannel:
    """The truncation's rows and row entropies on its grid, without the floor scan.

    ``gamma_M`` is NaN until ``_kernel_floor`` fills it in, so a grid that
    is only compared against (node doubling) skips the dense scan.
    """
    if M < 1:
        raise InvalidChannel("truncation level M must be >= 1")
    nodes, weights = _gl_grid(0.0, base.peak, quad_nodes)
    K = _truncated_rows(base, nodes, M)
    sums = K.sum(axis=1)
    worst = float(np.abs(sums - 1.0).max())
    if worst > 1e-9:
        raise InvalidChannel(
            f"truncated kernel rows sum to 1 +- {worst:.2e}; kernel and tail disagree"
        )
    r = _neg_xlogx_nats(K).sum(axis=1) / LN2
    return TruncatedChannel(
        base=base,
        M=M,
        gamma_M=math.nan,
        nodes=nodes,
        weights=weights,
        kernel_nodes=K,
        r_nodes=r,
    )


def _kernel_floor(trunc: TruncatedChannel) -> TruncatedChannel:
    """Fill in gamma_M from a dense scan with 10x the grid's nodes (once)."""
    if not math.isnan(trunc.gamma_M):
        return trunc
    base, M, quad_nodes = trunc.base, trunc.M, trunc.nodes.size
    dense = np.linspace(0.0, base.peak, 10 * quad_nodes + 1)
    grid_min = float(_truncated_rows(base, dense, M).min())
    tail_lb = float(np.min(base.tail_mass(dense, M))) / M
    dip = 2.0 * _KERNEL_LIPSCHITZ * (base.peak / (10 * quad_nodes))
    gamma = max(tail_lb, grid_min - dip)
    gamma = min(gamma, grid_min)
    if gamma <= 0.0:
        raise AssumptionViolated(
            "Assumption 3 violated: truncated kernel minimum could not be "
            "bounded away from zero"
        )
    trunc.gamma_M = gamma
    return trunc


# ---------------------------------------------------------------------------
# Polynomial tails and the truncation error bound


def tail_Rk(base: PoissonChannel, M: int, k: float) -> float:
    """Closed-form upper bound on R_k(M) = sum_{i>=M} (sup_x W(i|x))^k.

    The factorial-tail bound with alpha = 2^(1/k - 1), valid for
    M >= peak + dark_current (NeedLargerM below that).
    """
    if not 0.0 < k <= 1.0:
        raise InvalidOrder(f"tail order k = {k!r} outside (0, 1]")
    if M < 0:
        raise InvalidChannel("truncation level must be nonnegative")
    mean = base.peak + base.dark_current
    if M < mean:
        raise NeedLargerM(
            f"closed-form tail bound needs M >= peak + dark current = {mean:g}"
        )
    alpha = 2.0 ** (1.0 / k - 1.0)
    logv = k * (math.log(alpha) + (alpha - 1.0) * mean
                + M * math.log(mean) - gammaln(M + 1))
    try:
        return math.exp(logv)
    except OverflowError:
        return math.inf  # sound: an infinite bound only widens the sandwich


def truncation_error_bound(base: PoissonChannel, M: int, k: float) -> float:
    """Uniform bound on |I(p, W) - I(p, W_M)| in bits, any input distribution.

    (2*log2(e) / (e*(1-k))) * [ M^(1-k) * R_1(M)^k + R_k(M) ], for k in (0,1),
    with the closed-form tails of ``tail_Rk``.
    """
    if not 0.0 < k < 1.0:
        raise InvalidOrder(f"truncation error bound needs k in (0, 1), got {k!r}")
    r1 = tail_Rk(base, M, 1.0)
    rk = tail_Rk(base, M, k)
    pref = 2.0 / (LN2 * math.e * (1.0 - k))
    return float(pref * (M ** (1.0 - k) * r1 ** k + rk))


# ---------------------------------------------------------------------------
# Smoothing gap


def _lipschitz_terms(trunc: TruncatedChannel,
                     cost: Optional[ContinuousCost]) -> tuple[float, float, float]:
    """(T1, T2, L_f) entering the uniform smoothing gap."""
    M = trunc.M
    g2 = math.log2(1.0 / trunc.gamma_M)
    L = _KERNEL_LIPSCHITZ
    l_f = L * M * M * max(g2, 1.0 / LN2) + M * L * abs(g2 - 1.0 / LN2)
    rho = trunc.base.peak
    if cost is None:
        return l_f * rho, 0.0, l_f
    xs = np.concatenate(([0.0], trunc.nodes, [rho]))
    svals = np.asarray(cost.fn(xs), dtype=float)
    s_lo = float(svals.min()) - cost.budget   # negative for an interior budget
    s_hi = float(svals.max()) - cost.budget   # positive for an interior budget
    if s_lo >= 0 or s_hi <= 0:
        raise Infeasible("budget must lie strictly inside the attainable cost range")
    ls = cost.lipschitz
    mu_hi = (2.0 / s_hi) * math.log2(max(2.0 * ls * rho / s_hi, 1.0))
    mu_lo = (2.0 / (-s_lo)) * math.log2(max(2.0 * ls * rho / (-s_lo), 1.0))
    t1 = l_f * rho + 2.0 * l_f * ls * rho * rho * max(1.0 / (-s_lo), 1.0 / s_hi)
    t2 = ls * rho * max(mu_lo, mu_hi)
    return t1, t2, l_f


def smoothing_gap_bound(nu: float, t1: float, t2: float) -> float:
    """Uniform gap iota(nu) between the exact and smoothed input terms."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    if t2 > 1.0:
        branch1 = True
    elif t2 == 1.0:
        branch1 = t1 > 0.0
    else:
        branch1 = nu < t1 / (1.0 - t2)
    if branch1:
        return nu * (math.log2(t1 / nu + t2) + 1.0)
    return nu


# ---------------------------------------------------------------------------
# Smoothed dual term on the grid


def _node_cost(trunc: TruncatedChannel, cost: Optional[ContinuousCost]
               ) -> tuple[Optional[np.ndarray], Optional[float]]:
    """(cost at the grid nodes, budget), or (None, None) without a constraint."""
    if cost is None:
        return None, None
    return np.asarray(cost.fn(trunc.nodes), dtype=float), cost.budget


def eval_G_nu_continuous(lam, trunc: TruncatedChannel, nu: float,
                         cost: Optional[ContinuousCost] = None
                         ) -> tuple[float, np.ndarray, np.ndarray]:
    """Smoothed input term, its gradient, and the optimal density on the grid.

    The integrals run over the truncation's fixed Gauss-Legendre grid: the
    nodes are the inputs of the discrete smoothed term, each with the log of
    its quadrature weight added to its exponent, so the gradient integrates
    the kernel against the returned density and sums to 1.  With a cost
    constraint the two multipliers come from the bracketed Newton solve.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    lam = np.asarray(lam, dtype=float)
    lse, grad, mass, _ = _smoothed_input_term(trunc.kernel_nodes, trunc.r_nodes, lam, nu,
                                              np.log(trunc.weights), *_node_cost(trunc, cost))
    return float(nu * lse / LN2 - nu * math.log2(trunc.base.peak)), grad, mass / trunc.weights


def _converged_truncation(trunc: TruncatedChannel, nu: float,
                          cost: Optional[ContinuousCost], lam: np.ndarray
                          ) -> tuple[TruncatedChannel, bool]:
    """Double the grid until the smoothed value at lam stabilizes.

    Returns the finest grid tried and whether it stabilized.  An unresolved
    grid only loosens the resulting sandwich (the primal value is the exact
    mutual information of the atomic input supported on the nodes, and the
    dual value is weak duality at the computed iterate), so callers may
    legitimately continue with converged=False.  Only the returned grid gets
    the dense floor scan that sets gamma_M.
    """
    value = eval_G_nu_continuous(lam, trunc, nu, cost)[0]
    for _ in range(4):
        tol = 1e-9 * (1.0 + abs(value))
        cand = _fold_on_grid(trunc.base, trunc.M, 2 * trunc.nodes.size)
        v2 = eval_G_nu_continuous(lam, cand, nu, cost)[0]
        if abs(v2 - value) <= tol:
            return _kernel_floor(trunc), True
        trunc, value = cand, v2
    return _kernel_floor(trunc), False


def _f_scan(base: PoissonChannel, M: int, lam: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """f(x) = W_M(.|x) . lam - H(W_M(.|x)) in bits at each x, built in row blocks.

    With lam = -log2 q, f(x) is the divergence D(W_M(.|x) || q).
    """
    f = np.empty(xs.size)
    for lo in range(0, xs.size, _SCAN_BLOCK):
        K = _truncated_rows(base, xs[lo:lo + _SCAN_BLOCK], M)
        f[lo:lo + _SCAN_BLOCK] = K @ lam - _neg_xlogx_nats(K).sum(axis=1) / LN2
    return f


def refined_sup_f(trunc: TruncatedChannel, lam: np.ndarray) -> float:
    """Estimate sup_x f_lambda(x) by its maximum over a uniform scan and the nodes.

    f_lambda(x) = W_M(.|x) . lambda - r(x) is evaluated on 8193 equispaced
    inputs spanning [0, peak], both ends included, and on the quadrature
    nodes.  The node maximum is the grid-discretized problem's exact value,
    so the estimate never falls below it and weak duality
    (mutual_info <= dual_value) holds.  For the continuum it is a lower
    estimate of the true supremum, not a certificate: a peak between scan
    points is missed.
    """
    lam = np.asarray(lam, dtype=float)
    xs = np.linspace(0.0, trunc.base.peak, _SUP_SCAN_NODES + 1)
    scan = _f_scan(trunc.base, trunc.M, lam, xs)
    return max(float(scan.max()), float(trunc.f_values(lam).max()))


# ---------------------------------------------------------------------------
# Poisson capacity sandwich


def lapidoth_lb(peak: float, dark_current: float) -> float:
    """Classical explicit capacity lower bound for the peak-limited Poisson channel.

    Evaluated exactly as published; can be negative for small peak power and
    is deliberately not clamped.
    """
    _check_poisson_params(peak, dark_current)
    A, eta = float(peak), float(dark_current)
    nats = (0.5 * math.log(A)
            + (A / 3.0 + 1.0) * math.log(1.0 + 3.0 / A)
            - 1.0
            - math.sqrt((eta + 1.0 / 12.0) / A) * (math.pi / 4.0 + 0.5 * math.log(2.0))
            - 0.5 * math.log(math.pi * math.e / 2.0))
    return nats / LN2


@dataclass
class PoissonReport:
    """Capacity sandwich for a truncated continuous-input channel."""

    peak: float
    dark_current: float
    M: int
    nu: float
    iterations: int
    tail_order: float
    trunc_error: float
    mutual_info: float       # I(p_hat, W_M), quadrature value
    dual_value: float        # F(lambda_hat) + G_sup(lambda_hat)
    g_sup: float             # refined supremum estimate of the exact G
    g_nu: float              # smoothed G at lambda_hat
    iota: float              # certified uniform gap G <= G_nu + iota
    c_lb: float
    c_ub: float
    c_lb_certified: float    # I - E  (holds up to quadrature accuracy)
    c_ub_certified: float    # F + G_nu + iota + E
    lapidoth: float
    gamma_M: float
    quad_nodes: int
    quadrature_converged: bool
    wall_time: float

    def __post_init__(self):
        require_sandwich(self.c_lb, self.c_ub, "PoissonReport")
        require_sandwich(self.c_lb_certified, self.c_ub_certified, "PoissonReport (certified)")


def _solve_truncated(trunc: TruncatedChannel, nu: float, n: int,
                     cost: Optional[ContinuousCost],
                     progress=None) -> tuple[np.ndarray, float]:
    """Fast-gradient solve of the smoothed dual on the quadrature grid.

    Runs n + 1 steps and returns (lambda_hat, I(p_hat)).  A ``progress``
    callback gets the certificate on the default checkpoint ladder; its
    upper bounds use the vertex maximum of f_lambda over the nodes, with or
    without a cost constraint.
    """
    _, lam_hat, _, mutual, _ = _fast_gradient(
        trunc.kernel_nodes, trunc.r_nodes, np.log(trunc.weights),
        ball_radius(trunc.M, trunc.gamma_M), nu, n, *_node_cost(trunc, cost),
        lambda lam: float(trunc.f_values(lam).max()), None, progress,
    )
    return lam_hat, mutual


def solve_poisson(peak: float, dark_current: float = 1.0, *, M: int, iterations: int,
                  nu: float, cost: Optional[ContinuousCost] = None,
                  tail_order: float = 0.5, progress=None) -> PoissonReport:
    """The paper's Poisson capacity sandwich at a pinned M, iteration count and nu.

    This is the reproduction path: the truncation level, the fast-gradient
    iteration count and the smoothing parameter are the caller's, as in the
    published reference runs.  ``solve_poisson_grid`` is the auto-tuned,
    certified path.  The primary bounds follow the doubled sandwich with the
    refined supremum estimate of the exact dual term; the certified pair
    swaps in the uniform smoothing gap and is reported alongside.  A
    ``cost`` is enforced as E[s(X)] = budget (see ContinuousCost), so the
    sandwich is for that equality constraint.
    """
    t0 = time.perf_counter()
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations!r}")
    if not 0.0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    base = poisson_channel(peak, dark_current)
    err_trunc = truncation_error_bound(base, M, tail_order)

    trunc, quad_ok = _converged_truncation(_fold_on_grid(base, M, _QUAD_NODES), nu, cost,
                                           np.zeros(M))
    lam_hat, mutual = _solve_truncated(trunc, nu, iterations, cost, progress=progress)

    Fv, _ = eval_F(lam_hat)
    g_sup = refined_sup_f(trunc, lam_hat)
    g_nu, _, _ = eval_G_nu_continuous(lam_hat, trunc, nu, cost)
    t1, t2, _ = _lipschitz_terms(trunc, cost)
    iota = smoothing_gap_bound(nu, t1, t2)

    dual_value = Fv + g_sup
    c_lb = 2.0 * mutual - dual_value - err_trunc
    c_ub = 2.0 * dual_value - mutual + err_trunc
    return PoissonReport(
        peak=float(peak),
        dark_current=float(dark_current),
        M=M,
        nu=float(nu),
        iterations=int(iterations),
        tail_order=tail_order,
        trunc_error=err_trunc,
        mutual_info=mutual,
        dual_value=dual_value,
        g_sup=g_sup,
        g_nu=g_nu,
        iota=iota,
        c_lb=c_lb,
        c_ub=c_ub,
        c_lb_certified=mutual - err_trunc,
        c_ub_certified=Fv + g_nu + iota + err_trunc,
        lapidoth=lapidoth_lb(peak, dark_current),
        gamma_M=trunc.gamma_M,
        quad_nodes=trunc.nodes.size,
        quadrature_converged=quad_ok,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Certified Blahut-Arimoto sandwich on a uniform input grid (the sweep's path)

# Tail orders whose truncation bounds the sweep takes the least of, and the
# size of the uniform input grid its Blahut-Arimoto solve runs on.
_TAIL_ORDERS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
_GRID_INPUTS = 513


def choose_truncation_level(base: PoissonChannel, target: float
                            ) -> tuple[int, float, float]:
    """Smallest M >= peak + dark current with min_k E(M, k) <= target.

    Returns (M, that least bound E, its tail order k), k from _TAIL_ORDERS.
    """
    M = max(1, math.ceil(base.peak + base.dark_current))
    while True:
        err, k = min((truncation_error_bound(base, M, k), k) for k in _TAIL_ORDERS)
        if err <= target:
            return M, err, k
        M += 1


def _kernel_floor_bound(base: PoissonChannel, M: int) -> float:
    """gamma = gammainc(M, eta)/M, a lower bound on every entry of W_M.

    Refuses (AssumptionViolated) a channel without dark current and a level
    whose gamma underflows.  gamma falls as M grows, so a refusal at one
    level holds for every larger one.
    """
    eta = base.dark_current
    if eta <= 0.0:
        raise AssumptionViolated("the certified supremum needs a positive dark current")
    gamma = gammainc(float(M), eta) / M
    if gamma <= 0.0:
        raise AssumptionViolated(
            f"gammainc(M, eta)/M underflows at M = {M}: no curvature bound for "
            f"peak {base.peak:g}"
        )
    return gamma


def _curvature_bound(base: PoissonChannel, M: int, lam: np.ndarray) -> float:
    """L2 >= sup over [0, peak] of |f''| for the Poisson f of ``_f_scan``.

    With W = W(.|x), W_M(i) = W(i) + T/M and T = P(Y >= M | x), write
    f = sum_i W_M(i) (lam_i + log2 W_M(i)).  As sum_i W_M'(i) = 0,

        f'' = sum_i W_M''(i) (lam_i + log2 W_M(i)) + sum_i W_M'(i)^2 / (W_M(i) ln 2).

    The Poisson identities W'(i) = W(i-1) - W(i) and T' = W(M-1) give
    W''(i) = W(i-2) - 2 W(i-1) + W(i) and T'' = W(M-2) - W(M-1), so
    sum_{i<M} |W_M''(i)| <= 4 + 1 = 5.  Because sum_i W_M''(i) = 0, the
    first sum is unchanged by shifting lam_i + log2 W_M(i) by a constant, and
    that term ranges over [min lam + log2 gamma, max lam] with
    gamma = gammainc(M, eta)/M <= T(0)/M <= min W_M: the first sum is at most
    2.5 (max lam - min lam + log2(1/gamma)).  For the second, (a+b)^2 <=
    2a^2 + 2b^2 with W_M(i) >= W(i) and W_M(i) >= T/M gives

        sum_i W_M'(i)^2 / W_M(i) <= 2 sum_i W(i) (i/m - 1)^2 + 2 W(M-1)^2 / T
                                 <= 2 (1 + M W(M-1)) / m,

    where m = x + eta: the first sum is Var(Y)/m^2 = 1/m, and T >= W(M) =
    W(M-1) m/M.  With W(M-1) <= 1 and m >= eta the second term is at most
    2 (1 + M) / (eta ln 2).  Without dark current (eta = 0) f'' is unbounded
    near x = 0, so that channel is refused.
    """
    spread = float(lam.max() - lam.min()) - math.log2(_kernel_floor_bound(base, M))
    return 2.5 * spread + 2.0 * (1.0 + M) / (base.dark_current * LN2)


def _certified_sup(base: PoissonChannel, M: int, lam: np.ndarray, tol: float) -> float:
    """Upper bound on sup over [0, peak] of the f of ``_f_scan``, within tol of the scan.

    On a cell of width h the chord bound gives f <= max(f at its ends) +
    L2 h^2/8, with L2 from ``_curvature_bound``.  The scan starts on the
    cells of the _GRID_INPUTS-point input grid and halves every cell whose
    bound still exceeds the largest f seen plus tol, until none is left; the
    result is the largest bound of any cell kept.  Halving only those cells
    spends the scan where f comes within the allowance of its maximum.
    """
    L2 = _curvature_bound(base, M, lam)
    h = base.peak / (_GRID_INPUTS - 1)
    x = np.linspace(0.0, base.peak, _GRID_INPUTS)
    f = _f_scan(base, M, lam, x)
    best = float(f.max())
    left, fl, fr = x[:-1], f[:-1], f[1:]
    sup = -math.inf
    while True:
        bound = np.maximum(fl, fr) + L2 * h * h / 8.0
        hot = bound > best + tol
        sup = max(sup, float(bound[~hot].max(initial=-math.inf)))
        if not hot.any():
            return sup
        h /= 2.0
        left, fl, fr = left[hot], fl[hot], fr[hot]
        mid = _f_scan(base, M, lam, left + h)
        best = max(best, float(mid.max()))
        left = np.concatenate([left, left + h])
        fl, fr = np.concatenate([fl, mid]), np.concatenate([mid, fr])


@dataclass
class PoissonGridReport:
    """Certified Poisson capacity sandwich from Blahut-Arimoto on an input grid."""

    peak: float
    dark_current: float
    M: int
    tail_order: float        # the k of the least truncation bound
    trunc_error: float       # E at (M, tail_order)
    iterations: int
    stop_reason: str         # of the Blahut-Arimoto solve
    c_lb: float              # I(p, W_M) on the grid
    c_ub: float              # certified sup_x D(W_M(.|x) || q) + E
    lapidoth: float
    wall_time: float

    def __post_init__(self):
        require_sandwich(self.c_lb, self.c_ub, "PoissonGridReport")


def solve_poisson_grid(peak: float, dark_current: float = 1.0, epsilon: float = 1e-3,
                       iteration_cap: Optional[int] = None) -> PoissonGridReport:
    """Certified capacity sandwich of the Poisson channel, c_ub - c_lb <= epsilon.

    The output is folded at the smallest level M >= peak + dark current whose
    least truncation bound E over _TAIL_ORDERS is at most epsilon/10.
    Blahut-Arimoto then runs a posteriori on _GRID_INPUTS equispaced inputs
    over [0, peak] with rows W_M(.|x), and its final input p and output law
    q give both sides:

    * c_lb = I(p, W_M).  The fold maps y >= M to a uniform symbol below M
      whatever the input, a fixed garbling of the output, so by data
      processing I(p, W_M) <= I(p, W) <= C, with no -E term.
    * c_ub = sup_x D(W_M(.|x) || q) + E, Arimoto's bound for the continuum
      of inputs plus the truncation bound; the supremum comes from
      ``_certified_sup`` at tolerance epsilon/10.

    epsilon is split in tenths: E takes at most one, the supremum's
    allowance one, and Blahut-Arimoto stops at a gap of 8 tenths - E, which
    leaves a tenth for the rise of sup_x D over the grid's maximum (below
    1e-6 on the 0-14 dB sweep).  An ``iteration_cap`` that stops the solve
    first leaves a wider, still certified, sandwich (stop_reason "cap").
    The kernel floor of ``_kernel_floor_bound`` is checked at the least
    level and at M before any row is built, so a channel the curvature
    bound refuses costs no solve.
    """
    t0 = time.perf_counter()
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    base = poisson_channel(peak, dark_current)
    tenth = epsilon / 10.0
    _kernel_floor_bound(base, math.ceil(base.peak + base.dark_current))
    M, err_trunc, k = choose_truncation_level(base, tenth)
    _kernel_floor_bound(base, M)
    W = ChannelMatrix(_truncated_rows(base, np.linspace(0.0, base.peak, _GRID_INPUTS), M))
    ba = ba_solve(W, 8.0 * tenth - err_trunc, stopping="aposteriori",
                  iteration_cap=iteration_cap)
    lam = -np.log2(W.entries.T @ ba.p.weights)
    sup = _certified_sup(base, M, lam, tenth)
    return PoissonGridReport(
        peak=base.peak,
        dark_current=float(dark_current),
        M=M,
        tail_order=k,
        trunc_error=err_trunc,
        iterations=ba.iterations,
        stop_reason=ba.stop_reason,
        c_lb=ba.c_lb,
        c_ub=sup + err_trunc,
        lapidoth=lapidoth_lb(peak, dark_current),
        wall_time=time.perf_counter() - t0,
    )


def _peak_from_db(db: float) -> float:
    """A = 10^(dB/10); a power that overflows a float raises InvalidChannel."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise InvalidChannel(f"peak power {db!r} dB overflows a float") from None


def poisson_sweep(db_values, dark_current: float = 1.0, epsilon: float = 1e-3,
                  iteration_cap: Optional[int] = 30_000,
                  progress=None) -> list[dict]:
    """Certified capacity sandwich across peak powers given in dB (A = 10^(dB/10)).

    Each point is a ``solve_poisson_grid`` run, so every row's c_lb <= C <=
    c_ub is certified, with c_ub - c_lb <= epsilon unless the iteration cap
    stopped the Blahut-Arimoto solve first.  ``progress(db, report)`` is
    called after each point.
    """
    rows = []
    for db, peak in [(db, _peak_from_db(db)) for db in db_values]:
        rep = solve_poisson_grid(peak, dark_current, epsilon=epsilon,
                                 iteration_cap=iteration_cap)
        if progress is not None:
            progress(db, rep)
        rows.append({
            "A_dB": db,
            "M": rep.M,
            "iterations": rep.iterations,
            "c_lb": rep.c_lb,
            "c_ub": rep.c_ub,
            "E": rep.trunc_error,
            "lapidoth_lb": rep.lapidoth,
        })
    return rows
