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
grid.  The paper's sandwich combines the primal value, the dual value and
the truncation penalty:

    2*I - (F+G) - E  <=  C  <=  2*(F+G) - I + E.

Every pair rests on two facts.  The fold is a garbling of the output, so
I(p, W_M) <= C for any input p, with no -E.  And for any lambda,
F(lambda) + sup_x f_lambda(x) + E >= C, with the supremum over the whole input
interval certified by chord bounds on cells of a scan, each with a lower
bound on f'' over its cell.  With G that certified supremum,
weak duality gives I <= F + G, so the paper's sandwich is a certificate too
and contains the pair [I, F + G + E]; the pinned dual solve reports both at
its final iterate.  The sweep takes the pair from Blahut-Arimoto on a
uniform input grid, where it is Arimoto's bound sup_x D(W_M(.|x) || q) + E.
Like every bound in the package, the supremum is certified for f as
computed in floating point.  A classical explicit lower bound is reported
next to both.

All values are in bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc, gammaln, xlogy

from .blahut_arimoto import ba_solve
from .dual_solver import _fast_gradient, ball_radius, eval_F
from .errors import (
    AssumptionViolated,
    InvalidChannel,
    InvalidOrder,
    NeedLargerM,
    require_epsilon,
    require_sandwich,
)
from .info_theory import LN2, ChannelMatrix, _neg_xlogx_nats, _smoothed_input_term

_GL_ORDER = 8

# Quadrature nodes of the Poisson solve's default grid, before node doubling.
_QUAD_NODES = 512

# The most kernel rows one block of a sup scan builds at once (one
# 16,385-row scan raised a sweep's peak resident memory from 84 MB to 109 MB).
_SCAN_BLOCK = 8193

# Allowance of the certified supremum in the pinned solve, about the rounding
# of f itself (|f| is near 11 at the reference runs, where one ulp is 1.8e-15).
_SUP_TOL = 1e-14


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


# ---------------------------------------------------------------------------
# Truncation


@dataclass
class TruncatedChannel:
    """M-truncated channel on a fixed quadrature grid over [0, peak].

    Kept rows get the folded tail: W_M(i|x) = W(i|x) + tail(x)/M for i < M.
    ``gamma_M`` is the positive lower bound on min_{x,i} W_M(i|x) of
    ``_kernel_floor_bound``.
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


def _kernel_floor_bound(base: PoissonChannel, M: int) -> float:
    """gamma = gammainc(M, eta)/M, a lower bound on every entry of W_M.

    W_M(i|x) >= tail(x)/M >= tail(0)/M, as the tail grows with the mean.
    Refuses (AssumptionViolated) a channel without dark current and a level
    whose gamma underflows.  gamma falls as M grows, so a refusal at one
    level holds for every larger one.
    """
    eta = base.dark_current
    if eta <= 0.0:
        raise AssumptionViolated(
            "the truncated kernel has no positive floor without dark current: "
            "the dark current must be positive")
    gamma = float(gammainc(float(M), eta)) / M
    if gamma <= 0.0:
        raise AssumptionViolated(
            f"gammainc(M, eta)/M underflows at M = {M}: no kernel floor for "
            f"peak {base.peak:g}"
        )
    return gamma


def truncate(base: PoissonChannel, M: int, quad_nodes: int = _QUAD_NODES) -> TruncatedChannel:
    """Fold the output tail onto {0..M-1} and fix the integration grid.

    The kernel floor is checked before any row is built.
    """
    if M < 1:
        raise InvalidChannel("truncation level M must be >= 1")
    gamma = _kernel_floor_bound(base, M)
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
        gamma_M=gamma,
        nodes=nodes,
        weights=weights,
        kernel_nodes=K,
        r_nodes=r,
    )


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
# Smoothed dual term on the grid


def eval_G_nu_continuous(lam, trunc: TruncatedChannel, nu: float
                         ) -> tuple[float, np.ndarray, np.ndarray]:
    """Smoothed input term, its gradient, and the optimal density on the grid.

    The integrals run over the truncation's fixed Gauss-Legendre grid: the
    nodes are the inputs of the discrete smoothed term, each with the log of
    its quadrature weight added to its exponent, so the gradient integrates
    the kernel against the returned density and sums to 1.
    """
    if not 0.0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    lam = np.asarray(lam, dtype=float)
    lse, grad, mass, _ = _smoothed_input_term(trunc.kernel_nodes, trunc.r_nodes, lam, nu,
                                              np.log(trunc.weights))
    return float(nu * lse / LN2 - nu * math.log2(trunc.base.peak)), grad, mass / trunc.weights


def _converged_truncation(trunc: TruncatedChannel, nu: float, lam: np.ndarray
                          ) -> tuple[TruncatedChannel, bool]:
    """Double the grid until the smoothed value at lam stabilizes.

    Returns the finest grid tried and whether it stabilized.  An unresolved
    grid only loosens the resulting sandwich (the primal value is the exact
    mutual information of the atomic input supported on the nodes, and the
    dual value is weak duality at the computed iterate), so callers may
    legitimately continue with converged=False.
    """
    value = eval_G_nu_continuous(lam, trunc, nu)[0]
    for _ in range(4):
        tol = 1e-9 * (1.0 + abs(value))
        cand = truncate(trunc.base, trunc.M, 2 * trunc.nodes.size)
        v2 = eval_G_nu_continuous(lam, cand, nu)[0]
        if abs(v2 - value) <= tol:
            return trunc, True
        trunc, value = cand, v2
    return trunc, False


def _f_scan(base: PoissonChannel, M: int, lam: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """f(x) = W_M(.|x) . lam - H(W_M(.|x)) in bits at each x, built in row blocks.

    With lam = -log2 q, f(x) is the divergence D(W_M(.|x) || q).
    """
    f = np.empty(xs.size)
    for lo in range(0, xs.size, _SCAN_BLOCK):
        f[lo:lo + _SCAN_BLOCK] = _f_rows(_truncated_rows(base, xs[lo:lo + _SCAN_BLOCK], M), lam)
    return f


def _f_rows(K: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """f of ``_f_scan`` at the inputs whose rows W_M(.|x) are the rows of K."""
    return K @ lam - _neg_xlogx_nats(K).sum(axis=1) / LN2


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
    trunc_error: float       # E at (M, tail_order)
    mutual_info: float       # I(p_hat, W_M) of the atomic input on the nodes
    dual_value: float        # F(lambda_hat) + g_sup
    g_sup: float             # certified upper bound on sup_x f_lambda_hat(x)
    c_lb: float              # 2 I - dual_value - E
    c_ub: float              # 2 dual_value - I + E
    c_lb_certified: float    # I, as the fold garbles the output
    c_ub_certified: float    # dual_value + least E over _TAIL_ORDERS and tail_order
    lapidoth: float
    gamma_M: float
    quad_nodes: int
    quadrature_converged: bool
    wall_time: float

    def __post_init__(self):
        require_sandwich(self.c_lb, self.c_ub, "PoissonReport")
        require_sandwich(self.c_lb_certified, self.c_ub_certified, "PoissonReport (certified)")


def _solve_truncated(trunc: TruncatedChannel, nu: float, n: int,
                     progress=None) -> tuple[np.ndarray, float]:
    """Fast-gradient solve of the smoothed dual on the quadrature grid.

    Runs n + 1 steps and returns (lambda_hat, I(p_hat)).  A ``progress``
    callback gets the certificate on the default checkpoint ladder; its
    upper bounds use the vertex maximum of f_lambda over the nodes.
    """
    _, lam_hat, _, mutual, _ = _fast_gradient(
        trunc.kernel_nodes, trunc.r_nodes, np.log(trunc.weights),
        ball_radius(trunc.M, trunc.gamma_M), nu, n, None, None,
        lambda lam: float(trunc.f_values(lam).max()), None, progress,
    )
    return lam_hat, mutual


def solve_poisson(peak: float, dark_current: float = 1.0, *, M: int, iterations: int,
                  nu: float, tail_order: float = 0.5, progress=None) -> PoissonReport:
    """The paper's Poisson capacity sandwich at a pinned M, iteration count and nu.

    This is the reproduction path: the truncation level, the fast-gradient
    iteration count and the smoothing parameter are the caller's, as in the
    published reference runs.  ``solve_poisson_grid`` is the auto-tuned,
    certified path.  Both pairs rest on dual_value = F(lambda_hat) + g_sup,
    with g_sup the certified supremum of ``refined_sup_f`` at allowance
    _SUP_TOL, so I(p_hat, W_M) <= dual_value by weak duality.  The primary
    pair is the paper's doubled sandwich with E at ``tail_order``.  The
    certified pair inside it is I(p_hat, W_M) below, as the fold garbles
    the output, and dual_value plus the least E over _TAIL_ORDERS and
    ``tail_order`` above, each E bounding the truncation error.  The only
    constraint is the peak, which is the input interval.  A level M whose
    truncation error bound is infinite (the closed-form tail overflows), or
    whose kernel floor ``_kernel_floor_bound`` refuses, is refused with
    AssumptionViolated before any grid is built.
    """
    t0 = time.perf_counter()
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations!r}")
    if not 0.0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    base = poisson_channel(peak, dark_current)
    err_trunc = truncation_error_bound(base, M, tail_order)
    if math.isinf(err_trunc):
        # Every pair would be infinite: refuse before the grid is built.
        tails = ", ".join(f"R_{k:g}({M}) = {tail_Rk(base, M, k):g}" for k in (1.0, tail_order))
        raise AssumptionViolated(
            f"truncation error bound is infinite at M = {M} ({tails}): "
            "the closed-form tail bound overflows, so no finite sandwich exists"
        )

    trunc, quad_ok = _converged_truncation(truncate(base, M, _QUAD_NODES), nu, np.zeros(M))
    lam_hat, mutual = _solve_truncated(trunc, nu, iterations, progress=progress)

    Fv, _ = eval_F(lam_hat)
    g_sup = refined_sup_f(base, M, lam_hat, _SUP_TOL)
    err_least = min(err_trunc, *(truncation_error_bound(base, M, k) for k in _TAIL_ORDERS))

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
        c_lb=c_lb,
        c_ub=c_ub,
        c_lb_certified=mutual,
        c_ub_certified=dual_value + err_least,
        lapidoth=lapidoth_lb(peak, dark_current),
        gamma_M=trunc.gamma_M,
        quad_nodes=trunc.nodes.size,
        quadrature_converged=quad_ok,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Certified Blahut-Arimoto sandwich on a uniform input grid (the sweep's path)

# Tail orders whose truncation bounds the certified upper sides take the least
# of, and the size of the uniform input grid the sweep's Blahut-Arimoto solve
# and the certified supremum's first scan run on.
_TAIL_ORDERS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
_GRID_INPUTS = 513

# Cells of that grid that share one curvature bound in ``refined_sup_f``
# (it divides _GRID_INPUTS - 1).
_CURVATURE_CELLS = 16


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


def _curvature_bounds(base: PoissonChannel, M: int, lam: np.ndarray,
                      edges: np.ndarray) -> np.ndarray:
    """L[k] >= sup of -f'' over [edges[k], edges[k+1]] for the Poisson f of ``_f_scan``.

    With W(j) = W(j|x) (zero for j < 0), W_M(i) = W(i) + T/M and
    T = P(Y >= M | x), write f = sum_i W_M(i) c_i with c_i = lam_i +
    log2 W_M(i).  As sum_i W_M'(i) = 0,

        f'' = sum_i W_M''(i) c_i + sum_i W_M'(i)^2 / (W_M(i) ln 2).

    The second sum is >= 0, and only a bound on -f'' is needed (see
    ``refined_sup_f``), so it drops out.  As sum_i W_M''(i) = 0 too, the
    first sum equals sum_i W_M''(i) (c_i - cbar) for any constant cbar, so
    on a cell

        -f'' <= sum_i U_i (half_i + |mid_i - cbar|),

    with U_i >= |W_M''(i)| and [mid_i - half_i, mid_i + half_i] containing
    c_i on the whole cell; cbar is the U-weighted mean of mid.  The pieces:

    * The Poisson identities W'(j) = W(j-1) - W(j) and T' = W(M-1) give
      W''(i) = W(i-2) - 2 W(i-1) + W(i) and T'' = W(M-2) - W(M-1), so
      U_i = Wt(i-2) + 2 Wt(i-1) + Wt(i) + (Wt(M-2) + Wt(M-1))/M, where
      Wt(j) = W(j | clip(j - eta, a, b)) is the sup of W(j|x) over the cell
      [a, b]: the pmf is unimodal in its mean x + eta, with its mode at j.
    * T rises with the mean and W(i|x) is least at an end of the cell, so
      min(W(i|a), W(i|b)) + T(a)/M <= W_M(i|x) <= Wt(i) + T(b)/M; c_i lies
      between the log2 of the two ends.  The left end is at least the
      kernel floor gamma of ``_kernel_floor_bound``, which refuses a channel
      without dark current, where that end is 0 on the cell at x = 0.

    In the tails U_i is tiny exactly where |c_i - cbar| is large, so the
    bound stays near the curvature itself: 0.6 to 14 over groups of 16 grid
    cells on the 0-17 dB sweep, where -f'' stays below 0.1.  A bound over
    the whole interval would grow like max lam - min lam + log2(1/gamma).
    """
    _kernel_floor_bound(base, M)
    j = np.arange(M)
    top = np.zeros((edges.size - 1, M + 2))  # Wt(j) for j = -2, ..., M-1
    top[:, 2:] = base.kernel(np.clip(j - base.dark_current, edges[:-1, None], edges[1:, None]), j)
    U = top[:, :-2] + 2.0 * top[:, 1:-1] + top[:, 2:] + ((top[:, -2] + top[:, -1]) / M)[:, None]
    ends = base.kernel(edges[:, None], j)
    tails = base.tail_mass(edges, M)[:, None] / M
    lo = np.log2(np.minimum(ends[:-1], ends[1:]) + tails[:-1])
    hi = np.log2(top[:, 2:] + tails[1:])
    mid, half = lam + 0.5 * (hi + lo), 0.5 * (hi - lo)
    cbar = (U * mid).sum(axis=1) / U.sum(axis=1)
    return (U * (half + np.abs(mid - cbar[:, None]))).sum(axis=1)


def refined_sup_f(base: PoissonChannel, M: int, lam: np.ndarray, tol: float,
                  grid_rows: Optional[np.ndarray] = None) -> float:
    """Upper bound on sup over [0, peak] of the f of ``_f_scan``, within tol of the scan.

    On a cell [a, b] of width h where f'' >= -L, the chord bound gives
    f <= max(f(a), f(b)) + L h^2/8: with l the chord through the ends,
    g = f - l - (L/2)(x - a)(b - x) has g'' = f'' + L >= 0 and g(a) = g(b)
    = 0, so g <= 0 on the cell and f <= l + L h^2/8.  Only a lower bound on
    f'' enters.  The scan starts on the cells of the _GRID_INPUTS-point
    input grid, with L from ``_curvature_bounds`` on groups of
    _CURVATURE_CELLS of them, and halves every cell whose bound still
    exceeds the largest f seen plus tol, until none is left; the result is
    the largest bound of any cell kept.  A half keeps its parent's L, which
    bounds -f'' on any part of the cell.  Halving only the cells left spends
    the scan where f comes within the allowance of its maximum.  The bound
    holds for f as computed here in floating point: an evaluation blocked
    otherwise may differ by the rounding of the M-term sum, up to about
    M eps (max|lam| + log2(1/gamma)), which exceeds a 1e-14 allowance once
    |lam| reaches the hundreds.

    tol must be positive and finite and lam finite (ValueError): at
    tol <= 0 the halving never ends, and an inf or NaN in lam makes a
    cell's L NaN, which fails every comparison, so the cell would drop out.
    A caller that holds the grid's rows ``_truncated_rows(base, grid, M)``
    may pass them as grid_rows, and the first scan reads f from them; the
    result is the same bit for bit.
    """
    require_epsilon(tol)
    if not np.isfinite(lam).all():
        raise ValueError("lam must be finite")
    h = base.peak / (_GRID_INPUTS - 1)
    x = np.linspace(0.0, base.peak, _GRID_INPUTS)
    L = np.repeat(_curvature_bounds(base, M, lam, x[::_CURVATURE_CELLS]), _CURVATURE_CELLS)
    f = _f_scan(base, M, lam, x) if grid_rows is None else _f_rows(grid_rows, lam)
    best = float(f.max())
    left, fl, fr = x[:-1], f[:-1], f[1:]
    sup = -math.inf
    while True:
        bound = np.maximum(fl, fr) + L * (h * h / 8.0)
        hot = bound > best + tol
        sup = max(sup, float(bound[~hot].max(initial=-math.inf)))
        if not hot.any():
            return sup
        h /= 2.0
        left, fl, fr, L = left[hot], fl[hot], fr[hot], L[hot]
        mid = _f_scan(base, M, lam, left + h)
        best = max(best, float(mid.max()))
        left = np.concatenate([left, left + h])
        fl, fr = np.concatenate([fl, mid]), np.concatenate([mid, fr])
        L = np.concatenate([L, L])


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
      ``refined_sup_f`` at tolerance epsilon/10.

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
    require_epsilon(epsilon)
    base = poisson_channel(peak, dark_current)
    tenth = epsilon / 10.0
    _kernel_floor_bound(base, math.ceil(base.peak + base.dark_current))
    M, err_trunc, k = choose_truncation_level(base, tenth)
    _kernel_floor_bound(base, M)
    rows = _truncated_rows(base, np.linspace(0.0, base.peak, _GRID_INPUTS), M)
    W = ChannelMatrix(rows)
    ba = ba_solve(W, 8.0 * tenth - err_trunc, stopping="aposteriori",
                  iteration_cap=iteration_cap)
    lam = -np.log2(W.entries.T @ ba.p.weights)
    sup = refined_sup_f(base, M, lam, tenth, rows)
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
    stopped the Blahut-Arimoto solve first: the row's stop_reason is then
    "cap" rather than "gap<=eps".  ``progress(db, report)`` is called after
    each point.
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
            "stop_reason": rep.stop_reason,
            "c_lb": rep.c_lb,
            "c_ub": rep.c_ub,
            "E": rep.trunc_error,
            "lapidoth_lb": rep.lapidoth,
        })
    return rows
