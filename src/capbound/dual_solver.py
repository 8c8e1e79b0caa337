"""Dual smoothing solver for discrete memoryless channel capacity.

The capacity problem max_p I(p, W) (optionally with an average-cost
constraint s^T p <= S) is attacked through its Lagrange dual

    min_{lambda in Q}  F(lambda) + G(lambda),

where F(lambda) = log2 sum_j 2^(-lambda_j) is the smooth output-entropy term,
G(lambda) = max_p { (W lambda - r)^T p : p feasible } is the non-smooth input
term (feasible: p in the simplex, with s^T p <= S under a cost), and Q is
the centered euclidean ball of radius R = M * max(log2(1/gamma), 1/ln2)
that is known to contain a dual optimizer whenever every channel entry is
positive (gamma > 0, "Assumption 1").

G is replaced by the entropy-smoothed G_nu (uniform approximation within
nu*log2(N)), making the objective gradient Lipschitz with constant
L_nu = 1 + 1/nu, and the resulting smooth problem is driven by the optimal
fast-gradient scheme.  Averaged primal iterates give a feasible input
distribution p_hat, so every run returns a certified sandwich

    I(p_hat, W)  <=  C  <=  F(lambda_hat) + G(lambda_hat),

where the upper bound uses the *exact* G (a vertex maximum, or a 1-D
parametric LP over the affordable part of the simplex).  The smoothing
needs only a closed convex input set, so the entropy prox, L_nu, the
nu*log2(N) error and the ball radius hold unchanged with a cost.

An a posteriori solve starts at a certified Blahut-Arimoto point p, whose
pair I(p) <= C <= F(x_0) + G(x_0) (x_0 the Arimoto point of p) bounds the
same capacity.  The solve reports the intersection of that pair with the
dual's own, each side with the input or dual point that attains it, so
the sandwich above holds for the reported p_hat and lambda_hat.

All values are in bits.  Exponentials are always evaluated in the natural
base after max-shifting, so that no intermediate exponent is positive; the
lambda iterates themselves stay in bit scale so the constants above apply
verbatim.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blahut_arimoto import _LADDER_FIRST, STOP_REASONS, _next_checkpoint, ba_solve
from .errors import (
    AssumptionViolated,
    CertificateViolated,
    DimensionMismatch,
    require_epsilon,
    require_sandwich,
)
from .info_theory import (
    LN2,
    ChannelMatrix,
    CostConstraint,
    ProbVector,
    _affordable_budget,
    _cost_range,
    _entropy_bits,
    _max_entropy_multipliers,
    _segment_lp_max,
    _softmax,
)


# ---------------------------------------------------------------------------
# Dual domain


@dataclass(frozen=True)
class DualPoint:
    """A dual vector constrained to the ball of the given radius."""

    values: np.ndarray
    radius: float

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if np.linalg.norm(v) > self.radius + 1e-9:
            raise ValueError(
                f"dual point norm {np.linalg.norm(v)!r} exceeds radius {self.radius!r}"
            )


def ball_radius(M: int, gamma: float) -> float:
    """M * max(log2(1/gamma), 1/ln2): dual-ball radius for M outputs, min entry gamma."""
    return M * max(math.log2(1.0 / gamma), 1.0 / LN2)


def dual_radius(W: ChannelMatrix) -> float:
    """Radius of the ball known to contain a dual optimizer."""
    if W.gamma <= 0.0:
        raise AssumptionViolated(
            "Assumption 1 violated: channel matrix has zero entries (gamma = 0); "
            "use the perturbation wrapper (perturb-solve)"
        )
    return ball_radius(W.cols, W.gamma)


def smoothing_constants(W: ChannelMatrix) -> tuple[float, float]:
    """(d1, d2) = (half squared dual-ball radius, log2 N)."""
    r = dual_radius(W)
    return 0.5 * r * r, math.log2(W.rows)


def _as_values(lam) -> np.ndarray:
    if isinstance(lam, DualPoint):
        return lam.values
    return np.asarray(lam, dtype=float)


def project_ball(x: np.ndarray, radius: float, inplace: bool = False) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius.

    By default ``x`` is never changed: a point inside the ball is returned
    as given and one outside as a new array.  With ``inplace`` (``x`` a
    float array) a point outside is scaled in place and ``x`` is returned.
    """
    if not inplace:
        x = np.asarray(x, dtype=float)
    n = math.sqrt(x.dot(x))
    if n <= radius or n == 0.0:
        return x
    return np.multiply(x, radius / n, out=x if inplace else None)


# ---------------------------------------------------------------------------
# Dual objective pieces


def eval_F(lam) -> tuple[float, np.ndarray]:
    """Smooth dual term F(lambda) = log2 sum_j 2^(-lambda_j) and its gradient.

    The gradient is minus the softmax of -lambda (it sums to -1).
    """
    lse, p = _softmax(-_as_values(lam) * LN2)
    return float(lse / LN2), -p


# Bytes of K per row block of the smoothed input term: a block stays in a
# 2 MB L2 cache between its two products.
_BLOCK_BYTES = 1 << 20


def _input_term_work(K: np.ndarray, r: np.ndarray, logw: Optional[np.ndarray] = None,
                     grad: Optional[np.ndarray] = None) -> tuple:
    """Work arrays of ``_smoothed_input_term`` over K, to allocate once per solve.

    (log-masses, masses, K^T mass, block log-sum-exps, block gradients,
    blocks): vectors of sizes N, N, M (``grad`` when given) and B, a B x M
    array, and for each of the B row blocks of ``_BLOCK_BYTES`` of K (at
    least one row) the views (K_b, K_b^T, r_b, logw_b, log-masses_b,
    masses_b, block gradient_b).  With one block, its gradient row is the
    gradient itself.
    """
    N, M = K.shape
    logmass, mass = np.empty(N), np.empty(N)
    grad = np.empty(M) if grad is None else grad
    rows = max(1, _BLOCK_BYTES // (8 * M))
    starts = range(0, N, rows)
    parts = grad[None] if len(starts) == 1 else np.empty((len(starts), M))
    blocks = [(K[i:i + rows], K[i:i + rows].T, r[i:i + rows],
               None if logw is None else logw[i:i + rows], logmass[i:i + rows],
               mass[i:i + rows], part) for i, part in zip(starts, parts)]
    return logmass, mass, grad, np.empty(len(starts)), parts, blocks


def _smoothed_input_term(K: np.ndarray, r: np.ndarray, lam: np.ndarray, nu: float,
                         logw: Optional[np.ndarray] = None,
                         s: Optional[np.ndarray] = None,
                         budget: Optional[float] = None,
                         m2: float = 0.0,
                         out: Optional[tuple] = None
                         ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Smoothed input term over inputs with log-weights: (Phi, K^T mass, mass, m2).

    Input k carries the log-mass (K lambda - r)_k ln2/nu + logw_k (logw is 0
    for a discrete channel and the log quadrature weight on a grid).  The
    masses are their softmax, tilted by the cost multiplier m2 <= 0 when
    ``s`` is given so that s . mass <= budget, and Phi is their
    log-normaliser at the budget (``_max_entropy_multipliers``; the
    log-sum-exp of the log-masses without a cost), so
    G_nu = nu*Phi/ln2 - nu*log2(total weight).  The multiplier solve
    starts from the given ``m2``; the solved m2 is returned.

    One loop walks K in row blocks and forms their log-masses.  Without a
    cost, K is read once: each block also takes their softmax in place,
    with log-sum-exp lse_b, and its gradient K_b^T mass_b while the block
    is still in cache.  The softmax of the lse_b then gives the
    log-sum-exp of all log-masses and the block weights exp(lse_b - lse),
    which merge the block gradients in one product and scale each block's
    masses.  A K that fits in one block takes one product each way and one
    softmax.  With a cost, the multiplier solve needs every log-mass, so it
    follows the loop with one product K^T mass: K is read twice.  K should
    be C-ordered (``ChannelMatrix`` stores it so), or its row blocks are
    strided.  ``out`` is ``_input_term_work(K, r, logw)``, whose arrays
    receive the results in place; without it every call allocates its own.
    """
    logmass, mass, grad, lses, parts, blocks = _input_term_work(K, r, logw) if out is None else out
    scale = LN2 / nu
    for b, (Kb, KbT, rb, wb, lb, mb, part) in enumerate(blocks):
        np.dot(Kb, lam, out=lb)
        lb -= rb
        lb *= scale
        if wb is not None:
            lb += wb
        if s is None:
            lse = lses[b] = _softmax(lb, out=mb)[0]
            np.dot(KbT, mb, out=part)
    if s is not None:
        lse, m2, mass = _max_entropy_multipliers(logmass, s, budget, m2, out=mass)
        return lse, np.dot(K.T, mass, out=grad), mass, m2
    if b == 0:
        return lse, grad, mass, m2
    lse, weight = _softmax(lses, out=lses)
    np.dot(weight, parts, out=grad)
    for (_, _, _, _, _, mb, _), w in zip(blocks, weight):
        mb *= w
    return lse, grad, mass, m2


def eval_G_nu_unconstrained(lam, W: ChannelMatrix, nu: float
                            ) -> tuple[float, np.ndarray, ProbVector]:
    """Smoothed input term G_nu(lambda), its gradient W^T p_nu, and p_nu.

    G_nu(lambda) = nu*log2 sum_i 2^((W lambda - r)_i / nu) - nu*log2(N); the
    maximizer p_nu is the softmax of the shifted exponents.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    lse, grad, p, _ = _smoothed_input_term(W.entries, W.r, _as_values(lam), nu)
    return float(nu * lse / LN2 - nu * math.log2(W.rows)), grad, ProbVector(p)


def eval_G_nu_constrained(lam, W: ChannelMatrix, nu: float, cost: CostConstraint
                          ) -> tuple[float, np.ndarray, ProbVector]:
    """Smoothed input term under the cost constraint s . p <= budget.

    The optimizer is the tilted max-entropy density from the multiplier
    solve (the untilted one when that is affordable); the value is
    nu*Phi/ln2 - nu*log2(N) with Phi the solve's log-normaliser at the
    budget, which avoids any 0*log(0) evaluation.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    lse, grad, p, _ = _smoothed_input_term(W.entries, W.r, _as_values(lam), nu,
                                           s=cost.costs, budget=cost.budget)
    return float(nu * lse / LN2 - nu * math.log2(W.rows)), grad, ProbVector(p)


# ---------------------------------------------------------------------------
# Exact (non-smoothed) G for a posteriori certificates


def exact_G_unconstrained(lam, W: ChannelMatrix) -> float:
    """G(lambda) = max_i (W lambda - r)_i: linear over the simplex, vertex max."""
    lam = _as_values(lam)
    return float((W.entries @ lam - W.r).max())


def exact_G_constrained(lam, W: ChannelMatrix, cost: CostConstraint) -> float:
    """G(lambda) over {p in simplex : s^T p <= budget}.

    The LP max f^T p is the largest f_i when an input attaining it is
    affordable, and otherwise the upper concave envelope of the points
    (s_i, f_i) evaluated at the budget; O(N log N).
    """
    lam = _as_values(lam)
    f = W.entries @ lam - W.r
    return _segment_lp_max(f, cost.costs, cost.budget)


# ---------------------------------------------------------------------------
# Iteration schedules


def scheduled_iterations(epsilon: float, d1: float, d2: float) -> int:
    """Smallest n whose a priori gap bound is at most epsilon.

    Solves 4*sqrt(d1*d2)/(n+1) + 4*d1/(n+1)^2 = epsilon for n+1 (a quadratic)
    and rounds up.
    """
    require_epsilon(epsilon)
    t = (2.0 / epsilon) * (math.sqrt(d1 * d2) + math.sqrt(d1 * d2 + epsilon * d1))
    return max(1, math.ceil(t - 1.0))


def apriori_error_bound(n: int, d1: float, d2: float) -> float:
    """Gap bound 4*sqrt(d1*d2)/(n+1) + 4*d1/(n+1)^2 after n iterations."""
    return 4.0 * math.sqrt(d1 * d2) / (n + 1) + 4.0 * d1 / (n + 1) ** 2


# ---------------------------------------------------------------------------
# Fast gradient scheme


class FastGradientState:
    """Iterate bookkeeping for the optimal scheme on a centered ball, in place.

    Per step k, starting from x_0 = c, the prox-centre (the ball centre 0,
    or a ``centre`` inside the ball), with grad_k = gG_k - pF_k:
        y_k = proj(x_k - grad_k/L)
        z_k = proj(c - (1/L) * sum_{i<=k} (i+1)/2 * grad_i)
        x_{k+1} = 2/(k+3) * z_k + (k+1)/(k+3) * y_k
    The two rows of the 2 x M state ``S`` are x_k and c - gsum_{k-1}/L.
    ``step`` takes the stacked gradient pieces HE = [gG_k; pF_k] and forms
    both unprojected points at once,
        T = C_k HE + S,   C_k = [[-1/L, 1/L], [-(k+1)/(2L), (k+1)/(2L)]],
    keeps T's second row as the new S[1], projects the rows of T onto the
    ball (y_k and z_k) and writes x_{k+1} = [(k+1)/(k+3), 2/(k+3)] T into
    S[0]: two matrix products, one add, one copy and two projections per
    step.  The arrays are allocated once; ``step`` returns y_k, the same
    array (a row of ``T``) every step, and ``x`` is the row S[0].
    """

    def __init__(self, dim: int, radius: float, lipschitz: float,
                 centre: Optional[np.ndarray] = None):
        self.radius = radius
        self.L = lipschitz
        self.S = np.zeros((2, dim))
        if centre is not None:
            self.S[:] = centre
        self._T = np.empty((2, dim))
        self._C = np.array([[-1.0 / lipschitz, 1.0 / lipschitz], [0.0, 0.0]])
        self._w = np.empty(2)
        # Row views, bound once so that a step indexes no array.
        self.x, self._c_gsum = self.S
        self._y, self._z = self._T
        self.k = 0

    def step(self, HE: np.ndarray) -> np.ndarray:
        k, C, w, T, y, z = self.k, self._C, self._w, self._T, self._y, self._z
        h = (k + 1) / (2.0 * self.L)
        C[1, 0] = -h
        C[1, 1] = h
        np.dot(C, HE, out=T)
        T += self.S
        np.copyto(self._c_gsum, z)
        project_ball(y, self.radius, inplace=True)
        project_ball(z, self.radius, inplace=True)
        w[0] = (k + 1) / (k + 3)
        w[1] = 2.0 / (k + 3)
        np.dot(w, T, out=self.x)
        self.k = k + 1
        return y


def _fast_gradient(K: np.ndarray, r: np.ndarray, logw: Optional[np.ndarray],
                   radius: float, nu: float, n: int,
                   s: Optional[np.ndarray], budget: Optional[float],
                   exact_G: Callable[[np.ndarray], float],
                   target: Optional[float],
                   progress: Optional[ProgressFn],
                   centre: Optional[np.ndarray] = None,
                   start: tuple[float, float] = (-math.inf, math.inf)):
    """Fast-gradient solve of the smoothed dual over inputs with log-weights.

    Runs steps k = 0..n on F + G_nu (see ``_smoothed_input_term``) from the
    prox-centre ``centre`` (the ball centre when None) and averages the
    input masses with weights k+1.  The certificate
    I(mass_hat) <= C <= F(y) + exact_G(y) is evaluated when a ``target`` gap
    or a ``progress`` callback is given, on the geometric ladder of
    ``blahut_arimoto._next_checkpoint``, and always at step n.  Every
    checkpoint is a full certificate, and so is its intersection with the
    ``start`` pair (lb_0, ub_0), another certificate of the same capacity:
    the run stops at step n or at the first checkpoint where
    min(c_ub, ub_0) - max(c_lb, lb_0) is at most ``target``, and
    ``progress`` sees that intersection.  With a cost, each step's
    multiplier solve starts from the previous step's m2.  The work vectors
    are allocated once per solve and every step writes into them.  Returns
    (k, y, mass_hat, c_lb, c_ub), the solve's own pair at the last
    checkpoint; y and mass_hat belong to this solve alone.
    """
    N, M = K.shape
    state = FastGradientState(M, radius, 1.0 + 1.0 / nu, centre)
    acc = np.zeros(N)
    # The step's stacked gradient pieces: row 0 takes grad G_nu = K^T mass,
    # row 1 the softmax of -x ln2 (minus grad F).
    HE = np.empty((2, M))
    work = _input_term_work(K, r, logw, HE[0])
    weighted = np.empty(N)
    pF = HE[1]
    watch = target is not None or progress is not None
    due = _LADDER_FIRST
    m2 = 0.0
    lb_0, ub_0 = start
    x = state.x
    for k in range(n + 1):
        _, _, mass, m2 = _smoothed_input_term(K, r, x, nu, logw, s, budget, m2, out=work)
        np.multiply(x, -LN2, out=pF)  # bit for bit -x * LN2
        _softmax(pF, out=pF)
        np.multiply(mass, float(k + 1), out=weighted)
        acc += weighted
        y = state.step(HE)

        if k == n or (watch and k + 1 == due):
            due = _next_checkpoint(due)
            mass_hat = acc * (2.0 / ((k + 1) * (k + 2)))
            q_hat = K.T @ mass_hat
            c_lb = float(-(r @ mass_hat) + _entropy_bits(q_hat))
            Fv, _ = eval_F(y)
            c_ub = Fv + exact_G(y)
            lb, ub = max(c_lb, lb_0), min(c_ub, ub_0)
            if progress is not None:
                progress(k, lb, ub, ub - lb)
            if k == n or (target is not None and ub - lb <= target):
                break
    return k, y, mass_hat, c_lb, c_ub


# ---------------------------------------------------------------------------
# Capacity solve


@dataclass
class SolveReport:
    """Certified capacity sandwich produced by one dual-smoothing solve."""

    c_lb: float
    c_ub: float
    apriori_err: float
    aposteriori_err: float
    iterations: int
    p_hat: ProbVector
    lambda_hat: DualPoint
    wall_time: float
    nu: float
    constrained: bool = False
    stop_reason: str = "gap<=eps"
    warm_start_iterations: int = 0
    # The fast-gradient solve's own pair (I(averaged masses), F + G at its
    # last y); c_lb and c_ub when not given.
    dual_c_lb: Optional[float] = None
    dual_c_ub: Optional[float] = None

    def __post_init__(self):
        if self.dual_c_lb is None:
            self.dual_c_lb = self.c_lb
        if self.dual_c_ub is None:
            self.dual_c_ub = self.c_ub
        require_sandwich(self.c_lb, self.c_ub, "SolveReport")
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        if not self.aposteriori_err >= -1e-9:
            raise CertificateViolated(
                f"SolveReport: negative a posteriori gap {self.aposteriori_err!r}"
            )


ProgressFn = Callable[[int, float, float, float], None]


def solve_capacity(W: ChannelMatrix,
                   cost: Optional[CostConstraint] = None,
                   epsilon: float = 1e-3,
                   stopping: str = "aposteriori",
                   progress: Optional[ProgressFn] = None) -> SolveReport:
    """Run the smoothed dual fast-gradient solve on a positive channel.

    stopping="apriori" runs exactly the scheduled number of iterations for
    the requested epsilon; stopping="aposteriori" uses the same smoothing but
    stops at the first checkpoint whose measured duality gap is below
    epsilon (the schedule length is a hard cap, so termination is
    guaranteed).  A cost constraint bounds C(S) = max {I(p) : s . p <= S}.
    It enters the solve when its budget is below the largest cost
    (report.constrained is True); a larger budget affords every input and
    is dropped.  A constrained solve tilts its masses to
    ``_affordable_budget``, so p_hat never overspends the budget.

    An a posteriori solve starts at a Blahut-Arimoto point: certified BA to
    epsilon/3 (cost-tilted, ``ba_solve(..., cost=cost)``, with a cost)
    gives an input p, and x_0 = -log2(W^T p), shifted to mean 0, is both
    the first iterate and the prox-centre; there F(x_0) + G(x_0) is BA's
    upper bound at p (Arimoto's max_i D(W_i || W^T p), or its hull LP over
    the affordable inputs).  BA's own pair (I(p) and that bound, as BA
    computed them) and the dual's own pair (report.dual_c_lb, report.dual_c_ub) bound the same
    capacity, so report.c_lb is the larger lower side, with p_hat the input
    attaining it (p or the averaged masses), and report.c_ub the smaller
    upper side, with lambda_hat the point attaining it (x_0 or the last y).
    The run stops at the first checkpoint where that intersection's gap is
    at most epsilon; as BA has certified epsilon/3, that is the first rung.
    report.warm_start_iterations counts the BA iterations spent on the
    start.  A run that certifies to rounding (c_lb above c_ub by at most
    1e-9) reports c_lb = c_ub.  A priori solves start at x_0 = 0, the ball
    centre, with warm_start_iterations 0, and report the dual's own pair.

    The certificate is checked on a geometric ladder of step counts (10, 13,
    17, 22, ..., each ceil(1.25 * the previous)); an a priori solve without
    a progress callback checks only at its last step.
    report.stop_reason says why the run stopped (see STOP_REASONS).
    """
    if stopping not in ("apriori", "aposteriori"):
        raise ValueError(f"unknown stopping mode {stopping!r}")
    require_epsilon(epsilon)
    if W.gamma <= 0.0:
        raise AssumptionViolated(
            "Assumption 1 violated: channel matrix has zero entries (gamma = 0); "
            "use the perturbation wrapper (perturb-solve)"
        )

    if cost is not None:
        s = cost.costs
        if s.size != W.rows:
            raise DimensionMismatch("cost vector length must equal channel rows")
        _, smax = _cost_range(s, cost.budget)  # Infeasible below the cheapest cost
        if cost.budget >= smax:
            cost = None
    return _solve_core(W, cost, epsilon, stopping, progress)


def _arimoto_point(W: ChannelMatrix, p: ProbVector) -> np.ndarray:
    """-log2(W^T p) shifted to mean 0, where F + G is max_i D(W_i || W^T p).

    F + G does not change when lambda moves by a constant, and q_j >= gamma
    puts every entry within log2(1/gamma) of the others, inside the ball.
    """
    x = -np.log2(W.entries.T @ p.weights)
    x -= x.mean()
    return x


def _solve_core(W: ChannelMatrix,
                cost: Optional[CostConstraint],
                epsilon: float,
                stopping: str,
                progress: Optional[ProgressFn]) -> SolveReport:
    t0 = time.perf_counter()
    N, M = W.rows, W.cols

    if N == 1 or M == 1:
        # Degenerate alphabets: capacity is exactly zero, and the cheapest
        # input meets any feasible budget.
        p = ProbVector.uniform(N) if cost is None \
            else ProbVector.point_mass(N, int(np.argmin(cost.costs)))
        lam = DualPoint(np.zeros(M), 0.0)
        return SolveReport(0.0, 0.0, 0.0, 0.0, 0, p, lam,
                           time.perf_counter() - t0, nu=math.inf,
                           constrained=False, stop_reason="gap<=eps")

    radius = dual_radius(W)
    d1, d2 = smoothing_constants(W)
    n_eps = scheduled_iterations(epsilon, d1, d2)
    nu = (2.0 / (n_eps + 1)) * math.sqrt(d1 / d2)
    if cost is None:
        s = budget = None
        exact_G = lambda y: exact_G_unconstrained(y, W)
    else:
        # Aim below the budget by the multiplier tolerance: the averaged
        # masses never overspend, so I(p_hat) bounds C(budget) from below.
        s, budget = cost.costs, _affordable_budget(cost.costs, cost.budget)
        exact_G = lambda y: exact_G_constrained(y, W, cost)
    centre, warm, start = None, 0, (-math.inf, math.inf)
    if stopping == "aposteriori":
        ba = ba_solve(W, epsilon / 3.0, stopping="aposteriori", cost=cost)
        # BA's pair: I(p) and Arimoto's bound at p, which is F + G at x_0.
        centre, warm, start = _arimoto_point(W, ba.p), ba.iterations, (ba.c_lb, ba.c_ub)
        # The a priori bound takes max over the ball of |lambda - x_0|^2 / 2.
        d1 = 0.5 * (radius + math.sqrt(centre.dot(centre))) ** 2

    k, y, p_hat, dual_c_lb, dual_c_ub = _fast_gradient(
        W.entries, W.r, None, radius, nu, n_eps, s, budget, exact_G,
        epsilon if stopping == "aposteriori" else None, progress, centre, start,
    )
    # Both pairs bound the same capacity: report their intersection, each
    # side with the point that attains it.
    c_lb, c_ub = dual_c_lb, dual_c_ub
    if start[0] > c_lb:
        c_lb, p_hat = start[0], ba.p.weights
    if start[1] < c_ub:
        c_ub, y = start[1], centre
    if stopping == "aposteriori" and c_ub < c_lb <= c_ub + 1e-9:
        # A certificate to rounding: I(p_hat) and F + G round apart.
        # Lowering a lower bound keeps it sound.
        c_lb = c_ub
    apriori = nu * d2 + 4.0 * d1 * (1.0 + 1.0 / nu) / (k + 1) ** 2
    if stopping == "apriori":
        stop_reason = "apriori_n"
    else:
        stop_reason = "gap<=eps" if k < n_eps else "cap"
    return SolveReport(
        c_lb=c_lb,
        c_ub=c_ub,
        apriori_err=apriori,
        aposteriori_err=c_ub - c_lb,
        iterations=k,
        p_hat=ProbVector(np.maximum(p_hat, 0.0)),
        lambda_hat=DualPoint(y, radius),
        wall_time=time.perf_counter() - t0,
        nu=nu,
        constrained=cost is not None,
        stop_reason=stop_reason,
        warm_start_iterations=warm,
        dual_c_lb=dual_c_lb,
        dual_c_ub=dual_c_ub,
    )

