"""Classical Blahut-Arimoto for DMC capacity, with or without an input cost.

Alternating update from the uniform input distribution: given p, set
q = W^T p and reweight p_i proportionally to p_i * exp(D(W(.|i) || q)).
In a priori mode, after n such iterations the iterate value I(p_n, W) is
within log2(N)/n of the capacity, which fixes the iteration count for a
requested accuracy.

Every iterate also carries Arimoto's upper bound: for any p,

    I(p, W) = sum_i p_i D(W(.|i) || q)  <=  C  <=  max_i D(W(.|i) || q),

so each run returns a two-sided certificate, and an a posteriori run stops
as soon as the two sides are within epsilon.  Because the sandwich holds at
any p, the a posteriori run is free to take the over-relaxed step
p_i proportional to p_i * exp(t * D_i) with t = 2 and to check the gap only
on a geometric ladder of iterations.  Unlike the dual solver's averaged
iterate, the gap of this sandwich is first order in the distance of p from
the capacity-achieving input, which makes BA the cheap way to estimate that
input.

With an average-cost constraint s . p <= S, each update (the same step,
under the same safeguard) is followed by the exponential cost tilt, so
every iterate is feasible, and the upper bound becomes the maximum of
sum_i p_i D_i over the affordable part of the simplex (Blahut, IEEE T-IT
18(4), 1972).

Each update, tilt included, is one call of the dual's smoothed input term
``info_theory._smoothed_input_term`` in nats: at the dual point
lambda = -ln q and smoothing nu = ln2/t, with log p as the log-weights, its
log-masses are log p + t*D, so its masses, gradient and log-sum-exp are the
next p, q = W^T p and the normaliser.  The loop makes no product with W of
its own except at a checkpoint, where the certificate needs D.

Uses: an independent cross-check of the dual smoothing solver; the start
of every a posteriori dual solve (cost-tilted with a cost), whose pair is
also half of that solve's certificate; and the certified Poisson grid
solve of ``continuous.solve_poisson_grid``.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, require_epsilon, require_sandwich
from .info_theory import (
    LN2,
    ChannelMatrix,
    CostConstraint,
    ProbVector,
    _affordable_budget,
    _entropy_bits,
    _input_term_work,
    _max_entropy_multipliers,
    _segment_lp_max,
    _smoothed_input_term,
    _softmax,
)


# Log of the output probability (1e-300) standing in for an underflowed q_j
# in the upper bound.
_LOG_Q_FLOOR = math.log(1e-300)

# Why a solve stopped: a checked iterate's certified gap reached epsilon, an
# a priori run completed its iteration count, or an a posteriori run (or any
# run whose count an iteration cap cut short) reached that count before its
# gap met epsilon.  Shared with the dual solver's SolveReport.
STOP_REASONS = ("gap<=eps", "apriori_n", "cap")

# Checkpoint ladder of the fast-gradient loop and of a posteriori
# Blahut-Arimoto: the certificate is evaluated at the loop index k with
# k + 1 = 10, then whenever k + 1 reaches ceil(1.25 * the previous rung), so
# a run that hits its cap checks about 4.5*ln(n/10) times.
_LADDER_FIRST = 10
_LADDER_GROWTH = 1.25

# Step length t of the a posteriori update log p += t * D (Matz & Duhamel,
# ITW 2004).  t = 1 is Blahut-Arimoto; t = 2 about halves the iterations on
# the Poisson grid, and the safeguard in ba_solve falls back to t = 1 when it
# stops paying: on inputs that each own a noiseless output, t = 2 maps the
# weights p_i to 1/p_i (normalised), a 2-cycle that never reaches the
# optimum.
_OVERRELAX = 2.0


def _next_checkpoint(due: int) -> int:
    """The ladder rung after ``due``."""
    return math.ceil(_LADDER_GROWTH * due)


@dataclass
class BAReport:
    c_lb: float
    c_ub: float
    apriori_err: float
    iterations: int
    p: ProbVector
    wall_time: float
    stop_reason: str = "gap<=eps"

    def __post_init__(self):
        require_sandwich(self.c_lb, self.c_ub, "BAReport")
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")


def ba_iterations(N: int, epsilon: float) -> int:
    """Iterations needed for an epsilon-accurate value: ceil(log2(N)/eps)."""
    require_epsilon(epsilon)
    return max(1, math.ceil(math.log2(N) / epsilon))


def ba_solve(W: ChannelMatrix, epsilon: float, stopping: str = "apriori",
             iteration_cap: Optional[int] = None,
             cost: Optional[CostConstraint] = None) -> BAReport:
    """Blahut-Arimoto capacity sandwich I(p) <= C <= max_i D(W(.|i) || W^T p).

    stopping="apriori" runs exactly ba_iterations(N, epsilon) plain updates
    log p += D, after which c_lb is within apriori_err = log2(N)/n of the
    capacity.  stopping="aposteriori" takes the over-relaxed step
    log p += 2 D and evaluates the certificate at iteration 0, at the
    iterations k with k + 1 on the checkpoint ladder it shares with the dual
    solver (10, 13, 17, ...) and at the last iteration; it stops at the
    first checkpoint whose certified gap c_ub - c_lb is at most epsilon (the
    a priori count stays the hard cap).  If c_lb rose less over a rung than
    one plain step from the previous checkpoint is sure to gain, Phi(logp +
    D)/ln2 - I(p) (Phi the log-sum-exp, or that of the cost tilt, with
    Phi(logp) = 0), a fall included, the iterate saved there is restored
    and the run finishes with plain steps.  The log2(N)/n rate
    holds only for plain steps from the uniform start, so in this mode
    apriori_err is the certified gap c_ub - c_lb, which bounds C - c_lb
    just as well.  An ``iteration_cap`` (an integer >= 1)
    below the a priori count stops the run there instead, and
    ``stop_reason`` then reads "cap" unless the gap was met.  Zero channel
    entries are fine (0*log 0 terms vanish); the KL exponents are
    accumulated in nats and max-shifted before exponentiation.  All values
    are in bits.

    With a ``cost`` (a posteriori only; a priori raises ValueError) the run
    certifies the capacity-cost value max {I(p) : s . p <= budget} (Blahut,
    IEEE T-IT 18(4), 1972).  Each step is followed by the cost tilt of
    ``_max_entropy_multipliers``, whose multiplier starts from the previous
    iterate's; the tilt composes, so p = exp(logp + m2 (u - b) - Phi), u
    and b the costs and budget rescaled to [0, 1], and no log p or log 0
    is ever taken.  The tilt
    aims at ``_affordable_budget``, so every iterate spends at most the
    budget (all of it, to within the multiplier solve's tolerance, when the
    tilt binds): c_lb = I(p) is feasible, and
    c_ub = max {sum_i p'_i D_i : p' in the simplex, s . p' <= budget}, the
    LP ``_segment_lp_max`` of the dual's exact constrained G, bounds
    every feasible I(p') because I(p') <= sum_i p'_i D(W(.|i) || q) for any
    output law q.
    """
    if stopping not in ("apriori", "aposteriori"):
        raise ValueError(f"unknown stopping mode {stopping!r}")
    if iteration_cap is not None:
        try:
            iteration_cap = operator.index(iteration_cap)
        except TypeError:
            raise ValueError(f"iteration_cap must be an integer, got {iteration_cap!r}") from None
        if iteration_cap < 1:
            raise ValueError(f"iteration_cap must be >= 1, got {iteration_cap!r}")
    if cost is not None and stopping != "aposteriori":
        raise ValueError("a cost constraint needs stopping='aposteriori'")
    t0 = time.perf_counter()
    N = W.rows
    s = spend = None
    if cost is not None:
        s, budget = cost.costs, cost.budget
        if s.size != N:
            raise DimensionMismatch("cost vector length must equal channel rows")
        spend = _affordable_budget(s, budget)
    n_apriori = ba_iterations(N, epsilon)
    n = n_apriori if iteration_cap is None else min(n_apriori, iteration_cap)
    Wm = W.entries
    ent = -W.neg_ent  # row entropies in nats, the term's r

    # One step is one input-term call (see the module docstring): lam holds
    # -ln q, logp is bound as the log-weights and p, q are the term's work.
    lam = np.zeros(W.cols)
    logp = np.full(N, -math.log(N))
    work = _input_term_work(Wm, ent, logp)
    logmass, p, q = work[:3]
    watch = stopping == "aposteriori"
    step = _OVERRELAX if watch else 1.0
    nu = math.inf  # t = 0: the first call is the uniform start
    m2 = 0.0
    # The over-relaxed iterate at its last checkpoint, restored if it stalls.
    kept_logp, kept_lam = np.empty(N), np.empty(W.cols)
    kept_lb, kept_gain = -math.inf, 0.0
    due = _LADDER_FIRST
    it = 0
    while True:
        # p is the softmax of logp + t*D, or its cost tilt (which composes);
        # shifted by the normaliser Phi of either, logp has Phi(logp) = 0.
        phi, _, _, m2 = _smoothed_input_term(Wm, ent, lam, nu, logp, s, spend, m2, out=work)
        np.subtract(logmass, phi, out=logp)
        nz = None
        if q[q.argmin()] > 0.0:
            np.log(q, out=lam)
            np.negative(lam, out=lam)
        else:
            # Columns with q_j = 0 have W_ij = 0 wherever p_i > 0, so lam_j = 0
            # adds nothing to the next step.
            lam.fill(0.0)
            nz = q > 0.0
            lam[nz] = -np.log(q[nz])
        if it == n or (watch and (it == 0 or it + 1 == due)):
            if it + 1 == due:
                due = _next_checkpoint(due)
            c_lb = float(-(W.r @ p) + _entropy_bits(q))
            div = Wm @ lam - ent
            bound = div
            if nz is not None:
                # Outputs with a positive entry whose every feeding p_i
                # underflowed have q_j = 0, so the dropped terms
                # W_ij ln(W_ij / q_j) are infinite.  Arimoto's bound holds for
                # any output law: raise those q_j to 1e-300, which adds less
                # than M * 1e-300 of mass.
                lost = (Wm > 0.0).any(axis=0) & ~nz
                if lost.any():
                    bound = Wm @ np.where(lost, -_LOG_Q_FLOOR, lam) - ent
            if cost is None:
                c_ub = float(bound.max()) / LN2
            else:
                c_ub = _segment_lp_max(bound, s, budget) / LN2
            if it == n or c_ub - c_lb <= epsilon:
                break
            if step != 1.0:
                if c_lb - kept_lb < kept_gain:
                    # Over the last rung the over-relaxed steps gained less
                    # than one plain step from the checkpoint before is sure
                    # to: go back there and finish with plain steps.
                    np.copyto(logp, kept_logp)
                    np.copyto(lam, kept_lam)
                    step = 1.0
                else:
                    np.copyto(kept_logp, logp)
                    np.copyto(kept_lam, lam)
                    kept_lb = c_lb
                    # A plain step p' = p exp(D + m'u)/Z' (m' the tilt's change)
                    # has I(p') = ln Z' - m' u.p' + KL(p' || p) - D(q' || q) >=
                    # ln Z' - m'b = Phi(logp + D), as u.p' = b while the tilt
                    # binds, and u.p' <= b with m' >= 0 once it stops.
                    phi = (_softmax(logp + div)[0] if cost is None
                           else _max_entropy_multipliers(logp + div, s, spend, m2)[0])
                    kept_gain = max(phi / LN2 - c_lb, 0.0)
        nu = LN2 / step
        it += 1

    if stopping == "aposteriori" and c_ub - c_lb <= epsilon:
        stop_reason = "gap<=eps"
    elif stopping == "apriori" and n == n_apriori:
        stop_reason = "apriori_n"
    else:
        stop_reason = "cap"
    return BAReport(
        c_lb=c_lb,
        c_ub=c_ub,
        apriori_err=c_ub - c_lb if watch else math.log2(N) / max(it, 1),
        iterations=it,
        p=ProbVector(p),
        wall_time=time.perf_counter() - t0,
        stop_reason=stop_reason,
    )
