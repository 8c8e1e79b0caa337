"""Classical Blahut-Arimoto baseline for unconstrained DMC capacity.

Alternating update from the uniform input distribution: given p, set
q = W^T p and reweight p_i proportionally to p_i * exp(D(W(.|i) || q)).
After n iterations the iterate value I(p_n, W) is within log2(N)/n of the
capacity, which fixes the iteration count for a requested accuracy.

Every iterate also carries Arimoto's upper bound: for any p,

    I(p, W) = sum_i p_i D(W(.|i) || q)  <=  C  <=  max_i D(W(.|i) || q),

so each run returns a two-sided certificate, and an a posteriori run stops
as soon as the two sides are within epsilon.  Unlike the dual solver's
averaged iterate, the gap of this sandwich is first order in the distance
of p from the capacity-achieving input, which makes BA the cheap way to
estimate that input (the S_max pre-solve of a cost-constrained dual solve).

Used as an independent cross-check of the dual smoothing solver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import require_sandwich
from .info_theory import LN2, ChannelMatrix, ProbVector, _entropy_bits


# Log of the output probability (1e-300) standing in for an underflowed q_j
# in the upper bound.
_LOG_Q_FLOOR = math.log(1e-300)

# Why a solve stopped: a checked iterate's certified gap reached epsilon, an
# a priori run completed its iteration count, or an a posteriori run (or any
# run whose count an iteration cap cut short) reached that count before its
# gap met epsilon.  Shared with the dual solver's SolveReport.
STOP_REASONS = ("gap<=eps", "apriori_n", "cap")


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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return max(1, math.ceil(math.log2(N) / epsilon))


def ba_solve(W: ChannelMatrix, epsilon: float, stopping: str = "apriori",
             iteration_cap: Optional[int] = None) -> BAReport:
    """Blahut-Arimoto capacity sandwich I(p) <= C <= max_i D(W(.|i) || W^T p).

    stopping="apriori" runs exactly ba_iterations(N, epsilon) updates, after
    which c_lb is within apriori_err = log2(N)/n of the capacity;
    stopping="aposteriori" also stops at the first iterate whose certified
    gap c_ub - c_lb is at most epsilon (the a priori count stays the hard
    cap).  An ``iteration_cap`` below the a priori count stops the run there
    instead, and ``stop_reason`` then reads "cap" unless the gap was met.
    Zero channel entries are fine (0*log 0 terms vanish); the KL
    exponents are accumulated in nats and max-shifted before
    exponentiation.  All values are in bits.
    """
    if stopping not in ("apriori", "aposteriori"):
        raise ValueError(f"unknown stopping mode {stopping!r}")
    if iteration_cap is not None and iteration_cap < 1:
        raise ValueError(f"iteration_cap must be >= 1, got {iteration_cap!r}")
    t0 = time.perf_counter()
    N = W.rows
    n_apriori = ba_iterations(N, epsilon)
    n = n_apriori if iteration_cap is None else min(n_apriori, iteration_cap)
    Wm = W.entries
    wlogw = np.zeros_like(Wm)
    mask = Wm > 0.0
    wlogw[mask] = Wm[mask] * np.log(Wm[mask])
    row_neg_ent = wlogw.sum(axis=1)  # sum_j W_ij ln W_ij
    reachable = mask.any(axis=0)

    # Work vectors, allocated once and overwritten by every iterate.
    logp = np.full(N, -math.log(N))
    p = np.empty(N)
    q = np.empty(W.cols)
    logq = np.empty(W.cols)
    div = np.empty(N)
    it = 0
    while True:
        np.subtract(logp, np.maximum.reduce(logp), out=p)
        np.exp(p, out=p)
        p /= np.add.reduce(p)
        np.dot(Wm.T, p, out=q)
        nz = None
        if np.minimum.reduce(q) > 0.0:
            np.log(q, out=logq)
        else:
            logq.fill(0.0)
            nz = q > 0.0
            logq[nz] = np.log(q[nz])
        # D_i = sum_j W_ij ln(W_ij / q_j); columns with q_j = 0 have W_ij = 0
        # wherever p_i > 0, so the zeroed logq entries contribute nothing to
        # the update.
        np.dot(Wm, logq, out=div)
        np.subtract(row_neg_ent, div, out=div)
        if it == n or stopping == "aposteriori":
            c_lb = float(-(W.r @ p) + _entropy_bits(q))
            bound = div
            if nz is not None and not nz[reachable].all():
                # Every p_i feeding a reachable output underflowed, so q_j = 0
                # there and the dropped terms W_ij ln(W_ij / q_j) are infinite.
                # Arimoto's bound holds for any output law: raise those q_j
                # to 1e-300, which adds less than M * 1e-300 of mass.
                bound = row_neg_ent - Wm @ np.where(reachable & ~nz, _LOG_Q_FLOOR, logq)
            c_ub = float(bound.max()) / LN2
            if it == n or c_ub - c_lb <= epsilon:
                break
        logp += div
        logp -= np.maximum.reduce(logp)
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
        apriori_err=math.log2(N) / max(it, 1),
        iterations=it,
        p=ProbVector(p),
        wall_time=time.perf_counter() - t0,
        stop_reason=stop_reason,
    )
