"""Channel constructors and the perturbation wrapper for singular channels.

Channels with zero entries violate the strict-positivity assumption of the
dual solver.  The wrapper replaces every zero by a small epsilon, renormalizes
the rows, solves the perturbed channel, and corrects both capacity bounds by
the continuity-of-capacity penalty evaluated at a sound upper bound on the
channel-difference norm, so the returned sandwich still certifies the
original channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dual_solver import SolveReport, solve_capacity
from .errors import InvalidChannel, require_sandwich
from .info_theory import (
    ChannelMatrix,
    CostConstraint,
    channel_diff_norm,
    continuity_capacity_bound,
)


def make_bsc(p: float) -> ChannelMatrix:
    """Binary symmetric channel with crossover probability p."""
    if not 0.0 <= p <= 1.0:
        raise InvalidChannel(f"crossover probability {p!r} outside [0, 1]")
    return ChannelMatrix([[1.0 - p, p], [p, 1.0 - p]])


def make_bec(alpha: float) -> ChannelMatrix:
    """Binary erasure channel with erasure probability alpha (2 inputs, 3 outputs)."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidChannel(f"erasure probability {alpha!r} outside [0, 1]")
    return ChannelMatrix([[1.0 - alpha, alpha, 0.0], [0.0, alpha, 1.0 - alpha]])


def make_random(N: int, M: int, seed: int) -> ChannelMatrix:
    """Random channel: i.i.d. uniform entries, rows normalized.

    Uses the counter-based Philox 4x64-10 generator keyed by the seed, so
    matrices are bit-identical across platforms and runs.
    """
    if N < 1 or M < 1:
        raise InvalidChannel("alphabet sizes must be positive")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    V = rng.random((N, M))
    return ChannelMatrix(V / V.sum(axis=1, keepdims=True))


def make_awgn_quantized(sigma: float, boundaries, input_grid) -> ChannelMatrix:
    """Gaussian-noise channel with a quantized output.

    Row i holds the probabilities that input_grid[i] + N(0, sigma^2) falls in
    each quantizer cell; `boundaries` are the strictly increasing interior
    cell edges, and the outer cells absorb the tails, so every row sums to 1
    exactly.
    """
    if sigma <= 0:
        raise InvalidChannel("sigma must be positive")
    b = np.asarray(boundaries, dtype=float)
    x = np.asarray(input_grid, dtype=float)
    if b.ndim != 1 or b.size < 1 or np.any(np.diff(b) <= 0):
        raise InvalidChannel("boundaries must be strictly increasing")
    if x.ndim != 1 or x.size < 1:
        raise InvalidChannel("input grid must be a non-empty 1-D array")
    from scipy.special import ndtr  # imported here: only awgnq: channels need scipy

    # cdf[i, k] = P(X_i + noise <= b_k); pad with 0 and 1 so rows telescope to 1.
    cdf = ndtr((b[None, :] - x[:, None]) / sigma)
    full = np.concatenate(
        [np.zeros((x.size, 1)), cdf, np.ones((x.size, 1))], axis=1
    )
    return ChannelMatrix(np.diff(full, axis=1))


def perturb_channel(W: ChannelMatrix, eps: float) -> ChannelMatrix:
    """Replace every zero entry by eps and renormalize the rows.

    Channels with no zero entries are returned unchanged.  The result always
    has gamma >= eps / (1 + M*eps) > 0.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    E = W.entries
    zeros = E == 0.0
    if not zeros.any():
        return W
    E = E.copy()
    E[zeros] = eps
    return ChannelMatrix(E / E.sum(axis=1, keepdims=True))


@dataclass
class PerturbedSolve:
    """Capacity sandwich for a singular channel via the perturbation method."""

    epsilon_perturb: float
    delta_norm_ub: float
    correction: float
    inner: SolveReport
    c_lb: float
    c_ub: float

    def __post_init__(self):
        require_sandwich(self.c_lb, self.c_ub, "PerturbedSolve")


def solve_with_perturbation(W: ChannelMatrix, eps: float, epsilon: float,
                            cost: Optional[CostConstraint] = None,
                            stopping: str = "apriori",
                            progress=None) -> PerturbedSolve:
    """Solve a (possibly singular) channel through its perturbed companion.

    The inner solve runs on the perturbed channel; both bounds are then
    widened by the continuity penalty at the sound norm upper bound, giving
    a valid sandwich for the original channel.  Channels that already have
    gamma > 0 get a zero correction and reduce to a plain solve.
    """
    W2 = perturb_channel(W, eps)
    delta = channel_diff_norm(W, W2)
    correction = continuity_capacity_bound(delta, W.rows, W.cols)
    inner = solve_capacity(W2, cost=cost, epsilon=epsilon, stopping=stopping,
                           progress=progress)
    return PerturbedSolve(
        epsilon_perturb=eps,
        delta_norm_ub=delta,
        correction=correction,
        inner=inner,
        c_lb=inner.c_lb - correction,
        c_ub=inner.c_ub + correction,
    )


def parse_channel_spec(spec: str) -> ChannelMatrix:
    """Build a channel from a CLI spec string.

    Supported forms: "bsc:p", "bec:alpha", "random:N,M,seed", "file:path",
    and "awgnq:sigma,bins,A" (bins input levels evenly spaced on [-A, A],
    bins quantizer cells with interior edges evenly spaced on [-A, A]).
    """
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise InvalidChannel(f"channel spec {spec!r} missing ':'")
    try:
        if kind == "bsc":
            return make_bsc(float(arg))
        if kind == "bec":
            return make_bec(float(arg))
        if kind == "random":
            n, m, seed = arg.split(",")
            return make_random(int(n), int(m), int(seed))
        if kind == "file":
            return ChannelMatrix.from_file(arg)
        if kind == "awgnq":
            sigma_s, bins_s, a_s = arg.split(",")
            sigma, bins, amp = float(sigma_s), int(bins_s), float(a_s)
            if bins < 2 or amp <= 0:
                raise InvalidChannel("awgnq needs bins >= 2 and A > 0")
            grid = np.linspace(-amp, amp, bins)
            edges = np.linspace(-amp, amp, bins + 1)[1:-1]
            return make_awgn_quantized(sigma, edges, grid)
    except InvalidChannel:
        raise
    except (ValueError, OSError) as exc:
        raise InvalidChannel(f"bad channel spec {spec!r}: {exc}") from exc
    raise InvalidChannel(f"unknown channel kind {kind!r}")
