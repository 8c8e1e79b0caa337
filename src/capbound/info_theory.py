"""Exact, numerically safe information-theoretic primitives.

All public quantities are in bits.  Internally every log/exp goes through
the natural base with a single ln(2) rescaling, and 0*log(0) is resolved by
branching (masking), never by adding an epsilon: entries below 1e-300 are
treated as exact zeros.

Everything here is a pure function over immutable inputs (the arrays inside
``ChannelMatrix``/``ProbVector`` are marked read-only), so concurrent use
from multiple threads is safe; only ``_softmax``,
``_max_entropy_multipliers`` and ``_smoothed_input_term`` write, into the
``out`` arrays their caller passes.  ``_smoothed_input_term`` without a cost
on a K of more than one row block may share its blocks with one worker
thread, started by the first call that shares them in each process,
including a forked child, while timed calls show that sharing is faster; a
call made while another thread's call has the worker takes all its blocks
itself, as does every call when the process may run on one CPU only.  The
solvers share these kernels:
``_smoothed_input_term`` (the O(NM) pass over the channel, with its cost
tilt) is every step of the dual's fast-gradient loop, of its quadrature
solve and of Blahut-Arimoto, and ``_segment_lp_max`` (the linear program
over the affordable part of the simplex) bounds both solvers' certificates
under a cost.
"""

from __future__ import annotations

import bisect
import collections
import io
import itertools
import math
import os
import threading
import time
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, Infeasible, InvalidChannel, NewtonStall

LN2 = math.log(2.0)

# Below this magnitude a probability is treated as an exact zero.
ZERO_FLOOR = 1e-300

# Row sums within SUM_TOL of 1 are accepted as-is; within RENORM_TOL they are
# renormalized (file round-off); beyond that the matrix is rejected.
SUM_TOL = 1e-12
RENORM_TOL = 1e-9

# Iteration cap of the cost-multiplier Newton solve, and its tolerance on
# s . mass - budget, relative to the cost range max s - min s.
_MU_NEWTON_MAX_ITER = 200
_COST_TOL = 1e-11


def _neg_xlogx_nats(w: np.ndarray) -> np.ndarray:
    """Elementwise -w*ln(w) with the 0*log(0)=0 convention."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    mask = w > ZERO_FLOOR
    out[mask] = -w[mask] * np.log(w[mask])
    return out


def _entropy_bits(w: np.ndarray) -> float:
    return float(_neg_xlogx_nats(w).sum() / LN2)


def _softmax(a: np.ndarray, out: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    """Log-sum-exp of a (natural log) and softmax(a), max-shifted so no exponent exceeds 0.

    With ``out`` (which may be ``a``) the softmax is computed in place there.
    The max is read as ``a[a.argmax()]``, which is exact and NaN when ``a``
    holds a NaN, as ``np.maximum.reduce`` is, and cheaper on short vectors.
    """
    m = a[a.argmax()]
    e = np.subtract(a, m, out=out)
    np.exp(e, out=e)
    s = np.add.reduce(e)
    e /= s
    return m + math.log(s), e


def _cost_range(s: np.ndarray, budget: float) -> tuple[float, float]:
    """(min s, max s), once some input is affordable: raises Infeasible otherwise.

    The budget may fall short of the cheapest cost by rounding, 1e-12 of
    the costs' scale max(|min s|, max s - min s), so that the test means
    the same at every cost scale.
    """
    smin, smax = float(s.min()), float(s.max())
    if budget < smin - 1e-12 * max(abs(smin), smax - smin):
        raise Infeasible(f"budget {budget!r} below minimum attainable cost {smin!r}")
    return smin, smax


def _max_entropy_multipliers(logmass: np.ndarray, s: np.ndarray, budget: float,
                             start: float = 0.0, out: Optional[np.ndarray] = None
                             ) -> tuple[float, float, np.ndarray]:
    """Newton solve for the cost multiplier of the tilted max-entropy problem.

    The costs and the budget are rescaled to the cost range,
    u = (s - min s)/(max s - min s) and b likewise, so that the solve does
    not depend on the scale of the costs.  It maximizes
    m1 + b*m2 - sum_k exp(m1 + logmass_k + m2*u_k)  over m1 and m2 <= 0; at
    the optimum the masses exp(m1 + logmass_k + m2 u_k) sum to 1 and spend
    s . mass <= budget, with equality unless m2 = 0.  The normalization
    multiplier m1 is eliminated in closed form (its coordinate maximization
    is a log-sum-exp), leaving a 1-D strictly concave problem in m2.  The
    mean cost rises with m2, so m2 = 0 (the untilted softmax) when that is
    affordable, and otherwise the root of mean cost = budget, which lies
    below 0.  The root is found by bracketed Newton with bisection
    fallback, so convergence does not depend on the size of the tilts
    (exponent ranges of ~1e3 occur routinely for small nu).  The bracket
    is [start, 0] when the start (clipped to 0) is affordable, and
    otherwise grows down from it by doubling steps; the first Newton step
    is taken from the start, so a start near the root (the previous
    fast-gradient step's m2) saves most of the work.
    A budget within the solver tolerance of the cheapest cost is that end
    point: the masses are the softmax of the log-masses over every input
    whose cost is at most the budget (the cheapest alone for a budget just
    below it), with m2 pinned to 0, so they spend at most the budget.  So
    is a budget at or above the dearest cost, whose face is every input.
    Returns Phi = log sum_k exp(logmass_k + m2*(u_k - b)) = -(m1 + m2*b),
    m2 and the masses, these in ``out`` when it is given.
    """
    smin, smax = _cost_range(s, budget)
    if budget - smin <= _COST_TOL * (smax - smin) or budget >= smax:
        face = s <= max(budget, smin)
        lognorm, mass = _softmax(np.where(face, logmass, -np.inf), out=out)
        return lognorm, 0.0, mass

    buf = np.empty_like(logmass) if out is None else out
    u = (s - smin) / (smax - smin)
    uu = u * u
    b = (budget - smin) / (smax - smin)

    def moments(m2):
        np.multiply(u, m2, out=buf)
        np.add(buf, logmass, out=buf)
        lognorm, mass = _softmax(buf, out=buf)
        mean = float(u @ mass)
        var = float(uu @ mass) - mean * mean
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
                raise NewtonStall("cost multiplier bracket expansion diverged")
    else:
        if m2 < 0.0:
            hi = 0.0
            mean, _, lognorm, mass = moments(hi)
        if mean <= b:
            return lognorm, 0.0, mass

    m2 = first if lo < first < hi else 0.5 * (lo + hi)
    for _ in range(_MU_NEWTON_MAX_ITER):
        mean, var, lognorm, mass = moments(m2)
        g = mean - b
        if abs(g) <= _COST_TOL:
            return lognorm - m2 * b, m2, mass
        if g > 0:
            hi = m2
        else:
            lo = m2
        cand = m2 - g / var if var > 0 else math.nan
        m2 = cand if lo < cand < hi else 0.5 * (lo + hi)
    mean, var, lognorm, mass = moments(m2)
    if abs(mean - b) <= 100 * _COST_TOL:
        return lognorm - m2 * b, m2, mass
    raise NewtonStall(
        f"cost multiplier Newton solve stalled (residual {abs(mean - b):.3e} of the cost range)"
    )


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
    for a dual step on a channel, the log quadrature weight on a grid and
    log p in a Blahut-Arimoto step).  The
    masses are their softmax, tilted by the cost multiplier m2 <= 0 when
    ``s`` is given so that s . mass <= budget, and Phi is their
    log-normaliser at the budget (``_max_entropy_multipliers``; the
    log-sum-exp of the log-masses without a cost), so
    G_nu = nu*Phi/ln2 - nu*log2(total weight).  The multiplier solve
    starts from the given ``m2``; the solved m2 is returned.

    K is walked in row blocks, each forming its log-masses.  Without a
    cost, K is read once: each block also takes their softmax in place,
    with log-sum-exp lse_b, and its gradient K_b^T mass_b while the block
    is still in cache (``_term_blocks``).  The blocks are independent, so
    this thread and a worker thread may claim them in turn from one
    counter, while timed calls show that this is faster than one thread
    (``_all_blocks``).  After the blocks are done, the softmax of the lse_b
    gives the log-sum-exp of all log-masses and the block weights
    exp(lse_b - lse), which merge the block gradients in one product, in
    block order, and scale each block's masses: the bits do not depend on
    which thread took which block.  A K that fits in one block takes one
    product each way and one softmax, in this thread.  With a cost, the
    multiplier solve needs every log-mass, so it follows a serial loop over
    the blocks, and one product K^T mass follows it: K is read twice.  K should
    be C-ordered (``ChannelMatrix`` stores it so), or its row blocks are
    strided.  ``out`` is ``_input_term_work(K, r, logw)``, whose arrays
    receive the results in place; without it every call allocates its own.

    Blahut-Arimoto calls it in nats, one call a step: with K = W, r the row
    entropies -sum_j W_ij ln W_ij, lam = -ln q and nu = ln2/t, the
    log-masses are logw + t*D_i with D_i = D(W_i || q), so the masses are
    the next p, K^T mass the next q and Phi the step's normaliser.  nu = inf
    (scale 0) gives the masses of logw alone.
    """
    logmass, mass, grad, lses, parts, blocks = _input_term_work(K, r, logw) if out is None else out
    scale = LN2 / nu
    if s is None:
        if len(blocks) == 1:
            _term_blocks(blocks, lam, scale, lses, range(1), _softmax)
            return lses[0], grad, mass, m2
        _all_blocks(blocks, lam, scale, lses, K.nbytes)
        lse, weight = _softmax(lses, out=lses)
        weight.dot(parts, out=grad)
        for (_, _, _, _, _, mb, _), w in zip(blocks, weight):
            mb *= w
        return lse, grad, mass, m2
    for Kb, _, rb, wb, lb, _, _ in blocks:
        Kb.dot(lam, out=lb)
        lb -= rb
        lb *= scale
        if wb is not None:
            lb += wb
    lse, m2, mass = _max_entropy_multipliers(logmass, s, budget, m2, out=mass)
    return lse, K.T.dot(mass, out=grad), mass, m2


def _term_blocks(blocks, lam: np.ndarray, scale: float, lses: np.ndarray, claims,
                 softmax=_softmax) -> None:
    """The unconstrained input term on each row block claimed from ``claims``.

    Block b of ``blocks`` (``_input_term_work``'s views) takes its log-masses
    (K_b lam - r_b)*scale + logw_b, their softmax in place with log-sum-exp
    ``lses[b]``, and its gradient K_b^T mass_b while the block is in cache.
    ``claims`` yields block numbers: a range over the blocks in one thread,
    or one ``itertools.count`` that the caller and the worker thread share,
    so that each takes the next block when it is free, until the numbers
    pass the last block.  The worker runs the ``softmax`` bound here, so
    that a tracer that replaces the module's ``_softmax`` sees the caller's
    calls only.
    """
    n = len(blocks)
    for b in claims:
        if b >= n:
            return
        Kb, KbT, rb, wb, lb, mb, part = blocks[b]
        Kb.dot(lam, out=lb)
        lb -= rb
        lb *= scale
        if wb is not None:
            lb += wb
        lses[b] = softmax(lb, out=mb)[0]
        KbT.dot(mb, out=part)


# The worker thread of ``_split_blocks``: (process id, job queue), started
# by the first split call in each process.  The lock is held by the one
# call that may split.  ``_paces`` keeps the seconds per byte of K of the
# last split calls (True) and of the last calls run in one thread (False),
# both measured under the lock, ``_last_way`` is the way of the last call
# under it, and ``_calls`` counts those calls.
_worker = None
_worker_lock = threading.Lock()
_paces = {True: collections.deque(maxlen=5), False: collections.deque(maxlen=5)}
_last_way = None
_calls = itertools.count()
# The first two of every this many calls under the lock take the
# slower-looking way, so that its pace follows the host's load.
_PROBE_EVERY = 32


def _serve(jobs: SimpleQueue) -> None:
    """The worker: runs ``_term_blocks(*args)`` for each (args, done) job.

    It then puts the error, or None, on ``done``.  Any error, an interrupt
    too, goes to the caller, which raises it.  A job's arguments are let go
    before ``done`` is given, so that once its call returns the worker holds
    nothing of that call's K, lam or blocks.
    """
    while True:
        args, done = jobs.get()
        try:
            _term_blocks(*args)
            error = None
        except BaseException as exc:
            error = exc
        del args
        done.put(error)
        del done, error


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_pays() -> bool:
    """Whether the next call under the lock splits its blocks.

    It splits when the median of the last split paces is at most that of
    the last one-thread paces; a way with no pace yet counts as free.  The
    first two of every ``_PROBE_EVERY`` calls take the other way, so that a
    way that lost under one load is timed again under the next.
    """
    split, alone = (sorted(p)[len(p) // 2] if p else 0.0 for p in (_paces[True], _paces[False]))
    return (split <= alone) != (next(_calls) % _PROBE_EVERY < 2)


def _all_blocks(blocks, lam: np.ndarray, scale: float, lses: np.ndarray, nbytes: int) -> None:
    """``_term_blocks`` over every block, in this thread or split with the worker.

    A split pays only while the worker gets a CPU of its own: on a busy
    host the two threads queue for CPUs and for the interpreter lock, and a
    call takes longer than in one thread.  So each call under the lock is
    timed, per byte of K (``nbytes``), and ``_split_pays`` picks the faster
    way from those times.  A call's pace is kept only when the call before
    it took the same way: the first split call after calls in one thread
    waits for the idle worker to wake, and took as long as one thread.  The
    blocks run here alone, untimed, when the process may use one CPU, or
    while another thread's call holds the lock.
    """
    global _last_way
    if _cpus() < 2 or not _worker_lock.acquire(blocking=False):
        _term_blocks(blocks, lam, scale, lses, range(len(blocks)), _softmax)
        return
    try:
        split = _split_pays()
        t0 = time.perf_counter()
        if split:
            _split_blocks(blocks, lam, scale, lses)
        else:
            _term_blocks(blocks, lam, scale, lses, range(len(blocks)), _softmax)
        if split == _last_way:
            _paces[split].append((time.perf_counter() - t0) / nbytes)
        _last_way = split
    finally:
        _worker_lock.release()


def _split_blocks(blocks, lam: np.ndarray, scale: float, lses: np.ndarray) -> None:
    """``_term_blocks`` over every block, split between this thread and the worker.

    Both claim blocks from one counter, so a worker that gets no CPU leaves
    its share to this thread.  A job the worker has not begun by the time
    this thread has run out of blocks is taken back from its queue.
    Otherwise this thread waits on the call's own completion queue until
    the worker has finished the block in its hands, or found none left,
    also when its own blocks raise or an interrupt arrives in the wait; it
    then raises the first error, its own or the worker's.
    """
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        _worker = os.getpid(), SimpleQueue()
        threading.Thread(target=_serve, args=(_worker[1],), name="capbound-blocks",
                         daemon=True).start()
    jobs, claims, done, error = _worker[1], itertools.count(), SimpleQueue(), None
    jobs.put(((blocks, lam, scale, lses, claims), done))
    try:
        _term_blocks(blocks, lam, scale, lses, claims, _softmax)
    except BaseException as exc:
        error = exc
    try:
        jobs.get_nowait()
    except Empty:
        while True:
            try:
                worker_error = done.get()
                break
            except BaseException as exc:
                error = error or exc
        error = error or worker_error
    if error is not None:
        raise error


def _affordable_budget(s: np.ndarray, budget: float) -> float:
    """The budget to give ``_max_entropy_multipliers`` so the masses spend at most ``budget``.

    The multiplier solve meets its budget only to within its tolerance, on
    either side, so it is asked for that much less.  A budget within the
    tolerance of the cheapest cost is kept: the end-point face there spends
    at most the budget.
    """
    smin = float(s.min())
    tol = _COST_TOL * (float(s.max()) - smin)
    return budget if budget - smin <= tol else budget - tol


def _segment_lp_max(f: np.ndarray, s: np.ndarray, budget: float) -> float:
    """max f^T p over {p in simplex : s^T p <= budget}.

    The largest f when its cheapest maximiser is affordable; otherwise the
    budget binds, and the value is the upper concave hull of the points
    (s_i, f_i) at the budget; O(N log N).
    """
    smin, _ = _cost_range(s, budget)
    budget = max(float(budget), smin)
    top = float(f.max())
    if float(s[f == top].min()) <= budget:
        return top
    order = np.lexsort((-f, s))
    ss, fs = s[order], f[order]
    # Keep only the best f for duplicate cost values.
    keep = np.ones(ss.size, dtype=bool)
    keep[1:] = np.diff(ss) > 0
    # Monotone-chain upper hull over (cost, value) points, in Python floats.
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(ss[keep].tolist(), fs[keep].tolist()):
        while len(hx) >= 2 and \
                (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (x - hx[-2]) >= 0:
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    # smin = hx[0] <= budget < the maximiser's cost <= hx[-1].
    j = bisect.bisect_right(hx, budget)
    t = (budget - hx[j - 1]) / (hx[j] - hx[j - 1])
    return (1.0 - t) * hy[j - 1] + t * hy[j]


class ProbVector:
    """A point of the probability simplex (weights >= 0, sum = 1)."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidChannel("probability vector must be a non-empty 1-D array")
        if not np.all(np.isfinite(w)):
            raise InvalidChannel("probability vector contains NaN/inf")
        if np.any(w < 0):
            raise InvalidChannel("probability vector contains negative entries")
        s = w.sum()
        if abs(s - 1.0) > RENORM_TOL:
            raise InvalidChannel(f"probabilities sum to {s!r}, not 1")
        if abs(s - 1.0) > SUM_TOL:
            w = w / s
        w.setflags(write=False)
        self.weights = w

    @property
    def dim(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, d: int) -> "ProbVector":
        return cls(np.full(d, 1.0 / d))

    @classmethod
    def point_mass(cls, d: int, i: int) -> "ProbVector":
        w = np.zeros(d)
        w[i] = 1.0
        return cls(w)

    def __repr__(self):
        return f"ProbVector({np.array2string(self.weights, precision=6)})"


class ChannelMatrix:
    """Row-stochastic channel law W with cached per-row entropies.

    entries[i, j] = P(output j | input i), stored C-ordered (each row
    contiguous) whatever the layout given, so that the solvers' row blocks
    of W are contiguous; a relabelled channel such as ``W[rows][:, cols]``
    arrives Fortran-ordered.  ``neg_ent`` holds
    sum_j W_ij ln W_ij of each row (minus its entropy in nats, zero entries
    left out), ``r`` the conditional output entropy of each row in bits
    (-neg_ent / ln 2), ``gamma`` the exact minimum entry.
    """

    __slots__ = ("entries", "neg_ent", "r", "gamma")

    def __init__(self, entries):
        W = np.array(entries, dtype=float, order="C")
        if W.ndim != 2 or W.size == 0:
            raise InvalidChannel("channel matrix must be a non-empty 2-D array")
        if not np.all(np.isfinite(W)):
            raise InvalidChannel("channel matrix contains NaN/inf entries")
        if np.any(W < 0):
            raise InvalidChannel("channel matrix contains negative entries")
        W[W < ZERO_FLOOR] = 0.0
        sums = W.sum(axis=1)
        err = np.abs(sums - 1.0)
        if np.any(err > RENORM_TOL):
            i = int(np.argmax(err))
            raise InvalidChannel(f"row {i} sums to {sums[i]!r}, not 1")
        if np.any(err > SUM_TOL):
            W = W / sums[:, None]
        W.setflags(write=False)
        self.entries = W
        wlogw = np.zeros_like(W)
        mask = W > 0.0
        wlogw[mask] = W[mask] * np.log(W[mask])
        neg_ent = wlogw.sum(axis=1)
        neg_ent.setflags(write=False)
        self.neg_ent = neg_ent
        r = -neg_ent / LN2
        r.setflags(write=False)
        self.r = r
        self.gamma = float(W.min())

    @property
    def rows(self) -> int:
        """Input alphabet size N."""
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        """Output alphabet size M."""
        return self.entries.shape[1]

    @classmethod
    def from_text(cls, text: str) -> "ChannelMatrix":
        """Parse the plain-text channel format.

        First non-comment line is "N M", followed by N lines of M decimal
        probabilities.  '#' starts a comment.  NaN and negative entries are
        rejected.
        """
        lines = []
        for raw in io.StringIO(text):
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
        if not lines:
            raise InvalidChannel("empty channel file")
        head = lines[0].split()
        if len(head) != 2:
            raise InvalidChannel(f"expected 'N M' header, got {lines[0]!r}")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError as exc:
            raise InvalidChannel(f"bad header {lines[0]!r}") from exc
        if n <= 0 or m <= 0 or len(lines) != n + 1:
            raise InvalidChannel(f"expected {n} rows of {m} entries")
        rows = []
        for line in lines[1:]:
            vals = line.split()
            if len(vals) != m:
                raise InvalidChannel(f"row has {len(vals)} entries, expected {m}")
            try:
                row = [float(v) for v in vals]
            except ValueError as exc:
                raise InvalidChannel(f"non-numeric entry in row {line!r}") from exc
            if any(math.isnan(v) for v in row):
                raise InvalidChannel("NaN entry in channel file")
            rows.append(row)
        return cls(rows)

    @classmethod
    def from_file(cls, path) -> "ChannelMatrix":
        with open(path, "r") as fh:
            return cls.from_text(fh.read())

    def __repr__(self):
        return f"ChannelMatrix(N={self.rows}, M={self.cols}, gamma={self.gamma:.3g})"


@dataclass(frozen=True)
class CostConstraint:
    """Average input cost constraint E[s(X)] <= S."""

    costs: np.ndarray
    budget: float

    def __post_init__(self):
        s = np.array(self.costs, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise InvalidChannel("cost vector must be a non-empty 1-D array")
        if not np.all(np.isfinite(s)) or np.any(s < 0):
            raise InvalidChannel("costs must be finite and nonnegative")
        if not math.isfinite(self.budget) or self.budget < 0:
            raise InvalidChannel("budget must be finite and nonnegative")
        s.setflags(write=False)
        object.__setattr__(self, "costs", s)
        object.__setattr__(self, "budget", float(self.budget))


def entropy(p) -> float:
    """Shannon entropy H(p) in bits, 0 <= H <= log2(dim)."""
    if not isinstance(p, ProbVector):
        p = ProbVector(p)
    return _entropy_bits(p.weights)


def mutual_information(p, W: ChannelMatrix) -> float:
    """I(p, W) in bits, computed as -r^T p + H(W^T p)."""
    if not isinstance(p, ProbVector):
        p = ProbVector(p)
    if p.dim != W.rows:
        raise DimensionMismatch(f"input dim {p.dim} != channel rows {W.rows}")
    w = p.weights
    q = W.entries.T @ w
    return float(-(W.r @ w) + _entropy_bits(q))


def channel_diff_norm(W1: ChannelMatrix, W2: ChannelMatrix) -> float:
    """Channel-difference norm max_{b in simplex} ||b b^T A||_tr of A = W1 - W2.

    The value is max_i ||row_i(A)||_2 (dimensionless).  The rank-one trace
    norm ||b||_2 ||A^T b||_2 is at most ||A^T b||_2 on the simplex (there
    ||b||_2 <= ||b||_1 = 1), a convex function whose maximum sits at a vertex,
    where ||b||_2 = 1; so the vertex maximum is the exact maximum.
    """
    if W1.entries.shape != W2.entries.shape:
        raise DimensionMismatch("channel matrices must have equal shape")
    return float(np.linalg.norm(W1.entries - W2.entries, axis=1).max())


def continuity_capacity_bound(delta_norm: float, N: int, M: int) -> float:
    """Capacity continuity bound in bits for a channel perturbation of norm delta.

    3*delta*log2(max(M, N)) + 2*eta(delta) with eta(t) = -t*log2(t); delta is
    clamped to [0, 1] and eta(0) = eta(1) = 0.
    """
    d = min(max(float(delta_norm), 0.0), 1.0)
    if d == 0.0:
        return 0.0
    eta = -d * math.log2(d) if 0.0 < d < 1.0 else 0.0
    return 3.0 * d * math.log2(max(M, N)) + 2.0 * eta
