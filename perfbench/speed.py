"""Sampling how fast the host runs while the benchmark measures.

On a shared host the same computation can take up to twice as long from one
second to the next, and from one minute to the next, as other tenants come
and go.  While a pass runs, a timer signal interrupts it every few
milliseconds and times a fixed reference kernel.  The pass time is then
scaled to the speed at which that kernel takes its reference time:

    reference seconds = measured seconds * REFERENCE[kind] / mean kernel time

The kernels are the benchmark's own code and never call capbound, so a
change to capbound moves the measured time and not the kernel time.  There
are two kinds, because a slow host does not slow all code alike:

- ``interp``: a short Python loop of numpy calls on a 48-vector, like the
  solver loop on a small channel, where interpreter and call overhead rule.
- ``matvec``: a matrix-vector product and its transpose over a 10^4 x 100
  float64 matrix (8 MB), like the solver loop on a large channel, where
  streaming the matrix rules.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median kernel time, in seconds, run back to back on the 2-vCPU VM the
# benchmark was sized on (Intel Xeon, 2.0 GHz, CPython 3.11.7, numpy 2.4.6,
# one OpenBLAS thread).  They only fix the unit of a reference second.
REFERENCE = {"interp": 2.2e-4, "matvec": 9.0e-4}
# Seconds between samples: each costs 2 to 4% of the time it stands for.
PERIOD = {"interp": 0.01, "matvec": 0.05}

_rng = np.random.default_rng(0)
_SMALL = _rng.random((48, 48))
_SMALL /= _SMALL.sum(axis=1, keepdims=True)
_large = None


def _interp() -> None:
    W, x = _SMALL, np.zeros(48)
    for _ in range(10):
        f = W @ x
        p = np.exp(f - f.max())
        p /= p.sum()
        x = np.clip(x - 0.5 * (W.T @ p - 1.0 / 48), -1.0, 1.0)


def _matvec() -> None:
    global _large
    if _large is None:
        _large = _rng.random((10_000, 100))
    _large.T @ (_large @ np.ones(100))


KERNELS = {"interp": _interp, "matvec": _matvec}


def scale_now(kind: str, seconds: float) -> float:
    """REFERENCE / mean kernel time over ``seconds`` of back-to-back runs."""
    run = KERNELS[kind]
    run()
    runs, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds:
        run()
        runs += 1
    return REFERENCE[kind] * runs / (time.perf_counter() - start)


class Sampler:
    """Times the ``kind`` kernel every PERIOD[kind] seconds from SIGALRM.

    ``samples`` holds the kernel times in order; ``spent`` is the total time
    spent in the handler, which a caller subtracts from what it timed.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        KERNELS[self.kind]()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        KERNELS[self.kind]()  # build the kernel's data outside any timing
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD[self.kind], PERIOD[self.kind])
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int) -> float:
        """REFERENCE / mean kernel time over the samples from index ``first`` on.

        An interval shorter than the period may hold no sample; it gets one
        taken now, as the handler would take it.
        """
        if len(self.samples) == first:
            self._tick(signal.SIGALRM, None)
        window = self.samples[first:]
        return REFERENCE[self.kind] * len(window) / sum(window)
