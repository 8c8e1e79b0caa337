"""The smoothed input term streamed over row blocks of K.

``info_theory._smoothed_input_term`` walks K in blocks of
``_BLOCK_BYTES``.  Without a cost it merges the blocks by a softmax of their
log-sum-exps; with one, the same loop forms the log-masses block by block.
These tests set the block size small, so that tall channels split into many
blocks, and hold the streamed value, gradient and masses to the one-block
evaluation.  Without a cost and over more than one block, the caller and a
worker thread split the blocks; those tests hold the term to its serial
twin in ``reference.py`` bit for bit, and the solvers, run in several
threads and in a forked child, give their sequential reports.
"""

import collections
import itertools
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import weakref
from queue import SimpleQueue
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import smoothed_input_term as smoothed_input_term_reference

import capbound as cb
from capbound import info_theory
from capbound.info_theory import LN2

ONE_BLOCK = 1 << 62


def _eval(lam, W, nu, block_bytes, cost=None):
    with mock.patch.object(info_theory, "_BLOCK_BYTES", block_bytes):
        value, grad, p = cb.eval_G_nu_unconstrained(lam, W, nu) if cost is None \
            else cb.eval_G_nu_constrained(lam, W, nu, cost)
    return value, grad, p.weights


def _assert_close(streamed, whole, nu, N):
    (v, g, p), (v1, g1, p1) = streamed, whole
    # G_nu = nu*(lse/ln2 - log2 N): the log-sum-exp is matched relative to its size.
    assert abs(v - v1) <= 1e-12 * (abs(v1) + nu * math.log2(N))
    assert np.abs(g - g1).max() <= 1e-12 * np.abs(g1).max()
    assert np.abs(p - p1).max() <= 1e-12
    assert abs(p.sum() - 1.0) <= 1e-12


@st.composite
def tall_problems(draw):
    """A tall random channel, a dual point, a smoothing nu and a block of 1 to N rows.

    nu is set so that the log-masses (W lambda - r) ln2/nu span ``spread``,
    up to 1e3: there most inputs, and whole blocks, carry zero mass.
    """
    N = draw(st.integers(2, 400))
    M = draw(st.integers(2, 8))
    W = cb.make_random(N, M, draw(st.integers(0, 2**31)))
    lam = np.array(draw(st.lists(st.floats(-20, 20), min_size=M, max_size=M)))
    f = W.entries @ lam - W.r
    spread = draw(st.floats(1e-2, 1e3))
    nu = max(float(np.ptp(f)), 1e-3) * LN2 / spread
    rows = draw(st.integers(1, N))
    return W, lam, nu, rows


@settings(max_examples=200, deadline=None)
@given(problem=tall_problems())
def test_streamed_term_matches_one_block(problem):
    W, lam, nu, rows = problem
    streamed = _eval(lam, W, nu, 8 * W.cols * rows)
    _assert_close(streamed, _eval(lam, W, nu, ONE_BLOCK), nu, W.rows)


@settings(max_examples=200, deadline=None)
@given(problem=tall_problems(), seed=st.integers(0, 2**31), quantile=st.floats(0.05, 0.95))
def test_streamed_constrained_term_matches_one_block(problem, seed, quantile):
    # Costs U(0, 1), the budget strictly inside their range: the multiplier
    # solve runs on log-masses formed block by block.
    W, lam, nu, rows = problem
    s = np.random.default_rng(seed).random(W.rows)
    cost = cb.CostConstraint(s, float(s.min() + quantile * np.ptp(s)))
    streamed = _eval(lam, W, nu, 8 * W.cols * rows, cost)
    _assert_close(streamed, _eval(lam, W, nu, ONE_BLOCK, cost), nu, W.rows)


def test_whole_blocks_underflow_without_warning():
    # Inputs sorted by log-mass over a range of 1e3 nats, one row per block:
    # every block far below the top underflows to zero mass, and later
    # blocks raise the running max in turn.  RuntimeWarnings are errors.
    W = cb.make_random(300, 4, 21)
    lam = np.array([3.0, -2.0, 1.0, 0.5])
    f = W.entries @ lam - W.r
    nu = float(np.ptp(f)) * LN2 / 1e3
    W = cb.ChannelMatrix(W.entries[np.argsort(f)])
    streamed = _eval(lam, W, nu, 8 * W.cols)
    assert (streamed[2] == 0.0).sum() >= 100
    _assert_close(streamed, _eval(lam, W, nu, ONE_BLOCK), nu, W.rows)
    reverse = cb.ChannelMatrix(W.entries[::-1])
    _assert_close(_eval(lam, reverse, nu, 8 * W.cols), _eval(lam, reverse, nu, ONE_BLOCK),
                  nu, W.rows)


def test_one_block_is_the_whole_matrix_arithmetic():
    # A K that fits in one block takes one product each way and one softmax.
    W = cb.make_random(40, 7, 11)
    lam = np.linspace(-1.0, 1.0, 7)
    lse, grad, mass, _ = info_theory._smoothed_input_term(W.entries, W.r, lam, 0.05)
    logmass = W.entries @ lam - W.r
    logmass *= LN2 / 0.05
    want_lse, want_mass = info_theory._softmax(logmass)
    assert lse == want_lse
    assert mass.tobytes() == want_mass.tobytes()
    assert grad.tobytes() == (W.entries.T @ want_mass).tobytes()


@pytest.fixture(scope="module")
def criterion_9_channel():
    return cb.make_random(10_000, 100, 1)


@pytest.mark.parametrize("scale, nu", [(0.0, 1.0), (1.0, 0.1), (10.0, 0.01), (50.0, 1e-3)])
def test_criterion_9_channel_streams_at_default_blocks(criterion_9_channel, scale, nu):
    W = criterion_9_channel
    assert W.rows > info_theory._BLOCK_BYTES // (8 * W.cols)  # more than one block
    lam = scale * np.random.default_rng(7).normal(size=W.cols)
    streamed = _eval(lam, W, nu, info_theory._BLOCK_BYTES)
    _assert_close(streamed, _eval(lam, W, nu, ONE_BLOCK), nu, W.rows)


# ---------------------------------------------------------------------------
# The caller and the worker thread split the blocks of the unconstrained term.


def _dual_step():
    W = cb.make_random(300, 6, 5)
    return W.entries, W.r, np.random.default_rng(1).normal(size=6), 0.05, None


def _ba_step():
    # An over-relaxed Blahut-Arimoto step in nats: lam = -ln q, nu = ln2/t at
    # t = 2, and log p as the log-weights.
    W = cb.make_random(300, 6, 5)
    p = np.random.default_rng(2).dirichlet(np.ones(300))
    return W.entries, -W.neg_ent, -np.log(W.entries.T @ p), LN2 / 2.0, np.log(p)


def _grid_step():
    trunc = cb.truncate(cb.poisson_channel(1.0, 1.0), 8, quad_nodes=64)
    lam = np.random.default_rng(3).normal(size=trunc.kernel_nodes.shape[1])
    return trunc.kernel_nodes, trunc.r_nodes, lam, 0.05, np.log(trunc.weights)


STEPS = {"dual": _dual_step, "blahut-arimoto": _ba_step, "grid": _grid_step}
BLOCK_ROWS = 7


@pytest.fixture
def two_cpus(monkeypatch):
    """The process may run on two CPUs, and every multi-block call splits its blocks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(info_theory, "_split_pays", lambda: True)


@pytest.fixture
def fresh_paces(monkeypatch):
    """No pace timed yet and no call counted, as in a new process."""
    monkeypatch.setattr(info_theory, "_paces", {True: collections.deque(maxlen=5),
                                                False: collections.deque(maxlen=5)})
    monkeypatch.setattr(info_theory, "_calls", itertools.count())
    monkeypatch.setattr(info_theory, "_last_way", None)


def _spy(monkeypatch, starve=False, stall=None):
    """Count the ``_term_blocks`` runs and the blocks of the calling thread and of the worker.

    With ``starve``, the caller's run of each split call starts once the
    worker's run has begun, and the worker's run waits until the caller's
    has claimed every block.  ``stall`` maps "caller" or "worker" to seconds
    of sleep before each such run; the caller's run of a call in one thread
    counts as "alone".
    """
    caller = threading.get_ident()
    runs, blocks = collections.Counter(), collections.Counter()
    events = collections.defaultdict(lambda: (threading.Event(), threading.Event()))
    term_blocks = info_theory._term_blocks

    def spy(blocks_, lam, scale, lses, claims, softmax=info_theory._softmax):
        who = "caller" if threading.get_ident() == caller else "worker"
        if isinstance(claims, range):
            who = "alone"
        worker_began, caller_done = events[claims]
        runs[who] += 1
        time.sleep((stall or {}).get(who, 0.0))
        if starve and who == "worker":
            worker_began.set()
            assert caller_done.wait(30)
        elif starve and who == "caller":
            assert worker_began.wait(30)

        def counted(a, out):
            blocks[who] += 1
            return softmax(a, out=out)

        try:
            term_blocks(blocks_, lam, scale, lses, claims, counted)
        finally:
            if who == "caller":
                caller_done.set()

    monkeypatch.setattr(info_theory, "_term_blocks", spy)
    return runs, blocks


def _assert_same_term(got, work, want):
    lse, grad, mass, m2 = got
    want_lse, want_grad, want_mass, want_m2, want_logmass = want
    assert lse == want_lse and m2 == want_m2
    assert grad.tobytes() == want_grad.tobytes()
    assert mass.tobytes() == want_mass.tobytes()
    assert work[0].tobytes() == want_logmass.tobytes()


def _check_step(step, calls):
    """``calls`` in-place term calls of ``step``, each bit-exact: returns its block count."""
    K, r, lam, nu, logw = STEPS[step]()
    want = smoothed_input_term_reference(K, r, lam, nu, logw)
    work = info_theory._input_term_work(K, r, logw)
    for _ in range(calls):
        _assert_same_term(info_theory._smoothed_input_term(K, r, lam, nu, logw, out=work),
                          work, want)
    return len(work[5])


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of BLOCK_ROWS rows on the 6-output channels."""
    monkeypatch.setattr(info_theory, "_BLOCK_BYTES", 8 * 6 * BLOCK_ROWS)


@pytest.mark.parametrize("step", sorted(STEPS))
def test_split_blocks_match_the_serial_twin(step, monkeypatch, two_cpus):
    K = STEPS[step]()[0]
    monkeypatch.setattr(info_theory, "_BLOCK_BYTES", 8 * K.shape[1] * BLOCK_ROWS)
    runs, blocks = _spy(monkeypatch)
    n = _check_step(step, 3)
    assert n > 2
    assert runs["caller"] == 3 and runs["worker"] <= 3 and runs["alone"] == 0
    assert blocks["caller"] + blocks["worker"] == 3 * n


@pytest.mark.parametrize("step", sorted(STEPS))
def test_starved_worker_leaves_its_blocks_to_the_caller(step, monkeypatch, two_cpus):
    K = STEPS[step]()[0]
    monkeypatch.setattr(info_theory, "_BLOCK_BYTES", 8 * K.shape[1] * BLOCK_ROWS)
    runs, blocks = _spy(monkeypatch, starve=True)
    n = _check_step(step, 2)
    assert runs["worker"] == 2
    assert blocks["caller"] == 2 * n and blocks["worker"] == 0


def test_a_job_the_worker_never_begins_is_taken_back(monkeypatch, two_cpus, small_blocks):
    # A worker that never runs: its queue is served by no thread.  The
    # caller takes every block, takes its job back and does not wait.
    # Should jobs be left queued, a thread answers them from 20 s on, so
    # that the test fails instead of hanging.
    jobs, answered, stop = SimpleQueue(), [], threading.Event()
    monkeypatch.setattr(info_theory, "_worker", (os.getpid(), jobs))
    runs, blocks = _spy(monkeypatch)

    def answer():
        stop.wait(20.0)
        while not stop.wait(0.1):
            while not jobs.empty():
                answered.append(jobs.get()[1].put(None))

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        n = _check_step("grid", 2)
    finally:
        stop.set()
        thread.join(30)
    assert not answered and jobs.empty()
    assert runs["worker"] == 0 and blocks["caller"] == 2 * n


def test_one_cpu_or_a_busy_worker_runs_the_blocks_here(monkeypatch, small_blocks):
    # Affinity to one CPU, or the worker held by another thread's call: the
    # caller takes every block and gives the worker no job.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(info_theory, "_split_pays", lambda: True)
    runs, blocks = _spy(monkeypatch)
    n = _check_step("dual", 2)
    assert runs["worker"] == runs["caller"] == 0 and blocks["alone"] == 2 * n
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with info_theory._worker_lock:
        _check_step("blahut-arimoto", 2)
    assert runs["worker"] == runs["caller"] == 0 and blocks["alone"] == 4 * n


def test_split_pays_takes_the_faster_way_and_probes_the_other(monkeypatch, fresh_paces):
    # Calls 0 and 1 probe one thread; with no split pace yet, the next calls split.
    every = info_theory._PROBE_EVERY
    choices = [info_theory._split_pays() for _ in range(3)]
    assert choices == [False, False, True]
    paces = info_theory._paces
    paces[True].extend([1.0, 9.0, 2.0])   # median 2.0
    paces[False].extend([3.0, 1.5, 4.0])  # median 3.0
    choices = [info_theory._split_pays() for _ in range(3, 2 * every)]
    assert [i + 3 for i, split in enumerate(choices) if not split] == [every, every + 1]
    paces[True].extend([5.0, 6.0])        # median of 1, 9, 2, 5, 6: 5.0
    choices = [info_theory._split_pays() for _ in range(every)]
    assert [i for i, split in enumerate(choices) if split] == [0, 1]


def test_a_pace_is_kept_after_a_call_of_the_same_way(monkeypatch, small_blocks, fresh_paces):
    # The first call of a way after a call of the other way is not timed.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ways = iter([False, True, True, False, False, False])
    monkeypatch.setattr(info_theory, "_split_pays", lambda: next(ways))
    _check_step("dual", 6)
    assert len(info_theory._paces[True]) == 1 and len(info_theory._paces[False]) == 2


@pytest.mark.parametrize("slow, want_split", [("worker", False), ("alone", True)])
def test_calls_turn_to_the_way_that_is_faster_here(slow, want_split, monkeypatch,
                                                   small_blocks, fresh_paces):
    # A busy host, as a worker that sleeps 20 ms before each job, turns the
    # calls to one thread, and one thread that sleeps turns them to the
    # split, but for two probes of the other way every _PROBE_EVERY calls.
    # Every call stays exact.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    runs, _ = _spy(monkeypatch, stall={slow: 0.02})
    calls = 4 * info_theory._PROBE_EVERY
    _check_step("dual", calls)
    split, alone = runs["caller"], runs["alone"]
    assert split + alone == calls
    probes = 2 * (calls // info_theory._PROBE_EVERY) + 4
    assert (alone if want_split else split) <= probes


def test_worker_lets_go_of_its_inputs_and_raises_in_the_caller(monkeypatch, two_cpus,
                                                                 small_blocks):
    runs, _ = _spy(monkeypatch)
    W = cb.make_random(300, 6, 5)
    K, lam = np.array(W.entries), np.linspace(-1.0, 1.0, 6)
    kept = weakref.ref(K), weakref.ref(lam)
    info_theory._smoothed_input_term(K, W.r, lam, 0.05)
    assert runs["caller"] == 1
    del K, lam
    assert kept[0]() is None and kept[1]() is None

    caller = threading.get_ident()
    term_blocks = info_theory._term_blocks

    def failing(who, exc):
        def run(blocks, lam, scale, lses, claims, softmax=info_theory._softmax):
            if (threading.get_ident() == caller) == (who == "caller"):
                raise exc
            term_blocks(blocks, lam, scale, lses, claims, softmax)
        return run

    K, r, lam, nu, logw = STEPS["dual"]()
    want = smoothed_input_term_reference(K, r, lam, nu, logw)
    work = info_theory._input_term_work(K, r, logw)
    # A block that fails in the worker re-raises here; an interrupt of the
    # caller's blocks waits for the worker's.  Each next call is exact.
    for who, exc in (("worker", RuntimeError("block failed")), ("caller", KeyboardInterrupt())):
        monkeypatch.setattr(info_theory, "_term_blocks", failing(who, exc))
        with pytest.raises(type(exc)):
            info_theory._smoothed_input_term(K, r, lam, nu, logw, out=work)
        monkeypatch.setattr(info_theory, "_term_blocks", term_blocks)
        _assert_same_term(info_theory._smoothed_input_term(K, r, lam, nu, logw, out=work),
                          work, want)


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_an_interrupt_in_the_wait_still_waits_for_the_worker(monkeypatch, two_cpus,
                                                              small_blocks):
    # The worker holds a block while the caller, out of blocks, waits for it.
    # A SIGINT then interrupts the wait: the caller keeps waiting until the
    # worker's block is done, and only then raises KeyboardInterrupt.
    caller = threading.get_ident()
    term_blocks = info_theory._term_blocks
    in_block, release, worker_done = threading.Event(), threading.Event(), threading.Event()

    def held(blocks, lam, scale, lses, claims, softmax=info_theory._softmax):
        if threading.get_ident() == caller:
            assert in_block.wait(30)
            term_blocks(blocks, lam, scale, lses, claims, softmax)
            return

        def hold(a, out):
            in_block.set()
            assert release.wait(30)
            return softmax(a, out=out)

        term_blocks(blocks, lam, scale, lses, claims, hold)
        worker_done.set()

    def interrupt():
        time.sleep(0.2)
        signal.pthread_kill(caller, signal.SIGINT)
        time.sleep(0.2)
        release.set()

    def on_sigint(signum, frame):
        raise KeyboardInterrupt

    K, r, lam, nu, logw = STEPS["dual"]()
    want = smoothed_input_term_reference(K, r, lam, nu, logw)
    work = info_theory._input_term_work(K, r, logw)
    monkeypatch.setattr(info_theory, "_term_blocks", held)
    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        thread = threading.Thread(target=interrupt)
        thread.start()
        with pytest.raises(KeyboardInterrupt):
            info_theory._smoothed_input_term(K, r, lam, nu, logw, out=work)
        assert worker_done.is_set()
    finally:
        release.set()
        thread.join(30)
        signal.signal(signal.SIGINT, previous)
    monkeypatch.setattr(info_theory, "_term_blocks", term_blocks)
    _assert_same_term(info_theory._smoothed_input_term(K, r, lam, nu, logw, out=work),
                      work, want)


def _fields(rep):
    """Every field of a solve report but its wall time, arrays as bytes and floats as hex."""
    out = {}
    for key, value in vars(rep).items():
        value = getattr(value, "weights", getattr(value, "values", value))
        if isinstance(value, np.ndarray):
            value = value.tobytes()
        elif isinstance(value, float):
            value = value.hex()
        if key != "wall_time":
            out[key] = value
    return out


# More solving threads than the two CPUs, so that calls find the worker busy.
CONCURRENT_CHANNELS = (cb.make_random(400, 6, 1), cb.make_random(300, 6, 2),
                       cb.make_random(200, 6, 3))


def _solves(W):
    return [_fields(cb.solve_capacity(W, epsilon=1e-2)),
            _fields(cb.ba_solve(W, 1e-3, "aposteriori"))]


def test_threads_solve_as_one_does(two_cpus, small_blocks):
    want = [_solves(W) for W in CONCURRENT_CHANNELS]
    got = [None] * len(CONCURRENT_CHANNELS)

    def run(i):
        got[i] = [_solves(CONCURRENT_CHANNELS[i]) for _ in range(2)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[w, w] for w in want]


def test_forked_child_restarts_the_worker(two_cpus, small_blocks):
    W = CONCURRENT_CHANNELS[0]
    want = _solves(W)
    assert info_theory._worker[0] == os.getpid()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        send.send((_solves(W), info_theory._worker[0] == os.getpid()))

    proc = ctx.Process(target=child)
    proc.start()
    send.close()
    try:
        # A child whose worker is lost hangs: it fails here instead.
        assert recv.poll(60), "the forked child's solves did not finish"
        got, restarted = recv.recv()
    finally:
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join(5)
    assert proc.exitcode == 0
    assert restarted and got == want
