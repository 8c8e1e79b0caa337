"""The smoothed input term streamed over row blocks of K.

``info_theory._smoothed_input_term`` walks K in blocks of
``_BLOCK_BYTES``.  Without a cost it merges the blocks by a softmax of their
log-sum-exps; with one, the same loop forms the log-masses block by block.
These tests set the block size small, so that tall channels split into many
blocks, and hold the streamed value, gradient and masses to the one-block
evaluation.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
