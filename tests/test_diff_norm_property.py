"""Property test: the vertex bound of channel_diff_norm is the simplex maximum."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import capbound as cb


@settings(max_examples=50, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       keys=st.tuples(st.integers(0, 2**30), st.integers(0, 2**30)),
       data=st.data())
def test_vertex_bound_dominates_every_simplex_point(shape, keys, data):
    n, m = shape
    W1, W2 = cb.make_random(n, m, keys[0]), cb.make_random(n, m, keys[1])
    w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assume(w.sum() > 0.0)
    b = w / w.sum()
    A = W1.entries - W2.entries
    assert np.linalg.norm(b) * np.linalg.norm(A.T @ b) <= cb.channel_diff_norm(W1, W2) + 1e-12
