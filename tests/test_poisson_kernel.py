"""Broadcast truncated Poisson kernel against a per-symbol scipy reference."""

import numpy as np
import pytest
from scipy.stats import poisson

import capbound as cb


def kernel_rows(base, M, xs):
    # kernel_rows reads only the base channel and M; the other fields are
    # placeholders, so channels that truncate() rejects (zero minimum) work.
    trunc = cb.TruncatedChannel(base=base, M=M, gamma_M=0.0, nodes=xs, weights=xs,
                                rho=base.peak, grid_min=0.0, tail_lb=0.0,
                                kernel_nodes=np.zeros((xs.size, M)),
                                r_nodes=np.zeros(xs.size))
    return trunc.kernel_rows(xs)


@pytest.mark.parametrize("peak,eta", [(1.0, 1.0), (25.0, 1.0), (3.0, 0.0)])
@pytest.mark.parametrize("M", [1, 16, 256])
def test_kernel_rows_match_scipy_pmf(peak, eta, M):
    base = cb.poisson_channel(peak, eta)
    xs = np.linspace(0.0, peak, 7)
    mean = xs + eta
    ref = np.stack([poisson.pmf(i, mean) for i in range(M)], axis=1)
    ref += (poisson.sf(M - 1, mean) / M)[:, None]
    np.testing.assert_allclose(kernel_rows(base, M, xs), ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("M", [1, 16, 256])
def test_zero_mean_row_is_point_mass(M):
    rows = kernel_rows(cb.poisson_channel(3.0, 0.0), M, np.array([0.0]))
    want = np.zeros(M)
    want[0] = 1.0
    np.testing.assert_array_equal(rows[0], want)
