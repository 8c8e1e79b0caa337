"""Broadcast truncated Poisson kernel against a per-symbol scipy reference."""

import numpy as np
import pytest
from scipy.stats import poisson

import capbound as cb
from capbound.continuous import _truncated_rows


@pytest.mark.parametrize("peak,eta", [(1.0, 1.0), (25.0, 1.0), (3.0, 0.0)])
@pytest.mark.parametrize("M", [1, 16, 256])
def test_kernel_rows_match_scipy_pmf(peak, eta, M):
    base = cb.poisson_channel(peak, eta)
    xs = np.linspace(0.0, peak, 7)
    mean = xs + eta
    ref = np.stack([poisson.pmf(i, mean) for i in range(M)], axis=1)
    ref += (poisson.sf(M - 1, mean) / M)[:, None]
    np.testing.assert_allclose(_truncated_rows(base, xs, M), ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("M", [1, 16, 256])
def test_zero_mean_row_is_point_mass(M):
    rows = _truncated_rows(cb.poisson_channel(3.0, 0.0), np.array([0.0]), M)
    want = np.zeros(M)
    want[0] = 1.0
    np.testing.assert_array_equal(rows[0], want)
