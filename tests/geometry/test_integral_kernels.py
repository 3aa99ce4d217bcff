"""Property tests for the integral-image box-sum kernels.

These kernels sit under the partition finders and the test suite's
reference index (whose scalar lookup, :func:`box_sum_at`, lives with it
in ``tests/oracles/reference.py``); they are validated here directly
against brute-force modular sums, independent of the finder-level
cross-validation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry.torus import (
    circular_window_sum,
    window_sums_from_integral,
    wrap_pad_integral,
)
from tests.oracles.reference import box_sum_at

dims_strategy = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6))


def brute_box_sum(grid, base, extents):
    X, Y, Z = grid.shape
    total = 0
    for i in range(extents[0]):
        for j in range(extents[1]):
            for k in range(extents[2]):
                total += grid[(base[0] + i) % X, (base[1] + j) % Y, (base[2] + k) % Z]
    return total


@st.composite
def grid_and_window(draw):
    shape = draw(dims_strategy)
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 4, size=shape)
    window = tuple(draw(st.integers(1, shape[axis])) for axis in range(3))
    base = tuple(draw(st.integers(0, shape[axis] - 1)) for axis in range(3))
    return grid, window, base


class TestIntegralKernels:
    @given(grid_and_window())
    @settings(max_examples=80)
    def test_window_sums_match_bruteforce(self, data):
        grid, window, base = data
        integral = wrap_pad_integral(grid)
        sums = window_sums_from_integral(integral, grid.shape, window)
        assert sums[base] == brute_box_sum(grid, base, window)

    @given(grid_and_window())
    @settings(max_examples=80)
    def test_box_sum_at_matches_bruteforce(self, data):
        grid, window, base = data
        integral = wrap_pad_integral(grid)
        assert box_sum_at(integral, base, window) == brute_box_sum(grid, base, window)

    @given(grid_and_window())
    @settings(max_examples=40)
    def test_circular_window_sum_consistent(self, data):
        grid, window, base = data
        out = circular_window_sum(grid, window)
        assert out[base] == brute_box_sum(grid, base, window)

    @given(dims_strategy, st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_full_window_equals_total(self, shape, seed):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, 4, size=shape)
        out = circular_window_sum(grid, shape)
        assert (out == grid.sum()).all()

    @given(dims_strategy, st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_integral_monotone_nonneg(self, shape, seed):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, 4, size=shape)
        integral = wrap_pad_integral(grid)
        # Zero-led integral of a non-negative grid is monotone along
        # every axis.
        assert (np.diff(integral, axis=0) >= 0).all()
        assert (np.diff(integral, axis=1) >= 0).all()
        assert (np.diff(integral, axis=2) >= 0).all()
        assert integral[0].sum() == 0
