"""Cross-validation of the three partition finders.

The naive exhaustive finder is the correctness oracle; POP and both fast
variants must return exactly the same set of free partitions on random
occupancy states.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from repro.allocation import FastFinder, NaiveFinder, POPFinder

ALL_FINDERS = [
    NaiveFinder(),
    POPFinder(),
    FastFinder(vectorized=True),
    FastFinder(vectorized=False),
]

FAST_FINDERS = ALL_FINDERS[1:]


def random_torus(dims: TorusDims, fill: float, seed: int) -> Torus:
    """Torus with each node independently occupied with probability fill.

    Occupancy painted directly on the grid (not via allocate) — finders
    only read the grid, and arbitrary masks exercise more corner cases
    than rectangular allocations.
    """
    t = Torus(dims)
    rng = np.random.default_rng(seed)
    mask = rng.random(dims.as_tuple()) < fill
    t.grid[mask] = 999
    return t


def as_node_sets(parts, dims):
    return {p.node_set(dims) for p in parts}


class TestFindersAgree:
    @pytest.mark.parametrize("size", [1, 2, 4, 6, 8, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_torus_agreement(self, size, seed):
        dims = TorusDims(3, 3, 4)
        t = random_torus(dims, 0.3, seed)
        reference = as_node_sets(NaiveFinder().find_free(t, size), dims)
        for finder in FAST_FINDERS:
            assert as_node_sets(finder.find_free(t, size), dims) == reference, finder.name

    @pytest.mark.parametrize("size", [1, 4, 8, 16, 32, 64, 128])
    def test_bgl_torus_agreement(self, size):
        t = random_torus(BGL_SUPERNODE_DIMS, 0.4, 7)
        reference = as_node_sets(NaiveFinder().find_free(t, size), BGL_SUPERNODE_DIMS)
        for finder in FAST_FINDERS:
            found = as_node_sets(finder.find_free(t, size), BGL_SUPERNODE_DIMS)
            assert found == reference, finder.name

    @given(
        st.integers(0, 10_000),
        st.floats(0.0, 1.0),
        st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_agreement(self, seed, fill, size):
        dims = TorusDims(3, 3, 3)
        t = random_torus(dims, fill, seed)
        reference = as_node_sets(NaiveFinder().find_free(t, size), dims)
        for finder in FAST_FINDERS:
            assert as_node_sets(finder.find_free(t, size), dims) == reference, finder.name


class TestFinderBehaviour:
    @pytest.mark.parametrize("finder", ALL_FINDERS, ids=lambda f: f.name + str(getattr(f, "vectorized", "")))
    def test_empty_torus_counts(self, finder):
        t = Torus(BGL_SUPERNODE_DIMS)
        # size 1: every node is a free partition
        assert len(finder.find_free_unique(t, 1)) == 128
        # full machine: exactly one node set
        assert len(finder.find_free_unique(t, 128)) == 1

    @pytest.mark.parametrize("finder", ALL_FINDERS, ids=lambda f: f.name + str(getattr(f, "vectorized", "")))
    def test_full_torus_finds_nothing(self, finder):
        t = Torus(BGL_SUPERNODE_DIMS)
        t.allocate(0, Partition((0, 0, 0), (4, 4, 8)))
        for size in (1, 2, 8):
            assert finder.find_free(t, size) == []

    @pytest.mark.parametrize("finder", ALL_FINDERS, ids=lambda f: f.name + str(getattr(f, "vectorized", "")))
    def test_unschedulable_size_empty(self, finder):
        t = Torus(BGL_SUPERNODE_DIMS)
        assert finder.find_free(t, 11) == []

    @pytest.mark.parametrize("finder", ALL_FINDERS, ids=lambda f: f.name + str(getattr(f, "vectorized", "")))
    def test_size_validation(self, finder):
        t = Torus(BGL_SUPERNODE_DIMS)
        with pytest.raises(GeometryError):
            finder.find_free(t, 0)
        with pytest.raises(GeometryError):
            finder.find_free(t, 129)

    def test_results_actually_free_and_right_size(self):
        t = random_torus(BGL_SUPERNODE_DIMS, 0.5, 3)
        for finder in ALL_FINDERS:
            for p in finder.find_free(t, 8):
                assert p.size == 8
                assert t.is_free(p), finder.name

    def test_wrapping_partition_found(self):
        # Occupy everything except a 2x1x1 block wrapping the x axis.
        t = Torus(TorusDims(4, 1, 1))
        t.grid[1] = 7
        t.grid[2] = 7
        for finder in ALL_FINDERS:
            sets = as_node_sets(finder.find_free(t, 2), t.dims)
            assert frozenset({(3, 0, 0), (0, 0, 0)}) in sets, finder.name

    def test_exists_free(self):
        """An empty answer is the finder's "no such partition"."""
        t = Torus(BGL_SUPERNODE_DIMS)
        assert NaiveFinder().find_free(t, 128)
        t.allocate(0, Partition((0, 0, 0), (1, 1, 1)))
        assert not NaiveFinder().find_free(t, 128)
        assert NaiveFinder().find_free(t, 64)
