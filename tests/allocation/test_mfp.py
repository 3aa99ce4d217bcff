"""Tests for MFP computation: the production PlacementIndex and the
scalar walk of the reference index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from repro.allocation import FastFinder, PlacementIndex, mfp_partition, mfp_size
from repro.geometry.shapes import all_shapes
from tests.oracles import ReferencePlacementIndex

D = BGL_SUPERNODE_DIMS


def random_torus(dims: TorusDims, fill: float, seed: int) -> Torus:
    """Each node busy with probability ``fill``: one 1x1x1 job per busy
    node, allocated so the production index sees it too."""
    t = Torus(dims)
    rng = np.random.default_rng(seed)
    for node in np.flatnonzero(rng.random(dims.as_tuple()) < fill).tolist():
        x, y, z = np.unravel_index(node, dims.as_tuple())
        t.allocate(node, Partition((int(x), int(y), int(z)), (1, 1, 1)))
    return t


def brute_mfp(torus: Torus) -> int:
    """Reference MFP: largest shape volume with any free placement."""
    finder = FastFinder()
    best = 0
    for shape in all_shapes(torus.dims):
        vol = shape[0] * shape[1] * shape[2]
        if vol <= best:
            continue
        if finder.find_free(torus, vol):
            best = max(best, vol)
    return best


class TestMfpSize:
    def test_empty_machine(self):
        assert mfp_size(Torus(D)) == 128

    def test_full_machine(self):
        t = Torus(D)
        t.allocate(0, Partition((0, 0, 0), (4, 4, 8)))
        assert mfp_size(t) == 0
        assert mfp_partition(t) is None

    def test_half_machine(self):
        t = Torus(D)
        t.allocate(0, Partition((0, 0, 0), (4, 4, 4)))
        assert mfp_size(t) == 64

    def test_single_node_occupied(self):
        t = Torus(D)
        t.allocate(0, Partition((0, 0, 0), (1, 1, 1)))
        # Wrap-around lets a 4x4x7 box (based at z=1) avoid the one
        # occupied node.
        assert mfp_size(t) == 112

    def test_witness_partition_is_free_and_maximal(self):
        t = random_torus(D, 0.3, 11)
        p = mfp_partition(t)
        assert p is not None
        assert t.is_free(p)
        assert p.size == mfp_size(t)

    @given(st.integers(0, 10_000), st.floats(0.0, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce(self, seed, fill):
        t = random_torus(TorusDims(3, 3, 4), fill, seed)
        assert mfp_size(t) == brute_mfp(t)


class TestPlacementIndex:
    def test_candidates_match_finder(self):
        t = random_torus(D, 0.4, 5)
        index = PlacementIndex(t)
        finder = FastFinder()
        for size in (1, 4, 8, 16, 32):
            expected = {p.node_set(D) for p in finder.find_free_unique(t, size)}
            got = {p.node_set(D) for p in index.candidate_batch(size).partitions()}
            assert got == expected

    def test_candidates_deduplicated(self):
        t = Torus(D)
        index = PlacementIndex(t)
        assert len(index.candidate_batch(128)) == 1

    def test_has_candidate(self):
        t = Torus(D)
        t.allocate(0, Partition((0, 0, 0), (1, 1, 1)))
        index = PlacementIndex(t)
        assert index.has_candidate(96)
        assert not index.has_candidate(128)
        assert not index.has_candidate(11)

    def test_count_placements_empty_machine(self):
        index = ReferencePlacementIndex(Torus(D))
        # On an empty torus every base hosts every shape.
        assert index.count_placements((1, 1, 1)) == 128
        assert index.count_placements((4, 4, 8)) == 128

    def test_mfp_excluding_matches_real_allocation(self):
        t = random_torus(D, 0.3, 21)
        index = ReferencePlacementIndex(t)
        for p in index.candidates(8)[:20]:
            predicted = index.mfp_excluding(p)
            t.allocate(998, p)
            assert predicted == mfp_size(t), p
            t.release(998)

    @given(st.integers(0, 10_000), st.floats(0.0, 0.8), st.sampled_from([1, 2, 4, 6, 8]))
    @settings(max_examples=30, deadline=None)
    def test_mfp_excluding_property(self, seed, fill, size):
        dims = TorusDims(3, 3, 4)
        t = random_torus(dims, fill, seed)
        index = ReferencePlacementIndex(t)
        cands = index.candidates(size)
        if not cands:
            return
        p = cands[seed % len(cands)]
        t.allocate(998, p)
        assert index.mfp_excluding(p) == mfp_size(t)

    def test_mfp_loss_nonnegative(self):
        t = random_torus(D, 0.3, 33)
        index = ReferencePlacementIndex(t)
        for p in index.candidates(4)[:30]:
            assert 0 <= index.mfp_loss(p) <= index.mfp_size()
