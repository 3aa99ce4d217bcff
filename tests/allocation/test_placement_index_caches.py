"""Cache-consistency tests for the reference placement index.

:class:`~tests.oracles.ReferencePlacementIndex` memoises per state
(grids, candidate lists, scalar scores); these tests pin that the caches
never change answers, only cost.  The states are written into
``torus.grid`` directly, which only the reference reads.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.torus import Torus
from tests.oracles import ReferencePlacementIndex

D = BGL_SUPERNODE_DIMS


def random_torus(fill: float, seed: int, dims: TorusDims = D) -> Torus:
    t = Torus(dims)
    rng = np.random.default_rng(seed)
    t.grid[rng.random(dims.as_tuple()) < fill] = 999
    return t


class TestCaches:
    def test_candidates_cached_identical(self):
        index = ReferencePlacementIndex(random_torus(0.4, 0))
        a = index.candidates(8)
        b = index.candidates(8)
        assert a is b

    def test_scored_candidates_match_direct_scoring(self):
        index = ReferencePlacementIndex(random_torus(0.4, 1))
        for partition, loss in index.scored_candidates(8):
            assert loss == index.mfp_loss(partition)

    def test_mfp_size_stable_across_queries(self):
        index = ReferencePlacementIndex(random_torus(0.5, 2))
        first = index.mfp_size()
        index.candidates(4)
        index.scored_candidates(2)
        assert index.mfp_size() == first

    def test_index_isolated_from_torus_mutation(self):
        """An index snapshot answers for the state it was built on."""
        torus = random_torus(0.3, 3)
        index = ReferencePlacementIndex(torus)
        before = index.mfp_size()
        # Mutate the torus afterwards; the index must not change.
        from repro.geometry.partition import Partition

        free = np.argwhere(torus.grid == -1)
        torus.allocate(7, Partition(tuple(int(v) for v in free[0]), (1, 1, 1)))
        assert index.mfp_size() == before
        assert index.torus_version != torus.version

    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=25, deadline=None)
    def test_has_candidate_agrees_with_candidates(self, seed, size):
        index = ReferencePlacementIndex(random_torus(0.6, seed))
        assert index.has_candidate(size) == bool(index.candidates(size))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_mfp_loss_zero_only_when_mfp_preserved(self, seed):
        index = ReferencePlacementIndex(random_torus(0.4, seed))
        for partition in index.candidates(4)[:10]:
            loss = index.mfp_loss(partition)
            assert (loss == 0) == (index.mfp_excluding(partition) == index.mfp_size())
