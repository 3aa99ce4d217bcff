"""Property-based cross-validation of the three partition finders.

The headline correctness claim — naive, POP and Appendix-9 fast finders
are interchangeable — is asserted here over randomly generated torus
states.  The main sweep pins ``max_examples=100`` regardless of the
active hypothesis profile, so every run (including CI) cross-validates
at least 100 generated machine states.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.allocation.base import PartitionFinder
from repro.geometry.coords import TorusDims
from repro.geometry.shapes import schedulable_sizes, shapes_for_size
from repro.geometry.torus import Torus
from tests.oracles import CrossValidator, random_torus

# Small machines keep the naive O(M^9)-class reference affordable while
# still covering wrap-around, full-axis spans and heavy fragmentation.
dims_strategy = st.builds(
    TorusDims, st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)
)


@st.composite
def torus_states(draw) -> Torus:
    dims = draw(dims_strategy)
    seed = draw(st.integers(0, 2**32 - 1))
    attempts = draw(st.integers(0, 14))
    return random_torus(dims, np.random.default_rng(seed), attempts=attempts)


class TestCrossValidation:
    @settings(max_examples=100, deadline=None)
    @given(torus_states(), st.data())
    def test_finders_agree_on_random_states(self, torus, data):
        """≥100 random torus states: identical canonical partition sets
        (and identical enumeration order) across all four finder
        implementations, at a randomly drawn schedulable size."""
        sizes = schedulable_sizes(torus.dims)
        size = data.draw(st.sampled_from(sizes))
        CrossValidator().compare(torus, size)

    @settings(max_examples=20, deadline=None)
    @given(torus_states())
    def test_finders_agree_on_every_size(self, torus):
        """Deeper variant: all schedulable sizes of one state."""
        CrossValidator().compare_all_sizes(torus)


class TestFindFreeProperties:
    @settings(deadline=None)
    @given(torus_states(), st.data())
    def test_every_result_is_free_and_exact(self, torus, data):
        size = data.draw(st.sampled_from(schedulable_sizes(torus.dims)))
        for finder in CrossValidator().finders:
            for part in finder.find_free(torus, size):
                assert part.size == size
                assert torus.is_free(part)
                part.validate(torus.dims)
                break  # one spot-check per finder keeps this cheap

    @settings(deadline=None)
    @given(torus_states(), st.data())
    def test_unique_canonicalisation(self, torus, data):
        """find_free_unique: one partition per node set, all canonical,
        same node-set family as the raw output."""
        size = data.draw(st.sampled_from(schedulable_sizes(torus.dims)))
        dims = torus.dims
        finder: PartitionFinder = CrossValidator().finders[2]  # fast-vectorized
        raw = finder.find_free(torus, size)
        unique = finder.find_free_unique(torus, size)
        assert len(set(unique)) == len(unique)
        assert all(p == p.canonical(dims) for p in unique)
        assert {p.node_set(dims) for p in raw} == {p.node_set(dims) for p in unique}

    @settings(deadline=None)
    @given(torus_states())
    def test_empty_and_full_extremes(self, torus):
        """On the torus's own dims: the whole-machine partition is found
        iff the machine is empty."""
        dims = torus.dims
        full_size = dims.volume
        if full_size not in schedulable_sizes(dims):  # pragma: no cover
            return
        found = CrossValidator().compare(torus, full_size)
        if torus.free_count == full_size:
            assert len(found) == 1
        elif torus.free_count < full_size:
            assert found == frozenset()

    @settings(max_examples=30, deadline=None)
    @given(torus_states(), st.data())
    def test_allocation_shrinks_result_monotonically(self, torus, data):
        """Allocating any found partition removes it from (and never
        adds to) the free set — exercised through the real mutation
        path, with the invariant oracle watching."""
        from tests.oracles import InvariantChecker

        size = data.draw(st.sampled_from(schedulable_sizes(torus.dims)))
        validator = CrossValidator()
        before = validator.compare(torus, size)
        if not before:
            return
        target = data.draw(st.sampled_from(sorted(before, key=str)))
        job_id = torus.n_jobs + 1000
        torus.allocate(job_id, target)
        InvariantChecker().check(torus)
        after = validator.compare(torus, size)
        assert target not in after
        assert after <= before
        torus.release(job_id)
        InvariantChecker().check(torus)
        assert validator.compare(torus, size) == before


class TestShapeEnumerationOrder:
    @settings(deadline=None)
    @given(dims_strategy, st.integers(1, 40))
    def test_naive_shape_order_matches_divisor_order(self, dims, size):
        """The contract the cross-validator's order check rests on."""
        lex = [
            (a, b, c)
            for a in range(1, dims.x + 1)
            for b in range(1, dims.y + 1)
            for c in range(1, dims.z + 1)
            if a * b * c == size
        ]
        assert lex == list(shapes_for_size(size, dims))
