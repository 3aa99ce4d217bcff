"""Unit and property tests for Partition value objects."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.partition import Partition

D = BGL_SUPERNODE_DIMS

small_dims = st.builds(TorusDims, st.integers(1, 4), st.integers(1, 4), st.integers(1, 5))


def partitions_for(dims: TorusDims):
    """Strategy producing valid partitions for the given dims."""
    return st.builds(
        Partition,
        st.tuples(
            st.integers(0, dims.x - 1),
            st.integers(0, dims.y - 1),
            st.integers(0, dims.z - 1),
        ),
        st.tuples(
            st.integers(1, dims.x),
            st.integers(1, dims.y),
            st.integers(1, dims.z),
        ),
    )


class TestPartitionBasics:
    def test_size(self):
        assert Partition((0, 0, 0), (2, 3, 4)).size == 24

    def test_rejects_bad_shape(self):
        with pytest.raises(GeometryError):
            Partition((0, 0, 0), (0, 1, 1))

    def test_rejects_negative_base(self):
        with pytest.raises(GeometryError):
            Partition((-1, 0, 0), (1, 1, 1))

    def test_validate_against_dims(self):
        Partition((0, 0, 0), (4, 4, 8)).validate(D)
        with pytest.raises(GeometryError):
            Partition((0, 0, 0), (5, 1, 1)).validate(D)
        with pytest.raises(GeometryError):
            Partition((4, 0, 0), (1, 1, 1)).validate(D)

    def test_value_equality(self):
        assert Partition((1, 2, 3), (2, 2, 2)) == Partition((1, 2, 3), (2, 2, 2))
        assert hash(Partition((1, 2, 3), (2, 2, 2))) == hash(Partition((1, 2, 3), (2, 2, 2)))


class TestNodes:
    def test_node_count_matches_size(self):
        p = Partition((3, 3, 6), (2, 2, 3))  # wraps on all axes
        assert len(p.node_set(D)) == p.size

    def test_wrapping_nodes(self):
        p = Partition((3, 0, 0), (2, 1, 1))
        assert p.node_set(D) == {(3, 0, 0), (0, 0, 0)}

    def test_node_indices_sorted_unique(self):
        p = Partition((2, 3, 7), (2, 2, 2))
        ids = p.node_indices(D)
        assert len(ids) == p.size
        assert list(ids) == sorted(set(int(i) for i in ids))

    def test_node_indices_match_node_set(self):
        p = Partition((1, 2, 5), (2, 1, 4))
        from_ids = {D.coord(int(i)) for i in p.node_indices(D)}
        assert from_ids == p.node_set(D)

    def test_contains(self):
        p = Partition((3, 0, 6), (2, 2, 4))  # wraps in x and z
        assert p.contains(D, (0, 1, 1))
        assert p.contains(D, (3, 0, 6))
        assert not p.contains(D, (1, 0, 0))
        assert not p.contains(D, (3, 2, 6))

    @given(partitions_for(D))
    def test_contains_agrees_with_node_set(self, p):
        nodes = p.node_set(D)
        for c in itertools.product(*map(range, D)):
            assert p.contains(D, c) == (c in nodes)


class TestCanonical:
    def test_full_span_axis_pinned(self):
        p = Partition((2, 1, 3), (4, 2, 8))  # spans x and z fully
        canon = p.canonical(D)
        assert canon.base == (0, 1, 0)
        assert canon.shape == p.shape

    def test_non_spanning_untouched(self):
        p = Partition((2, 1, 3), (2, 2, 2))
        assert p.canonical(D) == p

    @given(partitions_for(D))
    def test_canonical_preserves_node_set(self, p):
        assert p.canonical(D).node_set(D) == p.node_set(D)

    @given(partitions_for(D), partitions_for(D))
    def test_equal_node_sets_have_equal_canonicals(self, p, q):
        if p.node_set(D) == q.node_set(D) and p.shape == q.shape:
            assert p.canonical(D) == q.canonical(D)


class TestOverlaps:
    def test_disjoint(self):
        a = Partition((0, 0, 0), (2, 2, 2))
        b = Partition((2, 2, 2), (2, 2, 2))
        assert not a.overlaps(D, b)

    def test_wrapping_overlap(self):
        a = Partition((3, 0, 0), (2, 1, 1))  # covers x=3 and x=0
        b = Partition((0, 0, 0), (1, 1, 1))
        assert a.overlaps(D, b)
        assert b.overlaps(D, a)

    def test_full_span_always_overlaps_on_axis(self):
        a = Partition((0, 0, 0), (4, 1, 1))
        b = Partition((2, 0, 0), (1, 1, 1))
        assert a.overlaps(D, b)

    @given(partitions_for(D), partitions_for(D))
    def test_overlaps_agrees_with_node_sets(self, p, q):
        expected = bool(p.node_set(D) & q.node_set(D))
        assert p.overlaps(D, q) == expected
        assert q.overlaps(D, p) == expected

    @given(small_dims, st.data())
    def test_overlaps_on_random_dims(self, dims, data):
        p = data.draw(partitions_for(dims))
        q = data.draw(partitions_for(dims))
        expected = bool(p.node_set(dims) & q.node_set(dims))
        assert p.overlaps(dims, q) == expected
