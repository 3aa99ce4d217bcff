"""Unit and property tests for the torus occupancy grid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.migration import CompactionPlan, apply_compaction
from repro.errors import GeometryError, PartitionOverlapError, UnknownJobError
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.torus import FREE, Torus, circular_window_sum
from tests.oracles import InvariantChecker, InvariantViolationError, check_rebuilt_grid

D = BGL_SUPERNODE_DIMS


def make_torus() -> Torus:
    return Torus(D)


class TestCircularWindowSum:
    def test_unit_window_is_identity(self):
        rng = np.random.default_rng(0)
        g = rng.integers(0, 5, size=(4, 4, 8))
        assert np.array_equal(circular_window_sum(g, (1, 1, 1)), g)

    def test_full_window_is_total(self):
        rng = np.random.default_rng(1)
        g = rng.integers(0, 5, size=(3, 4, 5))
        out = circular_window_sum(g, (3, 4, 5))
        assert (out == g.sum()).all()

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        g = rng.integers(0, 3, size=(3, 4, 5))
        shape = (2, 3, 4)
        out = circular_window_sum(g, shape)
        for x in range(3):
            for y in range(4):
                for z in range(5):
                    expected = sum(
                        g[(x + i) % 3, (y + j) % 4, (z + k) % 5]
                        for i in range(shape[0])
                        for j in range(shape[1])
                        for k in range(shape[2])
                    )
                    assert out[x, y, z] == expected

    @given(st.integers(0, 10_000), st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5)))
    @settings(max_examples=25)
    def test_random_grids_match_bruteforce(self, seed, shape):
        rng = np.random.default_rng(seed)
        g = rng.integers(0, 2, size=(3, 4, 5))
        out = circular_window_sum(g, shape)
        x, y, z = rng.integers(0, 3), rng.integers(0, 4), rng.integers(0, 5)
        expected = sum(
            g[(x + i) % 3, (y + j) % 4, (z + k) % 5]
            for i in range(shape[0])
            for j in range(shape[1])
            for k in range(shape[2])
        )
        assert out[x, y, z] == expected


class TestAllocation:
    def test_fresh_torus_all_free(self):
        t = make_torus()
        assert t.free_count == 128
        assert t.busy_count == 0
        assert t.n_jobs == 0

    def test_allocate_and_release(self):
        t = make_torus()
        p = Partition((0, 0, 0), (2, 2, 2))
        t.allocate(7, p)
        assert t.free_count == 120
        assert t.allocation_of(7) == p
        assert t.owner((1, 1, 1)) == 7
        assert t.owner((2, 2, 2)) is None
        released = t.release(7)
        assert released == p
        assert t.free_count == 128

    def test_overlap_rejected(self):
        t = make_torus()
        t.allocate(1, Partition((0, 0, 0), (2, 2, 2)))
        with pytest.raises(PartitionOverlapError):
            t.allocate(2, Partition((1, 1, 1), (2, 2, 2)))
        # failed allocation must not corrupt state
        check_rebuilt_grid(t)
        assert t.free_count == 120

    def test_double_allocation_rejected(self):
        t = make_torus()
        t.allocate(1, Partition((0, 0, 0), (1, 1, 1)))
        with pytest.raises(PartitionOverlapError):
            t.allocate(1, Partition((2, 2, 2), (1, 1, 1)))

    def test_negative_job_id_rejected(self):
        t = make_torus()
        with pytest.raises(GeometryError):
            t.allocate(-1, Partition((0, 0, 0), (1, 1, 1)))

    def test_job_id_past_the_int64_grid_rejected(self):
        t = make_torus()
        with pytest.raises(GeometryError, match="int64"):
            t.allocate(2**63, Partition((0, 0, 0), (1, 1, 1)))
        assert t.free_count == D.volume and not dict(t.allocations())
        t.allocate(2**63 - 1, Partition((0, 0, 0), (1, 1, 1)))
        assert t.grid[0, 0, 0] == 2**63 - 1

    def test_release_unknown_job(self):
        t = make_torus()
        with pytest.raises(UnknownJobError):
            t.release(42)

    def test_wrapping_allocation(self):
        t = make_torus()
        p = Partition((3, 3, 7), (2, 2, 2))
        t.allocate(5, p)
        assert t.owner((0, 0, 0)) == 5
        assert t.owner((3, 3, 7)) == 5
        assert t.free_count == 120
        check_rebuilt_grid(t)

    def test_is_free_and_free_nodes_in(self):
        t = make_torus()
        busy = Partition((0, 0, 0), (2, 2, 2))
        t.allocate(1, busy)
        assert not t.is_free(Partition((1, 1, 1), (2, 2, 2)))
        assert t.is_free(Partition((2, 2, 2), (2, 2, 2)))
        assert t.free_nodes_in(Partition((0, 0, 0), (4, 4, 8))) == 120
        assert t.free_nodes_in(busy) == 0

    def test_owner_by_index(self):
        t = make_torus()
        p = Partition((1, 2, 3), (1, 1, 1))
        t.allocate(9, p)
        idx = D.index((1, 2, 3))
        assert t.owner_by_index(idx) == 9
        assert t.owner_by_index(0) is None

    def test_version_bumps_on_mutation(self):
        t = make_torus()
        v0 = t.version
        t.allocate(1, Partition((0, 0, 0), (1, 1, 1)))
        v1 = t.version
        t.release(1)
        assert v1 > v0 and t.version > v1


@st.composite
def allocation_sequences(draw):
    """Random sequences of non-overlapping allocations on a small torus."""
    dims = TorusDims(3, 3, 4)
    n = draw(st.integers(0, 8))
    parts = []
    for _ in range(n):
        base = (
            draw(st.integers(0, dims.x - 1)),
            draw(st.integers(0, dims.y - 1)),
            draw(st.integers(0, dims.z - 1)),
        )
        shape = (
            draw(st.integers(1, dims.x)),
            draw(st.integers(1, dims.y)),
            draw(st.integers(1, dims.z)),
        )
        parts.append(Partition(base, shape))
    return dims, parts


def assert_counter_matches_grid(t: Torus) -> None:
    assert t.free_count == np.count_nonzero(t.grid == FREE)


class GridCheckedTorus(Torus):
    """A torus that compares its free-node counter with a count of the
    grid after every allocate and release."""

    __slots__ = ()

    def allocate(self, job_id, partition):
        try:
            super().allocate(job_id, partition)
        finally:
            assert_counter_matches_grid(self)

    def release(self, job_id):
        partition = super().release(job_id)
        assert_counter_matches_grid(self)
        return partition


class TestAllocationProperties:
    @given(allocation_sequences())
    @settings(max_examples=60)
    def test_free_count_conservation(self, seq):
        dims, parts = seq
        t = GridCheckedTorus(dims)
        placed = []
        for i, p in enumerate(parts):
            try:
                t.allocate(i, p)
                placed.append((i, p))
            except PartitionOverlapError:
                pass
        check_rebuilt_grid(t)
        assert t.busy_count == sum(p.size for _, p in placed)
        # A compaction releases every job, then re-places each one (here
        # all shifted by one along z: a translation keeps them disjoint).
        shifted = tuple(
            (i, Partition((p.base[0], p.base[1], (p.base[2] + 1) % dims.z), p.shape))
            for i, p in placed
        )
        apply_compaction(t, CompactionPlan(shifted, ()), head_id=-1)
        check_rebuilt_grid(t)
        InvariantChecker().check(t)
        assert t.busy_count == sum(p.size for _, p in placed)
        for i, p in reversed(placed):
            t.release(i)
        assert t.free_count == dims.volume
        check_rebuilt_grid(t)

    def test_counter_moved_behind_the_maps_back_fails_both_checkers(self):
        t = make_torus()
        t.allocate(0, Partition((0, 0, 0), (2, 2, 2)))
        check_rebuilt_grid(t)
        InvariantChecker().check(t)
        t._free += 1
        with pytest.raises(GeometryError, match="conservation"):
            check_rebuilt_grid(t)
        with pytest.raises(InvariantViolationError, match="free-count"):
            InvariantChecker().check(t)


@st.composite
def grids_and_partitions(draw):
    """A torus whose grid holds allocated jobs plus cells written
    straight into ``grid`` (free, foreign ids 0 and 999, a live job's id),
    and a partition that may wrap any axis."""
    dims = TorusDims(
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    )
    t = Torus(dims)
    for job_id in range(1, draw(st.integers(0, 3)) + 1):
        base = tuple(draw(st.integers(0, n - 1)) for n in dims.as_tuple())
        shape = tuple(draw(st.integers(1, n)) for n in dims.as_tuple())
        try:
            t.allocate(job_id, Partition(base, shape))
        except PartitionOverlapError:
            pass
    writes = draw(
        st.lists(
            st.tuples(
                st.integers(0, dims.volume - 1), st.sampled_from([FREE, 0, 1, 999])
            ),
            max_size=6,
        )
    )
    for node, value in writes:
        t.grid.reshape(-1)[node] = value
    base = tuple(draw(st.integers(0, n - 1)) for n in dims.as_tuple())
    shape = tuple(draw(st.integers(1, n)) for n in dims.as_tuple())
    return t, Partition(base, shape)


class TestOverlapCheck:
    @given(grids_and_partitions())
    @settings(max_examples=300, deadline=None)
    def test_allocate_refuses_exactly_an_occupied_box(self, case):
        """``allocate`` raises exactly when some node of the box is not
        FREE in the grid, whoever wrote it, and a refusal changes
        nothing."""
        t, partition = case
        occupied = bool((t.grid[np.ix_(*partition.axis_ranges(t.dims))] != FREE).any())
        grid = t.grid.copy()
        allocations = dict(t.allocations())
        free, version = t.free_count, t.version
        if occupied:
            with pytest.raises(PartitionOverlapError):
                t.allocate(4242, partition)
            assert np.array_equal(t.grid, grid)
            assert dict(t.allocations()) == allocations
            assert (t.free_count, t.version) == (free, version)
        else:
            t.allocate(4242, partition)
            assert t.allocation_of(4242) == partition
            assert t.free_count == free - partition.size
            assert set(np.unique(t.grid[np.ix_(*partition.axis_ranges(t.dims))])) == {4242}
