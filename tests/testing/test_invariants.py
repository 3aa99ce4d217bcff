"""Unit tests for the occupancy-grid invariant oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition
from repro.geometry.torus import FREE, Torus
from tests.oracles import (
    InvariantChecker,
    InvariantViolationError,
    check_rebuilt_grid,
    corrupt_random_node,
    random_torus,
)

DIMS = TorusDims(4, 4, 8)


class TestCleanStates:
    def test_empty_machine(self):
        checker = InvariantChecker()
        checker.check(Torus(DIMS))
        assert checker.checks_run == 1

    def test_fully_allocated_machine(self):
        torus = Torus(DIMS)
        torus.allocate(0, Partition((0, 0, 0), (4, 4, 8)))
        InvariantChecker().check(torus)

    def test_wrapping_allocation(self):
        torus = Torus(DIMS)
        torus.allocate(3, Partition((3, 3, 7), (2, 2, 2)))
        InvariantChecker().check(torus)

    def test_after_release(self):
        torus = Torus(DIMS)
        torus.allocate(0, Partition((0, 0, 0), (2, 2, 2)))
        torus.allocate(1, Partition((2, 2, 2), (2, 2, 2)))
        torus.release(0)
        InvariantChecker().check(torus)

    @given(st.integers(0, 2**32 - 1))
    def test_random_states_always_clean(self, seed):
        """Any state reachable through allocate/release passes."""
        torus = random_torus(DIMS, seed)
        InvariantChecker().check(torus)

    def test_checks_run_accumulates(self):
        checker = InvariantChecker()
        torus = Torus(DIMS)
        for _ in range(5):
            checker.check(torus)
        assert checker.checks_run == 5


class TestCorruptedStates:
    def test_free_node_stamped_with_bogus_id(self):
        torus = random_torus(DIMS, 0)
        torus.grid[0, 0, 0] = 777 if torus.grid[0, 0, 0] == FREE else FREE
        with pytest.raises(InvariantViolationError):
            InvariantChecker().check(torus)

    def test_occupied_node_stamped_free(self):
        torus = Torus(DIMS)
        torus.allocate(0, Partition((0, 0, 0), (2, 2, 2)))
        torus.grid[1, 1, 1] = FREE
        with pytest.raises(InvariantViolationError, match="free-count|holds"):
            InvariantChecker().check(torus)

    def test_wrong_owner_in_grid(self):
        torus = Torus(DIMS)
        torus.allocate(0, Partition((0, 0, 0), (2, 2, 2)))
        torus.allocate(1, Partition((2, 2, 2), (2, 2, 2)))
        torus.grid[0, 0, 0] = 1  # node belongs to job 0
        with pytest.raises(InvariantViolationError, match="job 0"):
            InvariantChecker().check(torus)

    def test_overlapping_map_entries(self):
        torus = Torus(DIMS)
        torus.allocate(0, Partition((0, 0, 0), (2, 2, 2)))
        # Forge an overlapping entry directly in the map.
        torus._allocations[1] = Partition((1, 1, 1), (2, 2, 2))
        with pytest.raises(InvariantViolationError, match="overlap"):
            InvariantChecker().check(torus)

    def test_negative_job_id_in_map(self):
        torus = Torus(DIMS)
        torus._allocations[-3] = Partition((0, 0, 0), (1, 1, 1))
        with pytest.raises(InvariantViolationError, match="negative job id"):
            InvariantChecker().check(torus)

    def test_partition_not_fitting_machine(self):
        torus = Torus(DIMS)
        torus._allocations[0] = Partition((0, 0, 0), (5, 1, 1))
        with pytest.raises(Exception):
            InvariantChecker().check(torus)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_any_corruption_detected(self, state_seed, corrupt_seed):
        """Acceptance: a deliberately corrupted grid always raises."""
        torus = random_torus(DIMS, state_seed)
        corrupt_random_node(torus, corrupt_seed)
        with pytest.raises(InvariantViolationError):
            InvariantChecker().check(torus)


class TestAgainstTorusBuiltin:
    """The two independent occupancy checkers must agree."""

    @given(st.integers(0, 2**32 - 1))
    def test_both_accept_clean(self, seed):
        torus = random_torus(TorusDims(3, 3, 4), seed)
        check_rebuilt_grid(torus)
        InvariantChecker().check(torus)

    @given(st.integers(0, 2**32 - 1))
    def test_both_reject_corrupt(self, seed):
        torus = random_torus(TorusDims(3, 3, 4), seed)
        corrupt_random_node(torus, seed)
        with pytest.raises(Exception):
            check_rebuilt_grid(torus)
        with pytest.raises(InvariantViolationError):
            InvariantChecker().check(torus)
