"""Unit tests for the finder cross-validator (mechanics + negatives).

The heavy ≥100-state property sweep lives in
``tests/test_property_finders.py``; this module checks the validator
itself — that it accepts the shipped finders and *rejects* finders that
lie, miss results, duplicate or reorder.
"""

from __future__ import annotations

import pytest

from repro.allocation.base import PartitionFinder
from repro.allocation.fast import FastFinder
from repro.allocation.naive import NaiveFinder
from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from tests.oracles import (
    CrossValidationError,
    CrossValidator,
    default_finders,
    random_torus,
)

DIMS = TorusDims(3, 3, 4)


class LyingFinder(PartitionFinder):
    """Wraps a real finder and tampers with its output."""

    name = "lying"

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self._inner = FastFinder()

    def find_free(self, torus, size):
        out = self._inner.find_free(torus, size)
        if self.mode == "drop" and out:
            return out[:-1]
        if self.mode == "extra":
            # Claim a partition that overlaps whatever is allocated.
            return out + [out[0]] if out else [Partition((0, 0, 0), (1, 1, 1))]
        if self.mode == "reorder" and len(out) > 1:
            return out[::-1]
        return out


class TestValidatorMechanics:
    def test_default_finder_set(self):
        validator = CrossValidator()
        assert validator.labels == ["naive", "pop", "fast-vectorized", "fast-scan"]

    def test_needs_two_finders(self):
        with pytest.raises(CrossValidationError):
            CrossValidator([NaiveFinder()])

    def test_agreement_on_empty_machine(self):
        agreed = CrossValidator().compare(Torus(DIMS), 4)
        assert agreed  # plenty of free partitions of size 4
        for part in agreed:
            assert part.size == 4

    def test_agreement_on_full_machine(self):
        torus = Torus(DIMS)
        torus.allocate(0, Partition((0, 0, 0), (3, 3, 4)))
        assert CrossValidator().compare(torus, 4) == frozenset()

    def test_compare_all_sizes_counts(self):
        validator = CrossValidator()
        result = validator.compare_all_sizes(Torus(DIMS))
        assert validator.comparisons_run == len(result)
        assert set(result) == {1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 36}

    def test_canonical_sets_keys(self):
        sets = CrossValidator().canonical_sets(Torus(DIMS), 2)
        assert set(sets) == {"naive", "pop", "fast-vectorized", "fast-scan"}
        assert len(set(map(frozenset, sets.values()))) == 1


class TestValidatorCatchesLies:
    def test_dropped_partition_detected(self):
        validator = CrossValidator([NaiveFinder(), LyingFinder("drop")])
        with pytest.raises(CrossValidationError, match="disagreement"):
            validator.compare(Torus(DIMS), 4)

    def test_occupied_partition_detected(self):
        torus = Torus(DIMS)
        torus.allocate(0, Partition((0, 0, 0), (3, 3, 4)))
        validator = CrossValidator([NaiveFinder(), LyingFinder("extra")])
        with pytest.raises(CrossValidationError, match="not actually free"):
            validator.compare(torus, 1)

    def test_reordered_output_detected(self):
        validator = CrossValidator([NaiveFinder(), LyingFinder("reorder")])
        with pytest.raises(CrossValidationError, match="order"):
            validator.compare(Torus(DIMS), 2)

    def test_mismatch_names_offending_finder(self):
        validator = CrossValidator([NaiveFinder(), LyingFinder("drop")])
        with pytest.raises(CrossValidationError, match="lying"):
            validator.compare(Torus(DIMS), 4)


class TestFragmentedStates:
    def test_heavily_fragmented_machine(self):
        torus = random_torus(TorusDims(4, 4, 8), 7, attempts=30)
        assert torus.n_jobs > 0
        CrossValidator().compare_all_sizes(torus)

    def test_single_free_node(self):
        torus = Torus(DIMS)
        torus.allocate(0, Partition((0, 0, 0), (3, 3, 3)))
        torus.allocate(1, Partition((0, 0, 3), (3, 2, 1)))
        torus.allocate(2, Partition((0, 2, 3), (2, 1, 1)))
        assert torus.free_count == 1
        agreed = CrossValidator().compare(torus, 1)
        assert len(agreed) == 1
