"""Tests for the three placement policies."""

from __future__ import annotations

import pytest

from repro.allocation.mfp import PlacementIndex
from repro.core.jobstate import JobState
from repro.core.policies import BalancingPolicy, KrevatPolicy, TieBreakPolicy, make_policy
from repro.errors import SimulationError
from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from repro.prediction import BalancingPredictor, TieBreakPredictor
from repro.workloads.job import Job
from tests.oracles import ReferencePlacementIndex

D = BGL_SUPERNODE_DIMS


def js(size=8, estimate=1000.0, job_id=0) -> JobState:
    return JobState(Job(job_id, 0.0, size, estimate, estimate))


def empty_log() -> FailureLog:
    return FailureLog(D.volume)


def log_at(coord, when=500.0) -> FailureLog:
    return FailureLog(D.volume, [FailureEvent(when, D.index(coord))])


class TestKrevatPolicy:
    def test_places_on_empty_machine(self):
        t = Torus(D)
        part = KrevatPolicy().choose_partition(PlacementIndex(t), js(8), 0.0)
        assert part is not None and part.size == 8

    def test_none_when_no_partition(self):
        t = Torus(D)
        t.allocate(99, Partition((0, 0, 0), (4, 4, 8)))
        assert KrevatPolicy().choose_partition(PlacementIndex(t), js(1), 0.0) is None

    def test_prefers_minimal_mfp_loss(self):
        """With one corner occupied, placing next to it preserves MFP."""
        t = Torus(D)
        t.allocate(99, Partition((0, 0, 0), (4, 4, 4)))  # half machine busy
        index = ReferencePlacementIndex(t)
        part = KrevatPolicy().choose_partition(PlacementIndex(t), js(8), 0.0)
        assert index.mfp_loss(part) == min(
            loss for _, loss in index.scored_candidates(8)
        )

    def test_deterministic(self):
        t = Torus(D)
        t.allocate(99, Partition((1, 2, 3), (2, 2, 2)))
        a = KrevatPolicy().choose_partition(PlacementIndex(t), js(4), 0.0)
        b = KrevatPolicy().choose_partition(PlacementIndex(t), js(4), 0.0)
        assert a == b


class TestBalancingPolicy:
    def test_avoids_predicted_failure_when_free(self):
        """A flagged node inside one candidate pushes the job elsewhere."""
        t = Torus(D)
        policy = BalancingPolicy(BalancingPredictor(log_at((0, 0, 0)), 0.9))
        part = policy.choose_partition(PlacementIndex(t), js(8, estimate=1000.0), 0.0)
        assert not part.contains(D, (0, 0, 0))

    def test_zero_confidence_matches_krevat(self):
        t = Torus(D)
        t.allocate(99, Partition((0, 1, 2), (2, 2, 3)))
        balancing = BalancingPolicy(BalancingPredictor(log_at((3, 3, 3)), 0.0))
        for size in (1, 4, 8, 16):
            assert balancing.choose_partition(
                PlacementIndex(t), js(size), 0.0
            ) == KrevatPolicy().choose_partition(PlacementIndex(t), js(size), 0.0)

    def test_flag_outside_window_ignored(self):
        t = Torus(D)
        policy = BalancingPolicy(BalancingPredictor(log_at((0, 0, 0), when=5000.0), 0.9))
        krevat = KrevatPolicy().choose_partition(PlacementIndex(t), js(8, estimate=1000.0), 0.0)
        chosen = policy.choose_partition(PlacementIndex(t), js(8, estimate=1000.0), 0.0)
        assert chosen == krevat

    def test_accepts_doomed_partition_when_it_is_the_only_one(self):
        t = Torus(D)
        # Fill everything except one 1x1x2 strip containing a flagged node.
        t.allocate(99, Partition((0, 0, 2), (4, 4, 6)))
        t.allocate(98, Partition((0, 0, 0), (4, 4, 2)))
        t.release(98)
        t.allocate(98, Partition((0, 1, 0), (4, 3, 2)))
        t.allocate(97, Partition((1, 0, 0), (3, 1, 2)))
        policy = BalancingPolicy(BalancingPredictor(log_at((0, 0, 0)), 1.0))
        part = policy.choose_partition(PlacementIndex(t), js(2, estimate=1000.0), 0.0)
        assert part is not None
        assert part.contains(D, (0, 0, 0))

    def test_none_when_full(self):
        t = Torus(D)
        t.allocate(99, Partition((0, 0, 0), (4, 4, 8)))
        policy = BalancingPolicy(BalancingPredictor(empty_log(), 0.5))
        assert policy.choose_partition(PlacementIndex(t), js(1), 0.0) is None


class TestTieBreakPolicy:
    def test_breaks_tie_away_from_flagged(self):
        t = Torus(D)
        policy = TieBreakPolicy(TieBreakPredictor(log_at((0, 0, 0)), 1.0, seed=0))
        part = policy.choose_partition(PlacementIndex(t), js(8, estimate=1000.0), 0.0)
        assert not part.contains(D, (0, 0, 0))

    def test_never_leaves_tied_set(self):
        """Unlike balancing, tie-break never trades MFP for stability."""
        t = Torus(D)
        t.allocate(99, Partition((0, 0, 0), (4, 4, 4)))
        index = ReferencePlacementIndex(t)
        min_loss = min(loss for _, loss in index.scored_candidates(8))
        policy = TieBreakPolicy(TieBreakPredictor(log_at((2, 2, 6)), 1.0, seed=0))
        part = policy.choose_partition(PlacementIndex(t), js(8, estimate=1000.0), 0.0)
        assert index.mfp_loss(part) == min_loss

    def test_all_tied_doomed_falls_back_to_first(self):
        t = Torus(D)
        t.allocate(99, Partition((0, 0, 2), (4, 4, 6)))  # only z in {0,1} free
        # Flag every free node.
        events = [
            FailureEvent(500.0, D.index((x, y, z)))
            for x in range(4)
            for y in range(4)
            for z in (0, 1)
        ]
        log = FailureLog(D.volume, events)
        policy = TieBreakPolicy(TieBreakPredictor(log, 1.0, seed=0))
        part = policy.choose_partition(PlacementIndex(t), js(4, estimate=1000.0), 0.0)
        assert part is not None  # arbitrary choice, but a choice

    def test_zero_accuracy_matches_krevat(self):
        t = Torus(D)
        t.allocate(99, Partition((2, 0, 1), (2, 2, 2)))
        policy = TieBreakPolicy(TieBreakPredictor(log_at((0, 0, 0)), 0.0, seed=0))
        assert policy.choose_partition(
            PlacementIndex(t), js(8), 0.0
        ) == KrevatPolicy().choose_partition(PlacementIndex(t), js(8), 0.0)


class TestRegistry:
    def test_krevat_needs_no_log(self):
        assert isinstance(make_policy("krevat"), KrevatPolicy)

    def test_fault_aware_need_log(self):
        with pytest.raises(SimulationError):
            make_policy("balancing")
        with pytest.raises(SimulationError):
            make_policy("tiebreak")

    def test_construction(self):
        log = empty_log()
        assert isinstance(make_policy("balancing", log, 0.5), BalancingPolicy)
        assert isinstance(make_policy("tiebreak", log, 0.5), TieBreakPolicy)

    def test_unknown(self):
        with pytest.raises(SimulationError, match="unknown policy"):
            make_policy("random")
