"""Tests for shadow-time backfilling and compaction migration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.mfp import IndexCache
from repro.core.backfill import ShadowTimeEngine
from repro.core.jobstate import JobState
from repro.core.migration import (
    CompactionPlan,
    apply_compaction,
    head_partition,
    plan_compaction,
)
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from repro.testing import RebuildIndexCache, random_torus
from repro.workloads.job import Job

D = BGL_SUPERNODE_DIMS


def running_state(job_id, size, est_finish, torus, partition) -> JobState:
    s = JobState(Job(job_id, 0.0, size, 100.0, 100.0))
    s.dispatch(0.0, est_finish, est_finish)
    torus.allocate(job_id, partition)
    return s


class TestShadowTime:
    def test_immediate_when_fits(self):
        t = Torus(D)
        assert ShadowTimeEngine(t, IndexCache(t)).shadow_time([], 8, now=50.0) == 50.0

    def test_waits_for_first_sufficient_release(self):
        t = Torus(D)
        # Two jobs cover the machine; the one finishing first frees
        # enough space for a 64-node job.
        a = running_state(1, 64, est_finish=100.0, torus=t, partition=Partition((0, 0, 0), (4, 4, 4)))
        b = running_state(2, 64, est_finish=200.0, torus=t, partition=Partition((0, 0, 4), (4, 4, 4)))
        assert ShadowTimeEngine(t, IndexCache(t)).shadow_time([a, b], 64, now=0.0) == 100.0

    def test_needs_multiple_releases(self):
        t = Torus(D)
        a = running_state(1, 64, est_finish=100.0, torus=t, partition=Partition((0, 0, 0), (4, 4, 4)))
        b = running_state(2, 64, est_finish=200.0, torus=t, partition=Partition((0, 0, 4), (4, 4, 4)))
        # Full machine needed: both must finish.
        assert ShadowTimeEngine(t, IndexCache(t)).shadow_time([a, b], 128, now=0.0) == 200.0

    def test_infinite_for_impossible_size(self):
        t = Torus(D)
        # 11 supernodes never form a box on 4x4x8.
        assert math.isinf(ShadowTimeEngine(t, IndexCache(t)).shadow_time([], 11, now=0.0))

    def test_shadow_never_before_now(self):
        t = Torus(D)
        a = running_state(1, 128, est_finish=10.0, torus=t, partition=Partition((0, 0, 0), (4, 4, 8)))
        assert ShadowTimeEngine(t, IndexCache(t)).shadow_time([a], 8, now=50.0) == 50.0


class TestCompaction:
    def test_cures_fragmentation(self):
        """Two separated blocks leave 64 free nodes but no 64-box; the
        plan must re-pack so the head fits."""
        t = Torus(D)
        a = running_state(1, 32, 100.0, t, Partition((0, 0, 0), (4, 4, 2)))
        b = running_state(2, 32, 100.0, t, Partition((0, 0, 4), (4, 4, 2)))
        head = JobState(Job(3, 0.0, 64, 100.0, 100.0))
        # Free nodes: z in {2,3,6,7} -> 64 nodes, but max box is 4x4x2=32.
        plan = plan_compaction(IndexCache(t), [a, b], head)
        assert plan is not None
        part = head_partition(plan, 3)
        assert part.size == 64
        apply_compaction(t, plan, head_id=3)
        t.allocate(3, part)
        t.check_invariants()
        assert t.free_count == 128 - 32 - 32 - 64

    def test_returns_none_when_impossible(self):
        t = Torus(D)
        a = running_state(1, 128, 100.0, t, Partition((0, 0, 0), (4, 4, 8)))
        head = JobState(Job(2, 0.0, 8, 100.0, 100.0))
        assert plan_compaction(IndexCache(t), [a], head) is None

    def test_moved_ids_exclude_unmoved(self):
        t = Torus(D)
        a = running_state(1, 64, 100.0, t, Partition((0, 0, 0), (4, 4, 4)))
        head = JobState(Job(2, 0.0, 64, 100.0, 100.0))
        plan = plan_compaction(IndexCache(t), [a], head)
        assert plan is not None
        # Largest-first places job 1 at its current corner: not moved.
        assert 2 not in plan.moved_job_ids

    def test_head_partition_lookup_error(self):
        t = Torus(D)
        head = JobState(Job(5, 0.0, 8, 100.0, 100.0))
        plan = plan_compaction(IndexCache(t), [], head)
        with pytest.raises(LookupError):
            head_partition(plan, 999)

    def test_plan_covers_all_running_and_head(self):
        t = Torus(D)
        states = [
            running_state(1, 16, 100.0, t, Partition((0, 0, 0), (4, 4, 1))),
            running_state(2, 16, 150.0, t, Partition((0, 0, 2), (4, 4, 1))),
            running_state(3, 16, 200.0, t, Partition((0, 0, 4), (4, 4, 1))),
        ]
        head = JobState(Job(4, 0.0, 32, 100.0, 100.0))
        plan = plan_compaction(IndexCache(t), states, head)
        assert plan is not None
        placed_ids = {job_id for job_id, _ in plan.placements}
        assert placed_ids == {1, 2, 3, 4}
        # Planned partitions must be pairwise disjoint.
        parts = [p for _, p in plan.placements]
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert not parts[i].overlaps(D, parts[j])


def reference_plan(torus, running, head):
    """The planner on the reference index: a from-scratch
    ``ReferencePlacementIndex`` (scalar scoring walk) per re-placed job."""
    todo = sorted(
        [js for js in running if js.running] + [head],
        key=lambda js: (-js.size, js.job.arrival, js.job_id),
    )
    scratch = Torus(torus.dims)
    cache = RebuildIndexCache(scratch)
    placements = []
    for js in todo:
        batch, losses = cache.get().batch_mfp_losses(js.size)
        if not len(batch):
            return None
        best = batch.partition(int(np.argmin(losses)))
        scratch.allocate(js.job_id, best)
        placements.append((js.job_id, best))
    moved = tuple(
        job_id
        for job_id, part in placements
        if job_id != head.job_id
        and torus.allocation_of(job_id).canonical(torus.dims)
        != part.canonical(torus.dims)
    )
    return CompactionPlan(tuple(placements), moved)


class TestPlannerMatchesRebuildReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        attempts=st.integers(min_value=1, max_value=40),
        head_size=st.sampled_from((1, 2, 6, 8, 16, 32, 64, 128)),
    )
    def test_identical_plan_on_random_running_sets(self, seed, attempts, head_size):
        torus = random_torus(D, rng=seed, attempts=attempts)
        running = []
        for job_id, partition in torus.allocations():
            js = JobState(Job(job_id, float(job_id % 3), partition.size, 100.0, 100.0))
            js.dispatch(0.0, 100.0, 100.0)
            running.append(js)
        head = JobState(Job(10_000, 0.0, head_size, 100.0, 100.0))
        # Dataclass equality: placements and moved_job_ids, or both None.
        assert plan_compaction(IndexCache(torus), running, head) == reference_plan(
            torus, running, head
        )
