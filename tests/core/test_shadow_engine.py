"""Cross-validation of the shadow-time engine.

:class:`~repro.core.backfill.ShadowTimeEngine` (release replay answered
by the placement index — on the incremental index a cumulative sum of
overlap patches against the window-sum tensor, on the rebuild index an
integral rebuild per release — plus per-``(version, size)`` memoisation)
must agree exactly with :func:`~repro.testing.shadow_time_naive`
(full grid copy + fresh ReferencePlacementIndex per release) on
every machine state.  The hypothesis sweeps below pin their own
``max_examples`` so at least 120 random torus states are exercised
regardless of the active profile.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.mfp import IndexCache
from repro.core.backfill import ShadowTimeEngine
from repro.core.jobstate import JobState
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from repro.testing import RebuildIndexCache, random_torus, shadow_time_naive
from repro.workloads.job import Job

D = BGL_SUPERNODE_DIMS

#: Head sizes worth probing: schedulable, awkward, and impossible (11 is
#: a prime exceeding every axis of 4x4x8, so no box shape exists).
HEAD_SIZES = (1, 2, 5, 8, 11, 16, 32, 64, 100, 128)


def running_states(
    torus: Torus, est_finishes: list[float]
) -> list[JobState]:
    """One running JobState per allocation, with assigned est finishes."""
    states = []
    for i, (job_id, partition) in enumerate(torus.allocations()):
        js = JobState(Job(job_id, 0.0, partition.size, 100.0, 100.0))
        js.dispatch(
            0.0, 100.0, est_finishes[i % len(est_finishes)] if est_finishes else 50.0
        )
        states.append(js)
    return states


class TestEngineMatchesNaive:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        est_finishes=st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=6,
        ),
        head_size=st.sampled_from(HEAD_SIZES),
        now=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    )
    def test_random_states_agree(self, seed, est_finishes, head_size, now):
        torus = random_torus(D, rng=seed)
        running = running_states(torus, est_finishes)
        expected = shadow_time_naive(torus, running, head_size, now)
        engine = ShadowTimeEngine(torus, IndexCache(torus))
        assert engine.shadow_time(running, head_size, now) == expected
        # Cached repeat (same torus version) must return the same value.
        assert engine.shadow_time(running, head_size, now) == expected

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        est_finishes=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
    )
    def test_both_index_kinds_agree_on_every_head_size(self, seed, est_finishes):
        """Tensor replay (incremental cache) and integral-rebuild replay
        (rebuild cache) both equal the naive oracle — impossible size 11
        and the full-span shapes of 32/64/128 included."""
        torus = random_torus(D, rng=seed)
        running = running_states(torus, est_finishes)
        for cache_type in (IndexCache, RebuildIndexCache):
            engine = ShadowTimeEngine(torus, cache_type(torus))
            for size in HEAD_SIZES:
                assert engine.shadow_time(
                    running, size, 0.0
                ) == shadow_time_naive(torus, running, size, 0.0), (
                    cache_type, size,
                )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_replay_on_a_patched_index(self, seed):
        """The shared cache repairs its index by journal replay between
        queries; the replay must read the patched tensor, not a stale
        one."""
        torus = random_torus(D, rng=seed)
        cache = IndexCache(torus)
        engine = ShadowTimeEngine(torus, cache)
        running = running_states(torus, [10.0, 40.0, 90.0, 20.0])
        for js in sorted(running, key=lambda js: js.job_id)[:3]:
            for size in HEAD_SIZES:
                assert engine.shadow_time(
                    running, size, 5.0
                ) == shadow_time_naive(torus, running, size, 5.0)
            torus.release(js.job_id)
            js.complete(5.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        head_size=st.sampled_from((1, 4, 8, 16, 64)),
    )
    def test_tied_estimates_break_by_job_id(self, seed, head_size):
        """All-equal est finishes force the job-id tiebreak everywhere."""
        torus = random_torus(D, rng=seed)
        running = running_states(torus, [250.0])
        expected = shadow_time_naive(torus, running, head_size, 0.0)
        assert ShadowTimeEngine(torus, IndexCache(torus)).shadow_time(running, head_size, 0.0) == expected

    def test_non_running_states_ignored(self):
        torus = Torus(D)
        torus.allocate(1, Partition((0, 0, 0), (4, 4, 8)))
        js = JobState(Job(1, 0.0, 128, 100.0, 100.0))
        js.dispatch(0.0, 100.0, 75.0)
        js.complete(75.0)
        torus.release(1)
        # A completed job in the running list must not be replayed.
        assert ShadowTimeEngine(torus, IndexCache(torus)).shadow_time([js], 8, 10.0) == 10.0


class TestEngineCache:
    def _machine_with_two_jobs(self):
        torus = Torus(D)
        a = JobState(Job(1, 0.0, 64, 100.0, 100.0))
        a.dispatch(0.0, 100.0, 100.0)
        torus.allocate(1, Partition((0, 0, 0), (4, 4, 4)))
        b = JobState(Job(2, 0.0, 64, 200.0, 200.0))
        b.dispatch(0.0, 200.0, 200.0)
        torus.allocate(2, Partition((0, 0, 4), (4, 4, 4)))
        return torus, [a, b]

    def test_replay_runs_once_per_version_and_size(self, monkeypatch):
        torus, running = self._machine_with_two_jobs()
        engine = ShadowTimeEngine(torus, IndexCache(torus))
        calls = []
        inner = ShadowTimeEngine._first_fit_time

        def counting(self, run, size):
            calls.append(size)
            return inner(self, run, size)

        monkeypatch.setattr(ShadowTimeEngine, "_first_fit_time", counting)
        assert engine.shadow_time(running, 64, 0.0) == 100.0
        assert engine.shadow_time(running, 64, 10.0) == 100.0
        assert engine.shadow_time(running, 64, 150.0) == 150.0
        assert calls == [64]  # one replay serves all three queries
        assert engine.shadow_time(running, 128, 0.0) == 200.0
        assert calls == [64, 128]

    def test_cache_invalidated_on_torus_mutation(self):
        torus, running = self._machine_with_two_jobs()
        engine = ShadowTimeEngine(torus, IndexCache(torus))
        assert engine.shadow_time(running, 64, 0.0) == 100.0
        # Job 1 finishes early: release frees a 64-box immediately.
        torus.release(1)
        running[0].complete(50.0)
        assert engine.shadow_time(running, 64, 50.0) == 50.0
        assert engine.shadow_time(running, 64, 50.0) == shadow_time_naive(
            torus, running, 64, 50.0
        )

    def test_impossible_size_is_inf(self):
        torus, running = self._machine_with_two_jobs()
        assert math.isinf(ShadowTimeEngine(torus, IndexCache(torus)).shadow_time(running, 11, 0.0))

    def test_scratch_never_mutates_the_torus(self):
        torus, running = self._machine_with_two_jobs()
        before = torus.grid.copy()
        version = torus.version
        ShadowTimeEngine(torus, IndexCache(torus)).shadow_time(running, 128, 0.0)
        assert np.array_equal(torus.grid, before)
        assert torus.version == version

    def test_small_dims_regression(self):
        """Engine agrees with naive on a non-BGL geometry too."""
        dims = TorusDims(2, 3, 4)
        for seed in range(20):
            torus = random_torus(dims, rng=seed, attempts=6)
            running = running_states(torus, [30.0, 60.0, 90.0])
            for size in (1, 2, 6, 12, 24, 7):
                for now in (0.0, 45.0):
                    assert ShadowTimeEngine(torus, IndexCache(torus)).shadow_time(
                        running, size, now
                    ) == shadow_time_naive(torus, running, size, now)
