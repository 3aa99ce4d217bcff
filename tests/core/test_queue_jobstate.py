"""Tests for the FCFS wait queue and per-job simulation state."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.core.jobstate import JobState, MIN_ESTIMATE_S
from repro.core.queue import WaitQueue
from repro.workloads.job import Job


def state(job_id=0, arrival=0.0, size=4, runtime=100.0, estimate=None) -> JobState:
    job = Job(job_id, arrival, size, runtime, estimate if estimate else runtime)
    return JobState(job)


class TestWaitQueue:
    def test_fcfs_order(self):
        q = WaitQueue()
        q.push(state(2, arrival=30.0))
        q.push(state(0, arrival=10.0))
        q.push(state(1, arrival=20.0))
        assert [s.job_id for s in q] == [0, 1, 2]
        assert q.head().job_id == 0

    def test_requeued_job_returns_to_front(self):
        q = WaitQueue()
        q.push(state(5, arrival=100.0))
        q.push(state(9, arrival=50.0))  # killed job with old arrival
        assert q.head().job_id == 9

    def test_ties_broken_by_id(self):
        q = WaitQueue()
        q.push(state(7, arrival=10.0))
        q.push(state(3, arrival=10.0))
        assert [s.job_id for s in q] == [3, 7]

    def test_requested_nodes(self):
        q = WaitQueue()
        q.push(state(0, size=8))
        q.push(state(1, arrival=1.0, size=16))
        assert q.requested_nodes == 24
        q.remove(q.head())
        assert q.requested_nodes == 16

    def test_duplicate_rejected(self):
        q = WaitQueue()
        s = state(0)
        q.push(s)
        with pytest.raises(SimulationError):
            q.push(s)

    def test_remove_missing(self):
        q = WaitQueue()
        with pytest.raises(SimulationError):
            q.remove(state(0))

    def test_head_on_empty(self):
        with pytest.raises(SimulationError):
            WaitQueue().head()

    def test_discard_present_and_absent(self):
        q = WaitQueue()
        queued = state(1, arrival=10.0, size=8)
        q.push(queued)
        assert q.discard(queued) is True
        assert q.requested_nodes == 0
        # Cancellation can race dispatch: absence is an answer, not an error.
        assert q.discard(queued) is False
        assert len(q) == 0

    def test_discard_leaves_other_jobs_intact(self):
        q = WaitQueue()
        keep = state(1, arrival=10.0, size=4)
        drop = state(2, arrival=20.0, size=8)
        q.push(keep)
        q.push(drop)
        assert q.discard(drop) is True
        assert [s.job_id for s in q] == [1]
        assert q.requested_nodes == 4

    def test_discard_distinguishes_same_id_different_arrival(self):
        """A cancelled-then-resubmitted id is keyed by (arrival, id):
        discarding the old life must not remove the new one."""
        q = WaitQueue()
        resubmitted = state(3, arrival=50.0)
        q.push(resubmitted)
        old_life = state(3, arrival=10.0)
        assert q.discard(old_life) is False
        assert q.find(3) is resubmitted

    def test_find_by_id(self):
        q = WaitQueue()
        a, b = state(1, arrival=10.0), state(2, arrival=20.0)
        q.push(a)
        q.push(b)
        assert q.find(2) is b
        assert q.find(99) is None

    def test_indexing_and_iteration(self):
        q = WaitQueue()
        q.push(state(0, arrival=0.0))
        q.push(state(1, arrival=1.0))
        assert q[1].job_id == 1
        assert len(list(q)) == 2


class TestWaitQueueSizeMultiset:
    """``sizes()`` is the set of distinct sizes currently waiting."""

    @staticmethod
    def check(q: WaitQueue) -> None:
        assert sorted(q.sizes()) == sorted({s.size for s in q})
        assert q.requested_nodes == sum(s.size for s in q)
        assert all(count > 0 for count in q._sizes.values())
        assert sum(q._sizes.values()) == len(q)

    def test_push_and_discard(self):
        q = WaitQueue()
        self.check(q)
        a, b, c = state(0, size=4), state(1, size=8), state(2, size=4)
        for s in (a, b, c):
            q.push(s)
            self.check(q)
        assert sorted(q.sizes()) == [4, 8]
        q.remove(a)
        assert sorted(q.sizes()) == [4, 8]  # job 2 still wants 4
        q.remove(c)
        assert sorted(q.sizes()) == [8]
        assert not q.discard(c)  # absent: multiset untouched
        self.check(q)
        q.remove(b)
        assert not q.sizes()
        self.check(q)

    def test_duplicate_push_leaves_multiset_alone(self):
        q = WaitQueue()
        q.push(state(0, size=4))
        with pytest.raises(SimulationError):
            q.push(state(0, size=4))
        self.check(q)

    def test_kill_and_repush(self):
        """A killed job re-enters with its original arrival and size."""
        q = WaitQueue()
        s = state(3, arrival=5.0, size=16)
        q.push(s)
        q.push(state(4, arrival=6.0, size=2))
        q.remove(s)  # dispatched
        assert sorted(q.sizes()) == [2]
        s.dispatch(10.0, 100.0, 110.0)
        s.kill(20.0, 0.0)
        q.push(s)
        assert q.head() is s
        assert sorted(q.sizes()) == [2, 16]
        self.check(q)

    def test_cancel_path_random_walk(self):
        """Random pushes and discards (the cancellation path) keep the
        multiset equal to a recount."""
        import random

        rng = random.Random(7)
        q = WaitQueue()
        pool = [state(i, arrival=float(i % 5), size=rng.choice((1, 2, 4, 8, 32))) for i in range(40)]
        queued: set[int] = set()
        for _ in range(400):
            s = rng.choice(pool)
            if s.job_id in queued:
                assert q.discard(s)
                queued.discard(s.job_id)
            else:
                q.push(s)
                queued.add(s.job_id)
            self.check(q)


class TestJobState:
    def test_initial_state(self):
        s = state(runtime=100.0, estimate=150.0)
        assert s.remaining_work == 100.0
        assert s.remaining_estimate == 150.0
        assert not s.running and not s.done

    def test_dispatch_and_complete(self):
        s = state(runtime=100.0)
        epoch = s.dispatch(50.0, 100.0, 150.0)
        assert epoch == 1 and s.running
        assert s.est_finish == 150.0
        s.complete(150.0)
        assert s.done
        r = s.to_record()
        assert r.wait == 50.0 and r.response == 150.0 and r.restarts == 0

    def test_double_dispatch_rejected(self):
        s = state()
        s.dispatch(0.0, 100.0, 100.0)
        with pytest.raises(SimulationError):
            s.dispatch(1.0, 100.0, 101.0)

    def test_kill_without_checkpoint_restores_full_work(self):
        s = state(runtime=100.0)
        s.dispatch(0.0, 100.0, 100.0)
        s.kill(60.0, new_saved_progress=0.0)
        assert not s.running
        assert s.restarts == 1
        assert s.remaining_work == 100.0
        assert s.lost_work == 60.0 * s.size

    def test_kill_with_checkpoint_keeps_progress(self):
        s = state(runtime=100.0, estimate=120.0)
        s.dispatch(0.0, 100.0, 100.0)
        s.kill(60.0, new_saved_progress=50.0)
        assert s.remaining_work == 50.0
        assert s.remaining_estimate == 70.0
        assert s.lost_work == pytest.approx(10.0 * s.size)

    def test_checkpoint_cannot_regress(self):
        s = state(runtime=100.0)
        s.dispatch(0.0, 100.0, 100.0)
        s.kill(60.0, new_saved_progress=50.0)
        s.dispatch(70.0, 50.0, 120.0)
        with pytest.raises(SimulationError):
            s.kill(80.0, new_saved_progress=20.0)

    def test_estimate_floor_after_deep_checkpoint(self):
        s = state(runtime=100.0, estimate=100.0)
        s.dispatch(0.0, 100.0, 100.0)
        s.kill(99.9, new_saved_progress=99.9)
        assert s.remaining_estimate >= MIN_ESTIMATE_S

    def test_kill_invalidates_epoch(self):
        s = state()
        e1 = s.dispatch(0.0, 100.0, 100.0)
        s.kill(10.0, 0.0)
        e2 = s.dispatch(20.0, 100.0, 120.0)
        assert e2 > e1 + 1  # kill also bumped the epoch

    def test_kill_while_idle_rejected(self):
        with pytest.raises(SimulationError):
            state().kill(0.0, 0.0)

    def test_complete_while_idle_rejected(self):
        with pytest.raises(SimulationError):
            state().complete(0.0)

    def test_record_before_completion_rejected(self):
        s = state()
        with pytest.raises(SimulationError):
            s.to_record()

    def test_record_after_restart(self):
        s = state(runtime=100.0)
        s.dispatch(0.0, 100.0, 100.0)
        s.kill(60.0, 0.0)
        s.dispatch(200.0, 100.0, 300.0)
        s.complete(300.0)
        r = s.to_record()
        assert r.start == 200.0
        assert r.finish == 300.0
        assert r.restarts == 1
        assert r.lost_work == 60.0 * s.size
