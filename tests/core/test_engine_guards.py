"""Engine guard rails: event budgets, allocations iterator, dispatch abort."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.jobstate import JobState
from repro.core.policies import KrevatPolicy
from repro.core.simulator import Simulator, simulate
from repro.errors import SimulationError
from repro.failures.events import FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from repro.workloads.job import Job, Workload

D = BGL_SUPERNODE_DIMS
N = D.volume


class TestEventBudget:
    def test_budget_exhaustion_raises(self):
        jobs = tuple(Job(i, float(i), 1, 10.0) for i in range(20))
        workload = Workload("t", N, jobs)
        config = SimulationConfig(max_events=5)
        with pytest.raises(SimulationError, match="event budget"):
            simulate(workload, FailureLog(N), KrevatPolicy(), config)

    def test_generous_budget_fine(self):
        jobs = tuple(Job(i, float(i), 1, 10.0) for i in range(20))
        workload = Workload("t", N, jobs)
        report = simulate(workload, FailureLog(N), KrevatPolicy(), SimulationConfig())
        assert report.timing.n_jobs == 20


class TestTorusAllocationsView:
    def test_allocations_iterates_pairs(self):
        t = Torus(D)
        t.allocate(3, Partition((0, 0, 0), (1, 1, 1)))
        t.allocate(5, Partition((2, 2, 2), (1, 1, 2)))
        pairs = dict(t.allocations())
        assert set(pairs) == {3, 5}
        assert pairs[5].size == 2
        assert t.n_jobs == 2


class TestAbortDispatch:
    def test_abort_rolls_back(self):
        s = JobState(Job(0, 0.0, 4, 100.0))
        epoch = s.dispatch(10.0, 100.0)
        s.abort_dispatch()
        assert not s.running
        assert s.restarts == 0
        # The aborted epoch can never deliver a stale FINISH.
        assert s.epoch > epoch

    def test_abort_without_dispatch_rejected(self):
        s = JobState(Job(0, 0.0, 4, 100.0))
        with pytest.raises(SimulationError):
            s.abort_dispatch()


class TestSimulatorConstruction:
    def test_states_created_per_job(self):
        jobs = tuple(Job(i, float(i), 2, 50.0) for i in range(5))
        sim = Simulator(Workload("t", N, jobs), FailureLog(N), KrevatPolicy())
        assert set(sim.states) == {0, 1, 2, 3, 4}
        assert len(sim.events) == 5  # arrivals only, no failures

    def test_failure_events_enqueued(self):
        from repro.failures.events import FailureEvent

        log = FailureLog(N, [FailureEvent(5.0, 1), FailureEvent(9.0, 2)])
        sim = Simulator(
            Workload("t", N, (Job(0, 0.0, 1, 10.0),)), log, KrevatPolicy()
        )
        assert len(sim.events) == 3



class TestUnplaceableHead:
    """``submit_job`` refuses sizes without a box shape, so the EASY
    shadow can only be infinite for a head injected past it."""

    def test_shadow_filter_raises_once_a_waiting_job_needs_it(self):
        jobs = (Job(0, 0.0, N, 100.0), Job(2, 1.0, N, 10.0))
        sim = Simulator(Workload("t", N, jobs), FailureLog(N), KrevatPolicy())
        # 11 is prime and exceeds every axis of 4x4x8: no shape exists.
        head = JobState(Job(1, 0.0, 11, 10.0))
        sim.states[1] = head
        sim.wait.push(head)
        sim._target += 1
        # While job 0 fills the machine no waiting size fits, so the
        # backfill walk returns before it needs the head's shadow.
        assert sim.pump(horizon=50.0) == 2
        assert [js.job_id for js in sim.wait] == [1, 2]
        # Job 0 finishes: job 2 fits, the walk asks for the shadow, and
        # an infinite one is a hard error rather than a filter.
        with pytest.raises(SimulationError, match="cannot fit even an empty machine"):
            sim.drain()
