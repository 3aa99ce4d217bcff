"""Additional failure-semantics and accounting edge cases."""

from __future__ import annotations

import pytest

from repro.core.config import BackfillMode, SimulationConfig
from repro.core.policies import KrevatPolicy, TieBreakPolicy
from repro.core.simulator import simulate
from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.prediction import TieBreakPredictor
from repro.workloads.job import Job, Workload

pytestmark = pytest.mark.usefixtures("checked_engine")

D = BGL_SUPERNODE_DIMS
N = D.volume


def wl(*jobs: Job) -> Workload:
    return Workload("t", N, tuple(jobs))


class TestBurstSemantics:
    def test_simultaneous_failures_on_one_job_kill_once(self):
        # Three nodes of the same running job fail at the same instant:
        # one kill, one restart, later failures in the batch are idle.
        log = FailureLog(
            N,
            [FailureEvent(50.0, D.index((0, 0, 0))),
             FailureEvent(50.0, D.index((0, 0, 1))),
             FailureEvent(50.0, D.index((0, 1, 0)))],
        )
        report = simulate(wl(Job(0, 0.0, 128, 100.0)), log, KrevatPolicy(), SimulationConfig())
        rec = report.records[0]
        assert rec.restarts == 1
        assert report.counters.failures_hit_jobs == 1
        # The re-dispatch happens in the same batch's scheduler pass
        # (after all 3 events), so the remaining two land on the fresh
        # run only if they are in a *later* batch — here they are not.
        assert report.counters.failures_idle == 2

    def test_burst_spanning_batches_can_kill_twice(self):
        log = FailureLog(
            N,
            [FailureEvent(50.0, D.index((0, 0, 0))),
             FailureEvent(51.0, D.index((0, 0, 1)))],
        )
        report = simulate(wl(Job(0, 0.0, 128, 100.0)), log, KrevatPolicy(), SimulationConfig())
        assert report.records[0].restarts == 2
        assert report.records[0].finish == pytest.approx(151.0)

    def test_failure_before_any_arrival(self):
        log = FailureLog(N, [FailureEvent(0.0, 5)])
        report = simulate(wl(Job(0, 100.0, 8, 50.0)), log, KrevatPolicy(), SimulationConfig())
        assert report.records[0].restarts == 0
        assert report.counters.failures_idle == 1

    def test_failures_after_all_jobs_done_ignored(self):
        log = FailureLog(N, [FailureEvent(10_000.0, 0)])
        report = simulate(wl(Job(0, 0.0, 8, 50.0)), log, KrevatPolicy(), SimulationConfig())
        # Simulation ends at the last completion; trailing failures are
        # never processed.
        assert report.counters.failures_total == 0

    def test_lost_work_appears_in_capacity(self):
        log = FailureLog(N, [FailureEvent(80.0, 0)])
        report = simulate(wl(Job(0, 0.0, 128, 100.0)), log, KrevatPolicy(), SimulationConfig())
        # Span 180 s: 80 s destroyed + 100 s useful on the full machine.
        assert report.capacity.utilized == pytest.approx(100.0 / 180.0)
        assert report.capacity.lost == pytest.approx(80.0 / 180.0)
        assert report.capacity.unused == pytest.approx(0.0, abs=1e-12)


class TestTieBreakInSimulation:
    def test_tiebreak_policy_runs_end_to_end(self):
        log = FailureLog(N, [FailureEvent(50.0, D.index((0, 0, 0)))])
        policy = TieBreakPolicy(TieBreakPredictor(log, 1.0, seed=0))
        report = simulate(wl(Job(0, 0.0, 64, 100.0)), log, policy, SimulationConfig())
        # Perfect tie-break prediction steers the job off the failing
        # node (all 64-node placements tie on an empty machine).
        assert report.records[0].restarts == 0


class TestStressScenarios:
    def test_many_small_jobs_with_failures(self):
        jobs = tuple(Job(i, i * 5.0, 1, 60.0) for i in range(150))
        log = FailureLog(
            N, [FailureEvent(100.0 + 37.0 * k, (k * 13) % N) for k in range(25)]
        )
        report = simulate(wl(*jobs), log, KrevatPolicy(), SimulationConfig())
        assert report.timing.n_jobs == 150
        cap = report.capacity
        assert cap.utilized + cap.unused + cap.lost == pytest.approx(1.0)

    def test_no_backfill_with_failures_still_completes(self):
        jobs = tuple(Job(i, i * 50.0, 32 if i % 3 else 128, 400.0) for i in range(30))
        log = FailureLog(
            N, [FailureEvent(500.0 * k + 123.0, (k * 29) % N) for k in range(12)]
        )
        report = simulate(
            wl(*jobs), log, KrevatPolicy(), SimulationConfig(backfill=BackfillMode.NONE)
        )
        assert report.timing.n_jobs == 30

    def test_migration_cost_with_failures(self):
        jobs = tuple(Job(i, i * 20.0, 16, 300.0) for i in range(40))
        log = FailureLog(N, [FailureEvent(700.0 + k * 211.0, (k * 7) % N) for k in range(10)])
        report = simulate(
            wl(*jobs), log, KrevatPolicy(), SimulationConfig(migration=True, migration_cost_s=30.0)
        )
        assert report.timing.n_jobs == 40
        assert report.capacity.lost >= 0
