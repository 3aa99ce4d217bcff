"""Integration tests for the event-driven simulator."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint.model import CheckpointConfig, CheckpointMode
from repro.core.config import BackfillMode, SimulationConfig
from repro.core.policies import BalancingPolicy, KrevatPolicy
from repro.core.simulator import Simulator, simulate
from repro.errors import SimulationError
from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.prediction import BalancingPredictor
from repro.workloads.job import Job, Workload

pytestmark = pytest.mark.usefixtures("checked_engine")

D = BGL_SUPERNODE_DIMS
N = D.volume


def wl(*jobs: Job) -> Workload:
    return Workload("test", N, tuple(jobs))


def no_failures() -> FailureLog:
    return FailureLog(N)


class TestBasicRuns:
    def test_single_job(self):
        report = simulate(wl(Job(0, 0.0, 8, 100.0)), no_failures(), KrevatPolicy(), SimulationConfig())
        assert report.timing.n_jobs == 1
        rec = report.records[0]
        assert rec.wait == 0.0
        assert rec.response == 100.0
        assert rec.restarts == 0
        assert report.capacity.utilized == pytest.approx(8 * 100 / (100 * N))

    def test_empty_workload(self):
        report = simulate(wl(), no_failures(), KrevatPolicy(), SimulationConfig())
        assert report.timing.n_jobs == 0

    def test_two_independent_jobs_run_concurrently(self):
        report = simulate(
            wl(Job(0, 0.0, 64, 100.0), Job(1, 0.0, 64, 100.0)),
            no_failures(),
            KrevatPolicy(),
            SimulationConfig(),
        )
        for rec in report.records:
            assert rec.wait == 0.0

    def test_machine_sized_jobs_serialize(self):
        report = simulate(
            wl(Job(0, 0.0, 128, 100.0), Job(1, 0.0, 128, 100.0)),
            no_failures(),
            KrevatPolicy(),
            SimulationConfig(),
        )
        recs = {r.job_id: r for r in report.records}
        assert recs[0].start == 0.0
        assert recs[1].start == 100.0
        assert recs[1].wait == 100.0

    def test_fcfs_order_respected_without_backfill(self):
        # Head job (big) blocks; later small job must not overtake.
        report = simulate(
            wl(
                Job(0, 0.0, 128, 100.0),
                Job(1, 1.0, 128, 100.0),
                Job(2, 2.0, 1, 10.0),
            ),
            no_failures(),
            KrevatPolicy(),
            SimulationConfig(backfill=BackfillMode.NONE),
        )
        recs = {r.job_id: r for r in report.records}
        assert recs[2].start >= recs[1].start

    def test_aggressive_backfill_overtakes(self):
        # Job 0 takes half the machine; job 1 (head) needs all of it and
        # must wait; tiny job 2 can slot into the free half immediately.
        report = simulate(
            wl(
                Job(0, 0.0, 64, 100.0),
                Job(1, 1.0, 128, 100.0),
                Job(2, 2.0, 1, 10.0),
            ),
            no_failures(),
            KrevatPolicy(),
            SimulationConfig(backfill=BackfillMode.AGGRESSIVE),
        )
        recs = {r.job_id: r for r in report.records}
        assert recs[2].start < recs[1].start
        assert report.counters.backfills >= 1

    def test_easy_backfill_respects_shadow(self):
        # Head (job 1) reserves t=100 (job 0's estimated finish); job 2
        # estimates 200 s -> would end at 202 > 100: must NOT backfill
        # ahead of the reservation.
        report = simulate(
            wl(
                Job(0, 0.0, 64, 100.0),
                Job(1, 1.0, 128, 100.0),
                Job(2, 2.0, 1, 200.0),
            ),
            no_failures(),
            KrevatPolicy(),
            SimulationConfig(backfill=BackfillMode.EASY),
        )
        recs = {r.job_id: r for r in report.records}
        assert recs[2].start >= recs[1].start

    def test_easy_backfill_fills_short_jobs(self):
        # Same but job 2 estimates 50 s -> fits before the reservation.
        report = simulate(
            wl(
                Job(0, 0.0, 64, 100.0),
                Job(1, 1.0, 128, 100.0),
                Job(2, 2.0, 1, 50.0),
            ),
            no_failures(),
            KrevatPolicy(),
            SimulationConfig(backfill=BackfillMode.EASY),
        )
        recs = {r.job_id: r for r in report.records}
        assert recs[2].start < recs[1].start


class TestValidation:
    def test_unschedulable_size_rejected(self):
        with pytest.raises(SimulationError, match="no rectangular"):
            simulate(wl(Job(0, 0.0, 11, 10.0)), no_failures(), KrevatPolicy(), SimulationConfig())

    def test_wrong_failure_log_size_rejected(self):
        with pytest.raises(SimulationError, match="map_node_ids"):
            simulate(wl(Job(0, 0.0, 1, 1.0)), FailureLog(350), KrevatPolicy(), SimulationConfig())


class TestFailures:
    def test_failure_kills_and_restarts(self):
        # Job runs 100 s from t=0 on the whole machine; failure at t=50.
        log = FailureLog(N, [FailureEvent(50.0, 0)])
        report = simulate(wl(Job(0, 0.0, 128, 100.0)), log, KrevatPolicy(), SimulationConfig())
        rec = report.records[0]
        assert rec.restarts == 1
        assert rec.finish == 150.0          # 50 wasted + fresh 100 s run
        assert rec.lost_work == 50.0 * 128
        assert report.counters.failures_hit_jobs == 1
        assert report.counters.job_kills == 1

    def test_failure_on_idle_node_harmless(self):
        # Krevat places the 64-node job as (2,4,8) at x in {0,1}; a
        # failure at x=3 lands in the free half.
        log = FailureLog(N, [FailureEvent(50.0, D.index((3, 0, 0)))])
        report = simulate(wl(Job(0, 0.0, 64, 100.0)), log, KrevatPolicy(), SimulationConfig())
        assert report.records[0].restarts == 0
        assert report.counters.failures_idle == 1

    def test_failure_at_exact_finish_is_harmless(self):
        log = FailureLog(N, [FailureEvent(100.0, 0)])
        report = simulate(wl(Job(0, 0.0, 128, 100.0)), log, KrevatPolicy(), SimulationConfig())
        assert report.records[0].restarts == 0

    def test_repeated_failures_repeated_restarts(self):
        # Run 1: 0-50 (killed); run 2: 50-120 (killed); run 3: 120-220.
        log = FailureLog(N, [FailureEvent(50.0, 0), FailureEvent(120.0, 0)])
        report = simulate(wl(Job(0, 0.0, 128, 100.0)), log, KrevatPolicy(), SimulationConfig())
        rec = report.records[0]
        assert rec.restarts == 2
        assert rec.finish == 220.0
        assert rec.lost_work == (50.0 + 70.0) * 128

    def test_killed_job_requeues_at_head(self):
        # Two jobs: 0 running, 1 waiting. 0 killed -> it must restart
        # before 1 (original arrival priority).
        log = FailureLog(N, [FailureEvent(50.0, 0)])
        report = simulate(
            wl(Job(0, 0.0, 128, 100.0), Job(1, 1.0, 128, 100.0)),
            log,
            KrevatPolicy(),
            SimulationConfig(backfill=BackfillMode.NONE),
        )
        recs = {r.job_id: r for r in report.records}
        assert recs[0].finish == 150.0
        assert recs[1].start == 150.0

    def test_balancing_avoids_predicted_failure(self):
        # Two 64-node jobs would normally pack side by side; node (0,0,0)
        # fails at t=50. With a perfect predictor the first job (placed
        # first) avoids the failing half entirely.
        log = FailureLog(N, [FailureEvent(50.0, D.index((0, 0, 0)))])
        policy = BalancingPolicy(BalancingPredictor(log, 1.0))
        report = simulate(wl(Job(0, 0.0, 64, 100.0)), log, policy, SimulationConfig())
        assert report.records[0].restarts == 0
        assert report.counters.failures_idle == 1

    def test_krevat_suffers_where_balancing_does_not(self):
        log = FailureLog(N, [FailureEvent(50.0, 0)])
        krevat = simulate(wl(Job(0, 0.0, 64, 100.0)), log, KrevatPolicy(), SimulationConfig())
        assert krevat.records[0].restarts == 1  # placed at origin corner


class TestMigration:
    def test_compaction_unblocks_fragmented_head(self):
        # Jobs 0,1 fragment the machine (est 1000 s each); job 2 needs a
        # 64-box that only exists after compaction.  Without migration it
        # waits ~1000 s; with migration it starts immediately.
        jobs = (
            Job(0, 0.0, 32, 1000.0),
            Job(1, 0.0, 32, 1000.0),
            Job(2, 5.0, 64, 10.0),
        )

        class FragmentingPolicy(KrevatPolicy):
            """Force jobs 0/1 into z-slabs 0-1 and 4-5 (fragmented)."""

            def choose_partition(self, index, state, now):
                from repro.geometry.partition import Partition

                if state.job_id == 0:
                    return Partition((0, 0, 0), (4, 4, 2))
                if state.job_id == 1:
                    return Partition((0, 0, 4), (4, 4, 2))
                return super().choose_partition(index, state, now)

        with_migration = simulate(
            wl(*jobs), no_failures(), FragmentingPolicy(), SimulationConfig(migration=True)
        )
        without = simulate(
            wl(*jobs), no_failures(), FragmentingPolicy(), SimulationConfig(migration=False)
        )
        recs_m = {r.job_id: r for r in with_migration.records}
        recs_n = {r.job_id: r for r in without.records}
        assert recs_m[2].start == 5.0
        assert with_migration.counters.migrations == 1
        assert recs_n[2].start >= 1000.0

    def test_migration_cost_charged(self):
        jobs = (
            Job(0, 0.0, 32, 1000.0),
            Job(1, 0.0, 32, 1000.0),
            Job(2, 5.0, 64, 10.0),
        )

        class FragmentingPolicy(KrevatPolicy):
            def choose_partition(self, index, state, now):
                from repro.geometry.partition import Partition

                if state.job_id == 0:
                    return Partition((0, 0, 0), (4, 4, 2))
                if state.job_id == 1:
                    return Partition((0, 0, 4), (4, 4, 2))
                return super().choose_partition(index, state, now)

        report = simulate(
            wl(*jobs),
            no_failures(),
            FragmentingPolicy(),
            SimulationConfig(migration=True, migration_cost_s=60.0),
        )
        moved = [r for r in report.records if r.job_id in (0, 1) and r.lost_work > 0]
        assert moved, "at least one migrated job should be charged"
        for rec in moved:
            assert rec.finish >= 1060.0


class TestCheckpointIntegration:
    def test_periodic_checkpoint_reduces_lost_work(self):
        log = FailureLog(N, [FailureEvent(950.0, 0)])
        job = Job(0, 0.0, 128, 1000.0)
        plain = simulate(wl(job), log, KrevatPolicy(), SimulationConfig())
        ckpt_cfg = SimulationConfig(
            checkpoint=CheckpointConfig(
                mode=CheckpointMode.PERIODIC, interval_s=100.0, overhead_s=1.0
            )
        )
        ckpt = simulate(wl(job), log, KrevatPolicy(), ckpt_cfg)
        assert plain.records[0].lost_work == pytest.approx(950.0 * 128)
        assert ckpt.records[0].lost_work < plain.records[0].lost_work / 5
        assert ckpt.records[0].finish < plain.records[0].finish
        assert ckpt.counters.checkpoint_restores == 1

    def test_checkpoint_overhead_extends_wall_time(self):
        job = Job(0, 0.0, 128, 1000.0)
        ckpt_cfg = SimulationConfig(
            checkpoint=CheckpointConfig(
                mode=CheckpointMode.PERIODIC, interval_s=100.0, overhead_s=10.0
            )
        )
        report = simulate(wl(job), no_failures(), KrevatPolicy(), ckpt_cfg)
        assert report.records[0].finish == pytest.approx(1090.0)  # 9 checkpoints


class TestConservation:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_all_jobs_complete_and_accounting_holds(self, seed):
        rng = np.random.default_rng(seed)
        n_jobs = int(rng.integers(5, 40))
        jobs = []
        t = 0.0
        for i in range(n_jobs):
            t += float(rng.exponential(200.0))
            size = int(rng.choice([1, 2, 4, 8, 16, 32, 64, 128]))
            runtime = float(rng.uniform(10.0, 2000.0))
            jobs.append(Job(i, t, size, runtime, runtime * float(rng.uniform(1.0, 2.0))))
        n_fail = int(rng.integers(0, 20))
        events = [
            FailureEvent(float(rng.uniform(0, t + 4000)), int(rng.integers(N)))
            for _ in range(n_fail)
        ]
        log = FailureLog(N, events)
        report = simulate(wl(*jobs), log, KrevatPolicy(), SimulationConfig())
        assert report.timing.n_jobs == n_jobs
        cap = report.capacity
        assert cap.utilized + cap.unused + cap.lost == pytest.approx(1.0)
        assert 0 <= cap.utilized <= 1 and 0 <= cap.unused <= 1
        assert cap.lost >= -1e-9
        for rec in report.records:
            assert rec.finish >= rec.start >= rec.arrival
            assert rec.lost_work >= 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_determinism(self, seed):
        rng = np.random.default_rng(seed)
        jobs = [
            Job(i, float(i * 100), int(rng.choice([1, 4, 16])), 300.0, 400.0)
            for i in range(10)
        ]
        log = FailureLog(N, [FailureEvent(500.0, int(rng.integers(N)))])
        p1 = BalancingPolicy(BalancingPredictor(log, 0.5))
        p2 = BalancingPolicy(BalancingPredictor(log, 0.5))
        r1 = simulate(wl(*jobs), log, p1, SimulationConfig(seed=7))
        r2 = simulate(wl(*jobs), log, p2, SimulationConfig(seed=7))
        assert r1.records == r2.records
