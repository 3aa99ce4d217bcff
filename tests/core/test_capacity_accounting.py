"""End-to-end capacity-accounting cross-checks.

ω_util is useful work over span; these tests verify the simulator's
tracker against values computable by hand.
"""

from __future__ import annotations

import pytest

from repro.core.config import BackfillMode, SimulationConfig
from repro.core.policies import KrevatPolicy
from repro.core.simulator import simulate
from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.workloads.job import Job, Workload

pytestmark = pytest.mark.usefixtures("checked_engine")

D = BGL_SUPERNODE_DIMS
N = D.volume


def run(jobs, failures=(), **cfg_kw):
    workload = Workload("t", N, tuple(jobs))
    log = FailureLog(N, [FailureEvent(t, n) for t, n in failures])
    return simulate(workload, log, KrevatPolicy(), SimulationConfig(**cfg_kw))


class TestHandComputable:
    def test_single_job_full_machine(self):
        report = run([Job(0, 0.0, 128, 100.0)])
        assert report.capacity.utilized == pytest.approx(1.0)
        assert report.capacity.unused == pytest.approx(0.0, abs=1e-12)
        assert report.capacity.lost == pytest.approx(0.0, abs=1e-12)

    def test_half_machine_job(self):
        report = run([Job(0, 0.0, 64, 100.0)])
        # Half the machine busy; the idle half has no queued demand.
        assert report.capacity.utilized == pytest.approx(0.5)
        assert report.capacity.unused == pytest.approx(0.5)

    def test_gap_between_jobs_is_unused(self):
        # Job 0: [0, 100); job 1 arrives at 200: [200, 300). Span 300.
        report = run([Job(0, 0.0, 128, 100.0), Job(1, 200.0, 128, 100.0)])
        assert report.capacity.utilized == pytest.approx(200.0 / 300.0)
        assert report.capacity.unused == pytest.approx(100.0 / 300.0)

    def test_queued_demand_masks_unused(self):
        # Two full-machine jobs arriving together: second waits; while it
        # waits the machine is fully busy, so nothing is unused or lost.
        report = run([Job(0, 0.0, 128, 100.0), Job(1, 0.0, 128, 100.0)])
        assert report.capacity.utilized == pytest.approx(1.0)

    def test_fragmentation_counts_as_lost(self):
        # Job 0 takes half; job 1 wants the full machine: the free half
        # is denied to it (q > f), so that time is "lost", not "unused".
        report = run(
            [Job(0, 0.0, 64, 100.0), Job(1, 0.0, 128, 100.0)],
            backfill=BackfillMode.NONE,
        )
        # Span 200: 0-100 half-busy with unmet demand, 100-200 full.
        assert report.capacity.utilized == pytest.approx(
            (64 * 100 + 128 * 100) / (200.0 * 128)
        )
        assert report.capacity.unused == pytest.approx(0.0, abs=1e-12)
        assert report.capacity.lost == pytest.approx(0.25)

    def test_failure_loss_exact(self):
        # 100 s job killed at 60 s, reruns 60-160: span 160,
        # useful 100, lost 60.
        report = run([Job(0, 0.0, 128, 100.0)], failures=[(60.0, 0)])
        assert report.capacity.utilized == pytest.approx(100.0 / 160.0)
        assert report.capacity.lost == pytest.approx(60.0 / 160.0)
        assert report.timing.total_lost_work == pytest.approx(60.0 * 128)
