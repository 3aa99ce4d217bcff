"""Load harness: pacing validation, response accounting, reporting."""

from __future__ import annotations

import pytest

from repro.api import SimulationSetup
from repro.errors import ServeError
from repro.serve.client import InprocClient
from repro.serve.engine import ServeEngine
from repro.serve.load import LoadReport, run_load, workload_messages
from repro.workloads.job import Job, Workload


def tiny_workload(n: int = 6) -> Workload:
    jobs = tuple(Job(i, float(i * 10), 2, 30.0) for i in range(n))
    return Workload("tiny", 64, jobs)


class TestWorkloadMessages:
    def test_round_robin_tenants(self):
        messages = workload_messages(tiny_workload(), tenants=("a", "b"))
        assert [m["tenant"] for m in messages] == ["a", "b", "a", "b", "a", "b"]
        assert all(m["op"] == "submit" for m in messages)

    def test_requires_a_tenant(self):
        with pytest.raises(ServeError, match="tenant"):
            workload_messages(tiny_workload(), tenants=())


class TestRunLoadValidation:
    def client(self):
        setup = SimulationSetup(site="sdsc", n_jobs=10, seed=1)
        return InprocClient(ServeEngine.from_setup(setup))

    def test_acceleration_and_rate_are_exclusive(self):
        with pytest.raises(ServeError, match="mutually exclusive"):
            run_load(self.client(), tiny_workload(), acceleration=10.0, rate=5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"acceleration": 0.0},
            {"rate": -1.0},
            # A NaN or infinite pace used to run the load at full speed.
            {"acceleration": float("nan")},
            {"rate": float("nan")},
            {"acceleration": float("inf")},
            {"rate": float("inf")},
        ],
    )
    def test_pacing_must_be_positive(self, kwargs):
        with pytest.raises(ServeError, match="positive"):
            run_load(self.client(), tiny_workload(), **kwargs)

    def test_pipeline_depth_must_be_positive(self):
        with pytest.raises(ServeError, match="pipeline_depth"):
            run_load(self.client(), tiny_workload(), pipeline_depth=0)


class TestAccounting:
    def test_full_speed_replay_counts_everything(self):
        setup = SimulationSetup(site="sdsc", n_jobs=30, seed=2)
        report = run_load(
            InprocClient(ServeEngine.from_setup(setup)), setup.build_workload()
        )
        assert report.submitted == 30
        assert report.accepted == 30
        assert report.rejected == 0 and report.errors == 0
        assert report.dropped == 0
        assert report.throughput > 0
        assert report.p50_ms <= report.p99_ms <= report.max_ms
        assert report.final_report is not None

    def test_rejects_and_errors_are_separated(self):
        setup = SimulationSetup(site="sdsc", n_jobs=10, seed=3)
        engine = ServeEngine.from_setup(
            setup, clock="logical", tenant_cap=2, engine_cap=1
        )
        big = Workload(
            "overload", 512, tuple(Job(i, 0.0, 64, 1e6) for i in range(10))
        )
        report = run_load(InprocClient(engine), big, drain=False)
        assert report.accepted == 3  # 1 in-engine + 2 queued
        assert report.rejected == 7
        assert report.errors == 0

    def test_error_samples_capture_failures(self):
        setup = SimulationSetup(site="sdsc", n_jobs=10, seed=4)
        engine = ServeEngine.from_setup(setup, clock="logical")
        bad = Workload(
            "bad", 512, tuple(Job(i, 0.0, 499, 60.0) for i in range(3))
        )  # 499 is prime and > any torus side: no rectangular partition
        report = run_load(InprocClient(engine), bad, drain=False)
        assert report.errors == 3
        assert report.error_samples
        assert "no rectangular partition" in report.error_samples[0]

    def test_paced_replay_respects_acceleration(self):
        """Two jobs 10 simulated seconds apart at 100x → >= 0.1s elapsed."""
        setup = SimulationSetup(site="sdsc", n_jobs=10, seed=5)
        engine = ServeEngine.from_setup(setup, clock="logical")
        report = run_load(
            InprocClient(engine), tiny_workload(2), acceleration=100.0, drain=False
        )
        assert report.elapsed_s >= 0.1

    def test_report_serialisation(self):
        report = LoadReport(
            submitted=5,
            accepted=4,
            rejected=1,
            errors=0,
            responses=5,
            elapsed_s=0.5,
            throughput=10.0,
            p50_ms=1.0,
            p99_ms=2.0,
            max_ms=3.0,
        )
        data = report.to_dict()
        assert data["dropped"] == 0
        assert "final_report" not in data
        assert any("throughput" in line for line in report.summary_lines())
