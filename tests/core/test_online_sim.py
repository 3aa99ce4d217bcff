"""Steppable simulator: watermark pumping, cancel/resubmit, and the
online-equals-batch equivalence the serve subsystem is built on."""

from __future__ import annotations

import math

import pytest

from repro.api import SimulationSetup
from repro.core.arrivals import ArrivalStream, OnlineArrivalStream, TraceArrivalStream
from repro.core.config import SimulationConfig
from repro.core.policies.registry import make_policy
from repro.core.simulator import Simulator
from repro.errors import SimulationError
from repro.metrics.serialize import report_to_dict
from repro.serve.client import InprocClient
from repro.serve.engine import ServeEngine
from repro.serve.load import run_load
from repro.workloads.job import Job, Workload


def scenario(n_jobs: int = 120, seed: int = 5):
    setup = SimulationSetup(site="sdsc", n_jobs=n_jobs, seed=seed)
    workload = setup.build_workload()
    failures = setup.build_failures(workload)

    def policy():
        return make_policy(
            setup.policy,
            failure_log=failures,
            parameter=setup.parameter,
            pf_rule=setup.pf_rule,
            seed=setup.seed + 2,
        )

    return setup, workload, failures, policy


def online_sim(setup, workload, failures, policy) -> tuple[Simulator, OnlineArrivalStream]:
    empty = Workload(workload.name, workload.machine_nodes, ())
    sim = Simulator(empty, failures, policy(), setup.config, open_ended=True)
    stream = OnlineArrivalStream()
    stream.bind(sim)
    return sim, stream


class TestEquivalence:
    @pytest.mark.parametrize("pump_every", [1, 7, 1000])
    def test_online_replay_matches_batch_report(self, pump_every):
        """Feeding the trace one job at a time — pumping aggressively,
        occasionally, or only at drain — reproduces the batch report
        exactly."""
        setup, workload, failures, policy = scenario()
        batch = report_to_dict(
            Simulator(workload, failures, policy(), setup.config).run()
        )
        sim, stream = online_sim(setup, workload, failures, policy)
        for i, job in enumerate(workload.jobs):
            stream.submit(job)
            if i % pump_every == 0:
                sim.pump(horizon=stream.watermark)
        stream.close()
        assert report_to_dict(sim.drain()) == batch

    def test_trace_stream_binding_matches_batch(self):
        """The TraceArrivalStream driver is the batch construction."""
        setup, workload, failures, policy = scenario(n_jobs=60)
        batch = report_to_dict(
            Simulator(workload, failures, policy(), setup.config).run()
        )
        empty = Workload(workload.name, workload.machine_nodes, ())
        sim = Simulator(empty, failures, policy(), setup.config, open_ended=True)
        driver = TraceArrivalStream(workload)
        driver.bind(sim)
        assert driver.closed and math.isinf(driver.watermark)
        assert report_to_dict(sim.drain()) == batch

    def test_batch_pumped_and_served_runs_collect_the_same_metrics(self):
        """One faulty ``balancing`` scenario driven three ways — ``run()``,
        ``pump`` + ``drain`` behind an online stream, the service — fills
        the simulator's registry identically (wall-clock timers aside):
        every collaborator counts on the registry the simulator handed
        it, so no driver has to install anything."""
        setup = SimulationSetup(
            site="sdsc", n_jobs=150, n_failures=150, policy="balancing",
            parameter=0.1, seed=4, config=SimulationConfig(profile=True),
        )
        workload = setup.build_workload()

        batch = setup.build_simulator()
        batch.run()

        _, failures, policy = setup.build_inputs()
        empty = Workload(workload.name, workload.machine_nodes, ())
        pumped = Simulator(empty, failures, policy, setup.config, open_ended=True)
        stream = OnlineArrivalStream()
        stream.bind(pumped)
        for i, job in enumerate(workload.jobs):
            stream.submit(job)
            if i % 7 == 0:
                pumped.pump(horizon=stream.watermark)
        stream.close()
        pumped.drain()

        engine = ServeEngine.from_setup(setup)
        load = run_load(InprocClient(engine), workload)
        assert load.dropped == 0 and load.errors == 0

        metrics = [
            sim.metrics.to_dict(include_timings=False)
            for sim in (batch, pumped, engine.sim)
        ]
        assert metrics[0] == metrics[1] == metrics[2]
        for name in ("index.builds", "index.incremental.hit",
                     "index.incremental.repair", "shadow.queries",
                     "sim.dispatches", "sim.job_kills"):
            assert metrics[0]["counters"][name] > 0, name
        assert metrics[0]["histograms"]["policy.candidate_set_size"]["count"] > 0

    def test_run_is_drain_on_batch_path(self):
        setup, workload, failures, policy = scenario(n_jobs=40)
        sim = Simulator(workload, failures, policy(), setup.config)
        first = sim.run()
        assert sim.drain() is first  # cached, idempotent


class TestPumpSemantics:
    def test_pump_stops_strictly_before_horizon(self):
        """Events at exactly the watermark stay queued: a job arriving
        at that instant would join their batch and change the pass."""
        setup, workload, failures, policy = scenario(n_jobs=30)
        sim, stream = online_sim(setup, workload, failures, policy)
        first = workload.jobs[0]
        stream.submit(first)
        sim.pump(horizon=first.arrival)
        assert sim.job_status(first.job_id) == "pending"
        sim.pump(horizon=first.arrival + 1e-9)
        assert sim.job_status(first.job_id) != "pending"

    def test_pump_without_submissions_is_a_no_op(self):
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        assert sim.pump() == 0

    def test_max_batches_bounds_one_call(self):
        setup, workload, failures, policy = scenario(n_jobs=30)
        sim, stream = online_sim(setup, workload, failures, policy)
        for job in workload.jobs:
            stream.submit(job)
        stream.close()
        assert sim.pump(max_batches=3) == 3

    def test_drain_on_empty_open_ended_session(self):
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        stream.close()
        report = sim.drain()
        assert report.records == ()


class TestOnlineStreamContract:
    def test_rejects_decreasing_arrivals(self):
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        stream.submit(Job(1, 100.0, 2, 60.0))
        with pytest.raises(SimulationError, match="nondecreasing"):
            stream.submit(Job(2, 99.0, 2, 60.0))

    def test_rejects_submit_after_close(self):
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        stream.close()
        with pytest.raises(SimulationError, match="closed"):
            stream.submit(Job(1, 0.0, 2, 60.0))

    def test_unbound_stream_raises(self):
        with pytest.raises(SimulationError, match="not bound"):
            OnlineArrivalStream().submit(Job(1, 0.0, 2, 60.0))

    def test_protocol_membership(self):
        assert isinstance(OnlineArrivalStream(), ArrivalStream)
        assert isinstance(
            TraceArrivalStream(Workload("w", 4, ())), ArrivalStream
        )


class TestSubmitCancel:
    def test_duplicate_submit_rejected(self):
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        stream.submit(Job(1, 0.0, 2, 60.0))
        with pytest.raises(SimulationError, match="already submitted"):
            sim.submit_job(Job(1, 5.0, 2, 60.0))

    def test_oversized_job_rejected_with_guidance(self):
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        with pytest.raises(SimulationError, match="no rectangular"):
            sim.submit_job(Job(1, 0.0, 100000, 60.0))

    def test_cancel_pending_job_never_runs(self):
        """Cancel before the ARRIVAL event lands: the job must not
        appear in the wait queue, the records, or the report."""
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        victim = Job(7, 50.0, 2, 60.0)
        stream.submit(victim)
        assert sim.cancel_job(7) == "pending"
        assert sim.job_status(7) == "cancelled"
        stream.submit(Job(8, 60.0, 2, 30.0))
        stream.close()
        report = sim.drain()
        assert [r.job_id for r in report.records] == [8]

    def test_cancel_waiting_and_running(self):
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        # Fill the machine so a second job must wait.
        big = Job(1, 0.0, setup.config.dims.volume, 500.0)
        queued = Job(2, 1.0, 2, 50.0)
        stream.submit(big)
        stream.submit(queued)
        sim.pump(horizon=2.0)
        assert sim.job_status(1) == "running"
        assert sim.job_status(2) == "waiting"
        assert sim.cancel_job(2) == "waiting"
        assert sim.cancel_job(1) == "running"
        assert sim.outstanding == 0
        assert sim.torus.free_count == setup.config.dims.volume

    def test_cancel_then_resubmit_same_id(self):
        """A resubmitted id gets a fresh arrival epoch; the stale queued
        ARRIVAL from the cancelled life is ignored."""
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        stream.submit(Job(3, 10.0, 2, 60.0))
        assert sim.cancel_job(3) == "pending"
        stream.submit(Job(3, 20.0, 4, 30.0))
        stream.close()
        report = sim.drain()
        assert [r.job_id for r in report.records] == [3]
        [record] = report.records
        assert record.size == 4 and record.arrival == 20.0

    def test_cancel_outcomes_for_unknown_and_completed(self):
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        assert sim.cancel_job(99) == "unknown"
        stream.submit(Job(1, 0.0, 2, 10.0))
        stream.close()
        sim.drain()
        assert sim.cancel_job(1) == "completed"
        assert sim.job_status(1) == "completed"

    def test_repeat_cancel_is_stable(self):
        setup, workload, failures, policy = scenario(n_jobs=10)
        sim, stream = online_sim(setup, workload, failures, policy)
        stream.submit(Job(5, 0.0, 2, 10.0))
        assert sim.cancel_job(5) == "pending"
        assert sim.cancel_job(5) == "cancelled"
