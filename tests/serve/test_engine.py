"""ServeEngine behaviour: replay equivalence, backpressure, lifecycle."""

from __future__ import annotations

import pytest

from repro.api import SimulationSetup
from repro.core.config import SimulationConfig
from repro.core.policies.registry import make_policy
from repro.core.simulator import Simulator
from repro.metrics.serialize import report_to_dict
from repro.serve.client import InprocClient
from repro.serve.engine import ServeEngine
from repro.serve.load import run_load


def small_setup(n_jobs: int = 80, seed: int = 11) -> SimulationSetup:
    return SimulationSetup(site="sdsc", n_jobs=n_jobs, seed=seed)


def batch_report(setup: SimulationSetup) -> dict:
    workload = setup.build_workload()
    failures = setup.build_failures(workload)
    policy = make_policy(
        setup.policy,
        failure_log=failures,
        parameter=setup.parameter,
        pf_rule=setup.pf_rule,
        seed=setup.seed + 2,
    )
    return report_to_dict(Simulator(workload, failures, policy, setup.config).run())


class TestReplayEquivalence:
    """The acceptance criterion: a workload replayed through the service
    produces the same schedule report as the batch simulator."""

    def test_inproc_replay_matches_batch(self):
        setup = small_setup()
        engine = ServeEngine.from_setup(setup)
        report = run_load(InprocClient(engine), setup.build_workload())
        assert report.dropped == 0 and report.errors == 0
        assert report.final_report == batch_report(setup)

    def test_equivalence_survives_multi_tenant_and_pipelining(self):
        setup = small_setup(n_jobs=60, seed=3)
        engine = ServeEngine.from_setup(setup)
        report = run_load(
            InprocClient(engine),
            setup.build_workload(),
            tenants=("alice", "bob", "carol"),
            pipeline_depth=16,
        )
        assert report.final_report == batch_report(setup)

    def test_equivalence_with_tiny_pump_interval(self):
        """Aggressive pumping (every submission) must not change the
        schedule, only when work happens."""
        setup = small_setup(n_jobs=50, seed=7)
        engine = ServeEngine.from_setup(setup, pump_interval=1)
        report = run_load(InprocClient(engine), setup.build_workload())
        assert report.final_report == batch_report(setup)


class TestBackpressure:
    def overload_engine(self, **kwargs) -> ServeEngine:
        return ServeEngine.from_setup(
            small_setup(), clock="logical", **kwargs
        )

    def test_logical_clock_rejects_past_tenant_cap(self):
        engine = self.overload_engine(tenant_cap=8, engine_cap=4)
        client = InprocClient(engine)
        replies = [
            client.submit(id=i, size=64, runtime=1e6) for i in range(40)
        ]
        accepted = [r for r in replies if r.get("ok")]
        rejected = [r for r in replies if r.get("rejected")]
        # 4 released into the engine + 8 queued at the tenant; rest bounce.
        assert len(accepted) == 12
        assert len(rejected) == 28
        assert all(r["retry_after"] > 0 for r in rejected)
        stats = client.stats()
        assert stats["queue_depth"] == 8 and stats["outstanding"] == 4

    def test_drain_honours_queued_work_past_caps(self):
        engine = self.overload_engine(tenant_cap=8, engine_cap=4)
        client = InprocClient(engine)
        for i in range(12):
            assert client.submit(id=i, size=64, runtime=100.0)["ok"]
        drained = client.drain()
        assert drained["ok"]
        assert len(drained["report"]["records"]) == 12

    def test_trace_clock_soft_cap_admits_history(self):
        """Trace replays can't defer arrivals: the engine overflows
        softly and counts it rather than rejecting."""
        setup = small_setup()
        engine = ServeEngine.from_setup(
            setup, clock="trace", engine_cap=1, tenant_cap=4096
        )
        client = InprocClient(engine)
        for i in range(8):
            reply = client.submit(id=i, arrival=0.0, size=64, runtime=1e6)
            assert reply["ok"], reply
        assert engine.sim.outstanding == 8  # cap exceeded, nothing rejected
        assert engine.metrics.counter("serve.soft_overflows").value > 0


class TestLifecycle:
    def test_ping_and_stats_shape(self):
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        pong = client.ping()
        assert pong["ok"] and pong["pong"]
        stats = client.stats()
        for key in ("clock", "submitted", "admitted", "rejected", "drained"):
            assert key in stats

    def test_trace_clock_requires_arrival(self):
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        reply = client.submit(id=1, size=4, runtime=60.0)
        assert not reply["ok"] and "arrival" in reply["error"]

    def test_trace_clock_rejects_time_travel(self):
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        assert client.submit(id=1, arrival=100.0, size=4, runtime=60.0)["ok"]
        reply = client.submit(id=2, arrival=50.0, size=4, runtime=60.0)
        assert not reply["ok"] and "simulated past" in reply["error"]

    @pytest.mark.parametrize("field", ["runtime", "estimate", "arrival"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_submit_refused_and_session_continues(self, field, value):
        """An infinite ``arrival`` used to lift the watermark to ``inf``
        (every later submission "in the simulated past"), a NaN time to
        corrupt the event heap's order; both were acknowledged."""
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        message = {"id": 1, "arrival": 0.0, "size": 4, "runtime": 60.0, field: value}
        reply = client.submit(**message)
        assert not reply["ok"] and reply["protocol_error"]
        assert f"'{field}' must be finite" in reply["error"]
        assert client.submit(id=1, arrival=5.0, size=4, runtime=60.0)["ok"]
        assert client.submit(id=2, arrival=6.0, size=4, runtime=60.0)["ok"]
        assert len(client.drain()["report"]["records"]) == 2

    def test_stats_watermark_is_null_unless_finite(self):
        """-inf before the first submission and +inf once drained are
        not JSON numbers; the response says ``null``."""
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        assert client.stats()["watermark"] is None
        assert client.submit(id=1, arrival=5.0, size=4, runtime=60.0)["ok"]
        assert client.stats()["watermark"] == 5.0
        assert client.drain()["stats"]["watermark"] is None
        assert client.stats()["watermark"] is None

    def test_duplicate_submit_refused(self):
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        assert client.submit(id=1, arrival=0.0, size=4, runtime=60.0)["ok"]
        reply = client.submit(id=1, arrival=5.0, size=4, runtime=60.0)
        assert not reply["ok"] and "already submitted" in reply["error"]

    def test_unpartitionable_size_refused(self):
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        reply = client.submit(id=1, arrival=0.0, size=10**6, runtime=60.0)
        assert not reply["ok"] and "no rectangular partition" in reply["error"]

    def test_cancel_paths(self):
        engine = ServeEngine.from_setup(
            small_setup(), clock="logical", tenant_cap=8, engine_cap=1
        )
        client = InprocClient(engine)
        for i in range(4):
            client.submit(id=i, size=64, runtime=1e6)
        # Job 1+ are still queued at admission; job 0 is in the engine.
        assert client.cancel(2) == {"ok": True, "caught": "admission", "id": 2}
        assert client.status(3)["state"] == "admitted"
        reply = client.cancel(0)
        assert reply["ok"] and reply["caught"] in ("pending", "waiting", "running")
        unknown = client.cancel(99)
        assert not unknown["ok"] and "not known" in unknown["error"]

    def test_status_unknown_job(self):
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        reply = client.status(42)
        assert not reply["ok"] and "not known" in reply["error"]

    def test_drain_is_idempotent_and_final(self):
        setup = small_setup(n_jobs=20)
        client = InprocClient(ServeEngine.from_setup(setup))
        run_load(client, setup.build_workload(), drain=False)
        first = client.drain()
        assert first["ok"] and first["stats"]["drained"] is True
        assert client.drain() is first  # cached
        refused = client.submit(id=10**6, arrival=0.0, size=4, runtime=60.0)
        assert not refused["ok"] and "drained" in refused["error"]

    def test_protocol_errors_are_flagged(self):
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        reply = client.request({"op": "warp"})
        assert not reply["ok"] and reply.get("protocol_error")

    def test_responses_echo_request_id(self):
        client = InprocClient(ServeEngine.from_setup(small_setup()))
        reply = client.submit(id=5, arrival=0.0, size=4, runtime=60.0)
        assert reply["id"] == 5

    def test_metrics_snapshot_has_service_and_sim_sections(self):
        setup = small_setup(n_jobs=20)
        engine = ServeEngine.from_setup(setup)
        run_load(InprocClient(engine), setup.build_workload())
        snapshot = engine.metrics_snapshot()
        assert snapshot["counters"]["serve.submitted"] == 20
        assert snapshot["counters"]["serve.admitted"] == 20

    def test_snapshot_and_stats_read_the_same_homes(self):
        """``serve.submitted/admitted/rejected`` and the two gauges have
        no storage of their own: after accepts, rejects and cancels the
        snapshot says what the ``stats`` op says."""
        engine = ServeEngine.from_setup(
            small_setup(), clock="logical", tenant_cap=8, engine_cap=4
        )
        client = InprocClient(engine)
        replies = [client.submit(id=i, size=64, runtime=1e6) for i in range(40)]
        assert client.cancel(11)["caught"] == "admission"
        assert client.cancel(0)["caught"] in ("pending", "waiting", "running")
        stats = client.stats()
        snapshot = engine.metrics_snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        assert stats["rejected"] == sum(r.get("rejected", False) for r in replies) > 0
        assert stats["submitted"] == 40
        assert (
            counters["serve.submitted"],
            counters["serve.admitted"],
            counters["serve.rejected"],
            gauges["serve.queue_depth"],
            gauges["serve.outstanding"],
        ) == (
            stats["submitted"], stats["admitted"], stats["rejected"],
            stats["queue_depth"], stats["outstanding"],
        )
        assert counters["serve.cancelled"] == 2
        # ... and the engine's own registry does not hold a second copy.
        assert not {"serve.submitted", "serve.admitted", "serve.rejected"} & set(
            engine.metrics.counters
        )
        assert not engine.metrics.gauges

    def test_snapshot_reads_sim_counts_from_the_report_counters(self):
        """Passes, kills and migrations have one home, the report's
        ``Counters``; the snapshot's ``sim`` section reads them there."""
        setup = SimulationSetup(
            site="sdsc", n_jobs=60, n_failures=60, seed=11,
            config=SimulationConfig(profile=True),
        )
        engine = ServeEngine.from_setup(setup)
        run_load(InprocClient(engine), setup.build_workload())
        counters = engine.sim.counters
        sim = engine.metrics_snapshot()["sim"]["counters"]
        assert counters.job_kills > 0
        for name in ("job_kills", "migrations", "scheduler_passes"):
            # A count is listed once it fired, as a registry counter is.
            assert sim.get(f"sim.{name}", 0) == getattr(counters, name), name
        assert not {"sim.job_kills", "sim.migrations", "sim.scheduler_passes"} & set(
            engine.sim.metrics.counters
        )

    def test_bad_engine_params_rejected(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="engine_cap"):
            ServeEngine.from_setup(small_setup(), engine_cap=0)
        with pytest.raises(ServeError, match="pump_interval"):
            ServeEngine.from_setup(small_setup(), pump_interval=0)
