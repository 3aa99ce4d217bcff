"""End-to-end tracing/profiling tests against the real simulator.

The load-bearing properties: instrumentation is *observational* (a
traced run reports exactly what an untraced run reports), identical-seed
runs emit byte-identical traces, and a perturbed run's trace diff names
the first divergent scheduler decision.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.api import SimulationSetup, connect, serve
from repro.checkpoint.model import CheckpointConfig, CheckpointMode
from repro.core.config import BackfillMode, SimulationConfig
from repro.obs.schema import DECISION_KINDS, KIND_FIELDS, validate_stream
from repro.obs.tools import diff_traces, validate_trace
from repro.obs.trace import NULL_RECORDER, TraceRecorder, _encode


def setup(trace=False, profile=False, **overrides):
    params = dict(
        site="nasa", n_jobs=40, n_failures=8, policy="balancing",
        parameter=0.3, seed=7,
        config=SimulationConfig(trace=trace, profile=profile),
    )
    params.update(overrides)
    return SimulationSetup(**params)


@pytest.fixture(scope="module")
def traced_sim():
    sim = setup(trace=True).build_simulator()
    sim.run()
    return sim


class TestObservationalInvariance:
    def test_traced_report_equals_untraced(self, traced_sim):
        plain = setup().run()
        traced = setup(trace=True).run()
        assert traced.records == plain.records
        assert traced.timing == plain.timing
        assert traced.capacity == plain.capacity
        assert traced.counters == plain.counters

    def test_profiled_report_equals_plain(self):
        plain = setup().run()
        profiled = setup(profile=True).run()
        assert profiled.records == plain.records
        assert profiled.capacity == plain.capacity

    def test_untraced_sim_uses_null_recorder(self):
        sim = setup().build_simulator()
        assert sim.recorder is NULL_RECORDER
        assert sim.metrics is None

    def test_trace_builds_no_metrics_registry(self, traced_sim):
        """No trace line reads the registry, so tracing alone builds
        none; a traced and profiled run writes the same bytes."""
        assert traced_sim.metrics is None
        profiled = setup(trace=True, profile=True).build_simulator()
        profiled.run()
        assert profiled.metrics.counter("sim.dispatches").value > 0
        assert profiled.recorder.lines == traced_sim.recorder.lines


class TestTraceContent:
    def test_trace_validates(self, traced_sim):
        assert validate_trace(traced_sim.recorder.records) == []

    def test_header_identifies_run(self, traced_sim):
        head = traced_sim.recorder.records[0]
        assert head["kind"] == "header"
        assert head["policy"] == "balancing"
        assert head["workload"] == "nasa-synthetic"
        assert head["n_jobs"] == 40

    def test_every_dispatch_has_a_candidates_record(self, traced_sim):
        records = traced_sim.recorder.records
        kinds = {r["kind"] for r in records}
        assert kinds <= DECISION_KINDS | {"header"}
        dispatches = [r for r in records if r["kind"] == "dispatch"]
        arrivals = [r for r in records if r["kind"] == "arrival"]
        finishes = [r for r in records if r["kind"] == "finish"]
        assert len(arrivals) == 40
        assert len(finishes) == 40
        # Every job dispatches at least once (restarts may add more).
        assert {r["job"] for r in dispatches} == {r["job"] for r in arrivals}

    def test_candidate_records_carry_scores(self, traced_sim):
        """A decision with a choice records the balancing inputs per
        candidate, one column each."""
        candidates = [
            r for r in traced_sim.recorder.records
            if r["kind"] == "candidates" and r["n_candidates"] > 1
        ]
        assert candidates
        table = candidates[0]["considered"]
        assert table.keys() == {"base", "shape", "l_mfp", "p_f"}
        assert len({len(column) for column in table.values()}) == 1

    def test_injected_recorder_wins_over_config(self):
        rec = TraceRecorder()
        sim = setup().build_simulator(recorder=rec)
        sim.run()
        assert sim.recorder is rec
        assert len(rec) > 0


class TestDeterminism:
    def test_identical_seed_traces_are_byte_identical(self, traced_sim):
        again = setup(trace=True).build_simulator()
        again.run()
        a = [_encode(r) for r in traced_sim.recorder.records]
        b = [_encode(r) for r in again.recorder.records]
        assert a == b
        assert diff_traces(traced_sim.recorder.records, again.recorder.records) is None

    def test_perturbed_run_pinpointed_to_first_divergence(self):
        # A confidence change must alter at least the candidate scoring
        # on a scenario where predictions overlap placements (sdsc, 10
        # failures); diff names the exact first decision that differs.
        def run(parameter):
            sim = setup(
                trace=True, site="sdsc", n_jobs=60, n_failures=10,
                parameter=parameter, seed=0,
            ).build_simulator()
            sim.run()
            return sim.recorder.records

        baseline, perturbed = run(0.1), run(0.9)
        divergence = diff_traces(baseline, perturbed)
        assert divergence is not None
        # Everything before the named decision is identical...
        base = [r for r in baseline if r["kind"] != "header"]
        other = [r for r in perturbed if r["kind"] != "header"]
        assert base[: divergence.index] == other[: divergence.index]
        # ...and the named decision itself differs in the named fields.
        assert divergence.fields
        for field in divergence.fields:
            assert divergence.record_a.get(field) != divergence.record_b.get(field)


class TestSchemaCoversEveryEmittedKind:
    """Whatever the engine writes, ``bgl-sim trace validate`` accepts:
    a batch run with failures, migration and checkpointing plus a served
    session with a cancel together emit every kind the schema lists,
    and nothing it does not."""

    @staticmethod
    def batch_records():
        sim = setup(
            site="sdsc", n_jobs=60, n_failures=60, parameter=0.1, seed=3,
            config=SimulationConfig(
                trace=True,
                checkpoint=CheckpointConfig(
                    mode=CheckpointMode.PERIODIC, interval_s=600.0, overhead_s=30.0
                ),
            ),
        ).build_simulator()
        sim.run()
        return sim.recorder.records

    @staticmethod
    def served_records():
        sink = io.StringIO()
        engine = serve(
            SimulationSetup(site="sdsc", n_jobs=20, n_failures=5, seed=1),
            recorder=TraceRecorder(sink=sink),
        )
        client = connect(engine)
        for job in range(3):
            assert client.submit(
                id=job, arrival=10.0 * job, size=8, runtime=600.0
            )["ok"]
        assert client.cancel(1)["ok"]
        assert client.drain()["ok"]
        return [json.loads(line) for line in sink.getvalue().splitlines()]

    def test_both_streams_validate_and_cover_the_schema(self):
        batch, served = self.batch_records(), self.served_records()
        assert validate_stream(batch) == []
        assert validate_stream(served) == []
        served_kinds = {r["kind"] for r in served}
        assert "cancel" in served_kinds
        emitted = {r["kind"] for r in batch} | served_kinds
        assert emitted == set(KIND_FIELDS)
        # EASY backfill records carry the finite shadow they were held to.
        assert all(
            isinstance(r["shadow"], float) for r in batch if r["kind"] == "backfill"
        )


class TestAggressiveBackfillTrace:
    def test_every_line_is_strict_json_and_shadow_is_null(self, tmp_path):
        """AGGRESSIVE backfilling has no shadow; the record says ``null``
        (it used to say ``Infinity``, which ``jq`` and any RFC 8259
        parser reject)."""
        path = tmp_path / "aggressive.ndjson"
        with path.open("w", encoding="utf-8") as sink:
            setup(
                site="sdsc", n_jobs=60, n_failures=10, seed=0,
                config=SimulationConfig(backfill=BackfillMode.AGGRESSIVE),
            ).build_simulator(recorder=TraceRecorder(sink=sink)).run()

        def refuse(token):
            raise AssertionError(f"non-RFC 8259 constant {token!r} in a trace line")

        records = [
            json.loads(line, parse_constant=refuse)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        backfills = [r for r in records if r["kind"] == "backfill"]
        assert backfills and all(r["shadow"] is None for r in backfills)
        assert validate_stream(records) == []
