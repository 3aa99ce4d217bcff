"""The feasible-size backfill walk under a deep queue.

The paper's headline regime (Figs. 3/6: SDSC log, one failure per job,
balancing ``a = 0.1``) keeps dozens of jobs waiting behind a head that
does not fit, and almost none of them fit either.  The walk asks the
placement index once per distinct waiting size and calls the policy only
for sizes with a free partition; with the recorder on it visits every
job so the trace keeps the policy's empty ``candidates`` records.  Both
forms must produce the same schedule, on the production engine and on
the reference one a test builds (``repro.testing.oracle_simulator``:
from-scratch index rebuilds, scalar scoring, integral release replay).
"""

from __future__ import annotations

import json

import pytest

from repro.api import SimulationSetup
from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator
from repro.metrics.serialize import report_to_dict
from repro.obs.trace import TraceRecorder
from repro.testing import oracle_simulator

ENGINES = {"production": Simulator, "reference": oracle_simulator}


def deep_queue_setup(**config) -> SimulationSetup:
    return SimulationSetup(
        site="sdsc",
        n_jobs=160,
        n_failures=160,
        policy="balancing",
        parameter=0.1,
        seed=0,
        config=SimulationConfig(check_invariants=True, **config),
    )


def build(engine: str, setup: SimulationSetup, recorder=None):
    return ENGINES[engine](*setup.build_inputs(), setup.config, recorder=recorder)


def report_bytes(sim) -> bytes:
    return json.dumps(report_to_dict(sim.run()), sort_keys=True).encode()


class CountingPolicy:
    """Counts ``choose_partition`` calls and placements of a policy."""

    def __init__(self, sim) -> None:
        self.calls = 0
        self.placed = 0
        inner = sim.policy.choose_partition

        def choose_partition(index, state, now):
            partition = inner(index, state, now)
            self.calls += 1
            self.placed += partition is not None
            return partition

        sim.policy.choose_partition = choose_partition


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """(report bytes, trace file bytes) per engine."""
    tmp = tmp_path_factory.mktemp("walk")
    out = {}
    for engine in ENGINES:
        path = tmp / f"trace_{engine}.ndjson"
        with path.open("w", encoding="utf-8") as sink:
            sim = build(engine, deep_queue_setup(trace=True), TraceRecorder(sink=sink))
            report = report_bytes(sim)
        out[engine] = (report, path.read_bytes())
    return out


class TestDeepQueueEquivalence:
    def test_report_and_trace_file_identical_in_every_mode(self, traced_runs):
        report, trace = traced_runs["production"]
        assert trace.count(b"\n") > 10_000  # the empty records are there
        assert traced_runs["reference"] == (report, trace)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_gated_walk_schedules_like_the_traced_walk(self, traced_runs, engine):
        """Recorder off: the size gate and the lazy shadow are active."""
        sim = build(engine, deep_queue_setup())
        assert report_bytes(sim) == traced_runs["production"][0]


class TestGateCutsPolicyCalls:
    def test_calls_per_placement_drop_at_least_fivefold(self):
        gated_sim = deep_queue_setup().build_simulator()
        gated = CountingPolicy(gated_sim)
        gated_sim.run()
        # The recorder-on walk visits every waiting job: the ungated count.
        full_sim = deep_queue_setup(trace=True).build_simulator()
        full = CountingPolicy(full_sim)
        full_sim.run()
        assert gated.placed == full.placed > 160  # kills re-place jobs
        assert full.calls >= 5 * gated.calls
        # Nearly every remaining call places a job (FCFS heads that do
        # not fit are the misses).
        assert gated.calls <= 5 * gated.placed
