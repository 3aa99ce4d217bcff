"""The feasible-size backfill walk under a deep queue.

The paper's headline regime (Figs. 3/6: SDSC log, one failure per job,
balancing ``a = 0.1``) keeps dozens of jobs waiting behind a head that
does not fit, and almost none of them fit either.  The walk asks the
placement index once per distinct waiting size and calls the policy only
for sizes with a free partition; with the recorder on it visits every
job so the trace keeps the policy's empty ``candidates`` records.  Both
forms must produce the same schedule, on the incremental index and on
the rebuild oracle, batched and per-event.
"""

from __future__ import annotations

import json
from itertools import product

import pytest

from repro.api import SimulationSetup
from repro.core.config import SimulationConfig
from repro.metrics.serialize import report_to_dict
from repro.obs.trace import TraceRecorder

MODES = list(product((True, False), (True, False)))


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
    """(report bytes, trace bytes) per (incremental_index, batch_events)."""
    tmp = tmp_path_factory.mktemp("walk")
    out = {}
    for incremental, batch in MODES:
        path = tmp / f"trace_{incremental}_{batch}.ndjson"
        setup = deep_queue_setup(
            trace=True, incremental_index=incremental, batch_events=batch
        )
        with path.open("w", encoding="utf-8") as sink:
            report = report_bytes(setup.build_simulator(TraceRecorder(sink=sink)))
        out[incremental, batch] = (report, path.read_bytes())
    return out


class TestDeepQueueEquivalence:
    def test_report_and_trace_file_identical_in_every_mode(self, traced_runs):
        report, trace = traced_runs[True, True]
        assert trace.count(b"\n") > 10_000  # the empty records are there
        for mode in MODES[1:]:
            assert traced_runs[mode][0] == report, mode
            assert traced_runs[mode][1] == trace, mode

    @pytest.mark.parametrize("incremental,batch", MODES)
    def test_gated_walk_schedules_like_the_traced_walk(
        self, traced_runs, incremental, batch
    ):
        """Recorder off: the size gate and the lazy shadow are active."""
        setup = deep_queue_setup(incremental_index=incremental, batch_events=batch)
        assert report_bytes(setup.build_simulator()) == traced_runs[True, True][0]


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
