"""The feasible-size backfill walk under a deep queue.

The paper's headline regime (Figs. 3/6: SDSC log, one failure per job,
balancing ``a = 0.1``) keeps dozens of jobs waiting behind a head that
does not fit, and almost none of them fit either.  The walk asks the
placement index once per distinct waiting size and calls the policy only
for sizes with a free partition — with the recorder on or off.  A trace
still carries an empty ``candidates`` record for every job that clears
the shadow but does not fit; the walk writes those itself.  Traced and
untraced runs must produce the same schedule, on the production engine
and on the reference one a test builds
(``repro.testing.oracle_simulator``: from-scratch index rebuilds, scalar
scoring, integral release replay), and the trace bytes must be the same
on both engines.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.allocation.mfp import PlacementIndex
from repro.api import SimulationSetup
from repro.core.config import SimulationConfig
from repro.core.jobstate import JobState
from repro.core.policies.registry import make_policy
from repro.core.simulator import Simulator
from repro.failures.events import FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from repro.metrics.serialize import report_to_dict
from repro.obs.trace import TraceRecorder
from repro.testing import oracle_simulator
from repro.workloads.job import Job

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


class TestOneWalkTracedOrNot:
    def test_traced_run_calls_the_policy_exactly_as_the_untraced_run(
        self, traced_runs
    ):
        """The recorder does not widen the walk: same ``choose_partition``
        calls, same placements, and the no-fit records are still there."""
        plain_sim = deep_queue_setup().build_simulator()
        plain = CountingPolicy(plain_sim)
        plain_sim.run()
        traced_sim = deep_queue_setup(trace=True).build_simulator()
        traced = CountingPolicy(traced_sim)
        traced_sim.run()
        assert (traced.calls, traced.placed) == (plain.calls, plain.placed)
        assert plain.placed > 160  # kills re-place jobs
        # Nearly every call places a job (FCFS heads that do not fit
        # are the misses).
        assert plain.calls <= 5 * plain.placed
        _, trace = traced_runs["production"]
        no_fit = [
            line for line in trace.splitlines() if b'"n_candidates":0,' in line
        ]
        assert len(no_fit) > 10_000
        assert len(no_fit) == sum(
            r["kind"] == "candidates" and r["n_candidates"] == 0
            for r in traced_sim.recorder.records
        )

    @pytest.mark.parametrize("name", ["krevat", "balancing", "tiebreak"])
    def test_walk_written_record_is_the_policys_own_empty_record(self, name):
        """What ``emit_no_fit`` writes for a job is, byte for byte, what
        the policy records when asked about a size that does not fit."""
        dims = BGL_SUPERNODE_DIMS
        torus = Torus(dims)
        torus.allocate(0, Partition((0, 0, 0), dims.as_tuple()))
        state = JobState(Job(job_id=41, arrival=0.0, size=8, runtime=60.0))
        policy = make_policy(name, failure_log=FailureLog(dims.volume))
        asked, written = io.StringIO(), io.StringIO()
        policy.recorder = TraceRecorder(sink=asked)
        assert policy.choose_partition(PlacementIndex(torus), state, 12.5) is None
        TraceRecorder(sink=written).emit_no_fit(12.5, name, [(41, 8)])
        assert written.getvalue() == asked.getvalue() != ""

    def test_tracing_does_not_change_the_profile_metrics(self):
        """Everything a ``profile=True`` run counts, a ``trace=True`` run
        counts the same — in particular ``policy.candidate_set_size`` no
        longer takes one zero observation per no-fit probe.  The three
        counters of the shadow probe are the exception and may only be
        higher: a walk in which nothing fits needs no shadow to schedule,
        but it needs one to know which no-fit records the trace owes."""
        shadow_probe = {
            "shadow.queries", "shadow.cache_hits", "index.incremental.hit",
        }

        def metrics(**config) -> dict:
            sim = deep_queue_setup(**config).build_simulator()
            sim.run()
            return sim.metrics.to_dict(include_timings=False)

        traced, profiled = metrics(trace=True), metrics(profile=True)
        histogram = "policy.candidate_set_size"
        assert traced["histograms"][histogram] == profiled["histograms"][histogram]
        for name in shadow_probe:
            assert traced["counters"].get(name, 0) >= profiled["counters"].get(name, 0)
            traced["counters"].pop(name, None)
            profiled["counters"].pop(name, None)
        assert traced == profiled
