"""One rule under a deep queue: the engine asks a policy only about a
size that fits.

The paper's headline regime (Figs. 3/6: SDSC log, one failure per job,
balancing ``a = 0.1``) keeps dozens of jobs waiting behind a head that
does not fit, and almost none of them fit either.  The engine asks the
placement index once per distinct waiting size and calls
``choose_partition`` only for a size with a free partition — at the
queue head exactly as in the backfill walk, with the recorder on or off
— so every call places a job and the trace holds one ``candidates``
record per call, none of them empty.  Traced and untraced runs must make
the same calls and produce the same schedule, on the production engine
and on the reference one a test builds
(``tests.oracles.oracle_simulator``: from-scratch index rebuilds, scalar
scoring, integral release replay), and the trace bytes must be the same
on both engines.  The deep-queue runs carry the full runtime oracle
harness (``tests.oracles.CheckedSimulator``).

The walk computes one EASY reservation per scheduler pass and resumes
on it after a backfill that ends by the shadow; a test-local subclass
that restarts every walk at position 1 and asks the shadow engine again
must make the same decisions.

A pass stops before its index lookup once no waiting job fits the free
node count, and the backfill walk asks the index only about sizes no
larger than it; a test-local subclass without that gate must make the
same decisions.
"""

from __future__ import annotations

import io
import json
import math
from itertools import islice

import numpy as np
import pytest

from repro.allocation.mfp import IndexCache, PlacementIndex
from repro.api import SimulationSetup
from repro.core.backfill import ShadowTimeEngine
from repro.core.config import BackfillMode, SimulationConfig
from repro.core.jobstate import MIN_ESTIMATE_S
from repro.core.policies.krevat import KrevatPolicy
from repro.core.simulator import _SHADOW_EPS, Simulator
from repro.failures.events import FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.metrics.serialize import report_to_dict
from repro.obs.trace import TraceRecorder
from repro.prediction import BalancingPredictor
from repro.workloads.job import Job, Workload
from tests.oracles import CheckedOracleSimulator, CheckedSimulator

ENGINES = {"production": CheckedSimulator, "reference": CheckedOracleSimulator}


def deep_queue_setup(**config) -> SimulationSetup:
    return SimulationSetup(
        site="sdsc",
        n_jobs=160,
        n_failures=160,
        policy="balancing",
        parameter=0.1,
        seed=0,
        config=SimulationConfig(**config),
    )


def build(engine: str, setup: SimulationSetup, recorder=None):
    return ENGINES[engine](*setup.build_inputs(), setup.config, recorder=recorder)


def report_bytes(sim) -> bytes:
    return json.dumps(report_to_dict(sim.run()), sort_keys=True).encode()


def engine_calls(monkeypatch, **config) -> tuple[list[tuple], Simulator]:
    """Run the production engine; every ``choose_partition``,
    ``IndexCache.get``, ``ShadowTimeEngine.shadow_time``,
    ``PlacementIndex.batch_mfp_losses`` and
    ``BalancingPredictor.partition_failure_probabilities`` call it made,
    in order, with what the call was about."""
    calls: list[tuple] = []
    sim = build("production", deep_queue_setup(**config))
    choose = sim.policy.choose_partition
    get, shadow_time = IndexCache.get, ShadowTimeEngine.shadow_time
    score = PlacementIndex.batch_mfp_losses
    predict = BalancingPredictor.partition_failure_probabilities

    def counted_choose(index, state, now):
        partition = choose(index, state, now)
        calls.append(("choose", state.job_id, state.size, now, partition))
        return partition

    def counted_get(cache):
        calls.append(("index", cache.torus.version))
        return get(cache)

    def counted_shadow_time(engine, running, head_size, now):
        calls.append(("shadow", head_size, now))
        return shadow_time(engine, running, head_size, now)

    def counted_score(index, size):
        calls.append(("score", size))
        return score(index, size)

    def counted_predict(predictor, bases, extents, dims, t0, t1):
        calls.append(("predict", np.asarray(extents).tolist(), len(bases), t0, t1))
        return predict(predictor, bases, extents, dims, t0, t1)

    sim.policy.choose_partition = counted_choose
    with monkeypatch.context() as patch:
        patch.setattr(IndexCache, "get", counted_get)
        patch.setattr(ShadowTimeEngine, "shadow_time", counted_shadow_time)
        patch.setattr(PlacementIndex, "batch_mfp_losses", counted_score)
        patch.setattr(
            BalancingPredictor, "partition_failure_probabilities", counted_predict
        )
        sim.run()
    return calls, sim


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
        assert 1_000 < trace.count(b"\n") < 2_000  # decisions, not probes
        assert traced_runs["reference"] == (report, trace)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_gated_walk_schedules_like_the_traced_walk(self, traced_runs, engine):
        sim = build(engine, deep_queue_setup())
        assert report_bytes(sim) == traced_runs["production"][0]


class TestOneWalkTracedOrNot:
    def test_traced_run_calls_the_policy_exactly_as_the_untraced_run(
        self, traced_runs, monkeypatch
    ):
        """The recorder changes nothing the engine or the policy does:
        the same ``choose_partition``, ``IndexCache.get`` and
        ``shadow_time`` calls, and the same scorings and predictor
        queries (none for a forced choice), in the same order; no call
        returns ``None``; and the trace holds one ``candidates`` record
        per call."""
        plain, _ = engine_calls(monkeypatch)
        traced, traced_sim = engine_calls(monkeypatch, trace=True)
        assert traced == plain
        chosen = [call for call in plain if call[0] == "choose"]
        assert len(chosen) > 160  # kills re-place jobs
        assert all(partition is not None for *_, partition in chosen)
        assert {call[0] for call in plain} == {
            "choose", "index", "shadow", "score", "predict"
        }
        scored = sum(call[0] == "score" for call in plain)
        assert 0 < scored < len(chosen)  # forced choices stay unscored
        candidates = [
            r for r in traced_sim.recorder.records if r["kind"] == "candidates"
        ]
        assert [(r["job"], r["size"], r["t"]) for r in candidates] == [
            (job, size, now) for _, job, size, now, _ in chosen
        ]
        assert all(r["n_candidates"] >= 1 and r["chosen"] for r in candidates)
        _, trace = traced_runs["production"]
        assert trace.count(b'"kind":"candidates"') == len(chosen)

    def test_tracing_does_not_change_the_profile_metrics(self):
        """Everything a ``profile=True`` run counts, a ``trace=True`` run
        counts the same, with no excepted metric."""

        def metrics(**config) -> dict:
            sim = build("production", deep_queue_setup(**config))
            sim.run()
            return sim.metrics.to_dict(include_timings=False)

        traced, profiled = metrics(trace=True), metrics(profile=True)
        assert traced == profiled
        assert traced["histograms"]["policy.candidate_set_size"]["min"] >= 1


class RestartWalkSimulator(CheckedSimulator):
    """The walk without a kept reservation: every call starts again at
    position 1 and asks the shadow engine again."""

    def _try_backfill(self, index, head, now):
        fits = {s for s in self.wait.sizes() if index.has_candidate(s)}
        if not fits:
            return False
        easy = self.config.backfill is BackfillMode.EASY
        shadow = None if easy else math.inf
        for state in islice(self.wait, 1, None):
            if state.size not in fits:
                continue
            if shadow is None:
                shadow = self._shadow.shadow_time(self._running(), head.size, now)
            est_wall = self.checkpoint.wall_duration(
                max(state.remaining_estimate, MIN_ESTIMATE_S)
            )
            if now + est_wall > shadow + _SHADOW_EPS:
                continue
            partition = self.policy.choose_partition(index, state, now)
            if partition is not None:
                if self.recorder.enabled:
                    self.recorder.emit(
                        "backfill", now, job=state.job_id, head_job=head.job_id,
                        shadow=shadow if easy else None, est_wall=est_wall,
                    )
                self._dispatch(state, partition, now, via="backfill")
                self.counters.backfills += 1
                return True
        return False


def traced_run(engine, setup: SimulationSetup) -> tuple[bytes, bytes, list, Simulator]:
    """Report bytes, trace bytes and every ``choose_partition`` call."""
    sink = io.StringIO()
    sim = engine(*setup.build_inputs(), setup.config, recorder=TraceRecorder(sink=sink))
    calls = []
    choose = sim.policy.choose_partition

    def counted_choose(index, state, now):
        partition = choose(index, state, now)
        calls.append((state.job_id, now, partition))
        return partition

    sim.policy.choose_partition = counted_choose
    report = report_bytes(sim)
    return report, sink.getvalue().encode(), calls, sim


def first_fit_count(monkeypatch) -> list[int]:
    """A one-cell counter of reservation replays."""
    count = [0]
    replay = ShadowTimeEngine._first_fit_time

    def counted(engine, running, head_size):
        count[0] += 1
        return replay(engine, running, head_size)

    monkeypatch.setattr(ShadowTimeEngine, "_first_fit_time", counted)
    return count


def one_pass_setup(*small: Job) -> tuple[Workload, FailureLog, SimulationConfig]:
    """Job 0 holds half the machine until t = 100; at t = 1 a
    full-machine head arrives with ``small`` behind it, all in one
    scheduler pass."""
    n = BGL_SUPERNODE_DIMS.volume
    jobs = (Job(0, 0.0, n // 2, 100.0), Job(1, 1.0, n, 10.0)) + small
    return Workload("one-pass", n, jobs), FailureLog(n), SimulationConfig(migration=False)


class TestOneReservationPerPass:
    @pytest.mark.parametrize("migration", [True, False])
    @pytest.mark.parametrize("backfill", [BackfillMode.EASY, BackfillMode.AGGRESSIVE])
    def test_kept_reservation_decides_like_the_restart_walk(self, backfill, migration):
        setup = deep_queue_setup(trace=True, backfill=backfill, migration=migration)
        report, trace, calls, sim = traced_run(CheckedSimulator, setup)
        assert traced_run(RestartWalkSimulator, setup)[:3] == (report, trace, calls)
        assert sim.counters.backfills > 0
        kept = sim.metrics.to_dict(include_timings=False)["counters"].get("shadow.kept")
        if backfill is BackfillMode.EASY:
            assert kept > 0
        else:
            assert not kept

    def test_one_replay_for_three_backfills(self, monkeypatch):
        inputs = one_pass_setup(*(Job(j, 1.0, 8, 10.0) for j in (2, 3, 4)))
        count = first_fit_count(monkeypatch)
        sim = Simulator(*inputs[:2], KrevatPolicy(), inputs[2])
        report = sim.run()
        assert sim.counters.backfills == 3
        assert count == [1]
        reference = RestartWalkSimulator(*inputs[:2], KrevatPolicy(), inputs[2])
        assert reference.run() == report
        assert count == [1 + 3]

    def test_backfill_due_just_past_the_shadow_recomputes(self, monkeypatch):
        """Job 2 is due at 100 + 5e-10: inside the tolerance, so it
        backfills, but past the shadow, so the walk asks again for job 3."""
        inputs = one_pass_setup(
            Job(2, 1.0, 8, 10.0, estimate=99.0 + 5e-10), Job(3, 1.0, 8, 10.0)
        )
        count = first_fit_count(monkeypatch)
        sim = Simulator(*inputs[:2], KrevatPolicy(), inputs[2])
        report = sim.run()
        assert 100.0 < sim.states[2].est_finish <= 100.0 + _SHADOW_EPS
        assert sim.counters.backfills == 2
        assert count == [2]
        reference = RestartWalkSimulator(*inputs[:2], KrevatPolicy(), inputs[2])
        assert reference.run() == report


class UngatedSimulator(CheckedSimulator):
    """The pass without the node-count gate: every iteration looks the
    index up, and the backfill walk asks it about every waiting size."""

    def _schedule_pass(self, now):
        self.counters.scheduler_passes += 1
        self.policy.begin_pass(now)
        self._reservation = None
        while self.wait:
            index = self._index_cache.get()
            head = self.wait.head()
            if index.has_candidate(head.size):
                partition = self.policy.choose_partition(index, head, now)
                if partition is not None:
                    self._dispatch(head, partition, now)
                    continue
            if self._try_migration(head, now):
                self._reservation = None
                continue
            if self.config.backfill is BackfillMode.NONE:
                break
            if not self._try_backfill(index, head, now):
                break

    def _try_backfill(self, index, head, now):
        fits = {s for s in self.wait.sizes() if index.has_candidate(s)}
        if not fits:
            return False
        easy = self.config.backfill is BackfillMode.EASY
        kept = self._reservation
        if kept is not None and kept[0] is head:
            _, start, shadow = kept
            if easy and self.metrics is not None:
                self.metrics.counter("shadow.kept").inc()
        else:
            start, shadow = 1, None if easy else math.inf
        for position, state in enumerate(islice(self.wait, start, None), start):
            if state.size not in fits:
                continue
            if shadow is None:
                shadow = self._shadow.shadow_time(self._running(), head.size, now)
            est_wall = self.checkpoint.wall_duration(
                max(state.remaining_estimate, MIN_ESTIMATE_S)
            )
            if now + est_wall > shadow + _SHADOW_EPS:
                continue
            partition = self.policy.choose_partition(index, state, now)
            if partition is not None:
                if self.recorder.enabled:
                    self.recorder.emit(
                        "backfill", now, job=state.job_id, head_job=head.job_id,
                        shadow=shadow if easy else None, est_wall=est_wall,
                    )
                self._dispatch(state, partition, now, via="backfill")
                self.counters.backfills += 1
                holds = now + est_wall <= shadow
                self._reservation = (head, position, shadow) if holds else None
                return True
        return False


def index_lookups(sim) -> int:
    counters = sim.metrics.to_dict(include_timings=False)["counters"]
    return sum(
        counters.get(name, 0)
        for name in (
            "index.builds",
            "index.incremental.hit",
            "index.incremental.kept",
            "index.incremental.repair",
        )
    )


class TestNodeCountGate:
    @pytest.mark.parametrize("migration", [True, False])
    @pytest.mark.parametrize("backfill", list(BackfillMode))
    def test_gated_pass_decides_like_the_ungated_pass(self, backfill, migration):
        setup = deep_queue_setup(trace=True, backfill=backfill, migration=migration)
        report, trace, calls, sim = traced_run(CheckedSimulator, setup)
        ungated = traced_run(UngatedSimulator, setup)
        assert ungated[:3] == (report, trace, calls)
        # The gate binds on this queue: it skips lookups the ungated
        # pass makes.
        assert index_lookups(sim) < index_lookups(ungated[3])

    @pytest.mark.parametrize("engine", [Simulator, UngatedSimulator])
    def test_pass_where_nothing_fits_by_count_looks_nothing_up(
        self, engine, monkeypatch
    ):
        """At t = 1 a full-machine head and a 96-node job wait while 64
        nodes are free: the gated pass stops before its index lookup, its
        migration and its backfill walk; the ungated one makes all three."""
        n = BGL_SUPERNODE_DIMS.volume
        jobs = (Job(0, 0.0, n // 2, 100.0), Job(1, 1.0, n, 10.0), Job(2, 1.0, 96, 10.0))
        workload, log = Workload("count-gate", n, jobs), FailureLog(n)
        config = SimulationConfig(backfill=BackfillMode.EASY, migration=True)
        sim = engine(workload, log, KrevatPolicy(), config)
        assert sim.pump(max_batches=1) == 1  # t = 0: job 0 starts
        calls = []
        for owner, name in (
            (IndexCache, "get"),
            (engine, "_try_migration"),
            (engine, "_try_backfill"),
        ):
            method = getattr(owner, name)

            def counted(*args, _method=method, _name=name):
                calls.append(_name)
                return _method(*args)

            monkeypatch.setattr(owner, name, counted)
        assert sim.pump(max_batches=1) == 1  # t = 1: nothing can start
        assert len(sim.wait) == 2 and sim.torus.free_count == n // 2
        assert sim.counters.scheduler_passes == 2
        if engine is Simulator:
            assert calls == []
        else:
            assert calls == ["get", "_try_migration", "_try_backfill"]
        monkeypatch.undo()
        report = sim.drain()
        reference = UngatedSimulator(workload, log, KrevatPolicy(), config)
        assert reference.run() == report
