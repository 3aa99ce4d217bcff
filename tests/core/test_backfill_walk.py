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
(``repro.testing.oracle_simulator``: from-scratch index rebuilds, scalar
scoring, integral release replay), and the trace bytes must be the same
on both engines.
"""

from __future__ import annotations

import json

import pytest

from repro.allocation.mfp import IndexCache, PlacementIndex
from repro.api import SimulationSetup
from repro.core.backfill import ShadowTimeEngine
from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator
from repro.metrics.serialize import report_to_dict
from repro.obs.trace import TraceRecorder
from repro.prediction import BalancingPredictor
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


def engine_calls(monkeypatch, **config) -> tuple[list[tuple], Simulator]:
    """Run the production engine; every ``choose_partition``,
    ``IndexCache.get``, ``ShadowTimeEngine.shadow_time``,
    ``PlacementIndex.batch_mfp_losses`` and
    ``BalancingPredictor.partition_failure_probabilities`` call it made,
    in order, with what the call was about."""
    calls: list[tuple] = []
    sim = deep_queue_setup(**config).build_simulator()
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

    def counted_predict(predictor, bases, shape, dims, t0, t1):
        calls.append(("predict", shape, len(bases), t0, t1))
        return predict(predictor, bases, shape, dims, t0, t1)

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
            sim = deep_queue_setup(**config).build_simulator()
            sim.run()
            return sim.metrics.to_dict(include_timings=False)

        traced, profiled = metrics(trace=True), metrics(profile=True)
        assert traced == profiled
        assert traced["histograms"]["policy.candidate_set_size"]["min"] >= 1
