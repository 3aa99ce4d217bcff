"""Integration tests: the oracle harness attached to the simulator.

The harness reaches a run only from the test side —
:class:`~tests.oracles.CheckedSimulator`, or the ``checked_engine``
fixture for runs built inside the package.  Exercised here:

* the seed quickstart scenario runs clean under the harness, with every
  oracle demonstrably exercised, on the production and the reference
  engine alike;
* a plain :class:`Simulator` carries no harness;
* a deliberately corrupted occupancy grid raises a checker error from
  inside the run (negative test via a sabotaging policy).
"""

from __future__ import annotations

import pytest

from repro.api import quick_simulate
from repro.core.config import SimulationConfig
from repro.core.policies.krevat import KrevatPolicy
from repro.core.events import EventQueue
from repro.core.simulator import Simulator
from repro.failures.events import FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.metrics.capacity import CapacityTracker
from repro.workloads.job import Job, Workload
from tests.oracles import (
    CheckedOracleSimulator,
    CheckedSimulator,
    InvariantViolationError,
    OracleError,
    RebuildIndexCache,
    SimulationOracleHarness,
    assert_raises_oracle,
    checking,
)


def small_workload(n: int = 12) -> Workload:
    jobs = tuple(
        Job(job_id=i, arrival=60.0 * i, size=2 ** (i % 5), runtime=600.0)
        for i in range(n)
    )
    return Workload("wiring", 128, jobs)


class TestInstrumentedRuns:
    def test_quickstart_scenario_runs_clean(self, checked_engine):
        report = quick_simulate(
            site="nasa",
            n_jobs=40,
            n_failures=8,
            policy="balancing",
            confidence=0.5,
            seed=0,
        )
        assert report.timing.n_jobs == 40
        (sim,) = checked_engine
        assert sim.oracles.stats()["invariant_checks"] > 0

    def test_oracles_actually_exercised(self):
        sim = CheckedSimulator(small_workload(), FailureLog(128), KrevatPolicy())
        sim.run()
        stats = sim.oracles.stats()
        assert stats["invariant_checks"] > 0
        assert stats["batches_observed"] == stats["invariant_checks"]
        assert stats["capacity_samples"] > stats["batches_observed"] // 2

    def test_reference_engine_carries_the_harness(self):
        sim = CheckedOracleSimulator(
            small_workload(), FailureLog(128), KrevatPolicy()
        )
        assert isinstance(sim._index_cache, RebuildIndexCache)
        report = sim.run()
        assert sim.oracles.stats()["invariant_checks"] > 0
        plain = Simulator(small_workload(), FailureLog(128), KrevatPolicy())
        assert report == plain.run()

    def test_plain_simulator_carries_no_harness(self):
        sim = Simulator(small_workload(), FailureLog(128), KrevatPolicy())
        assert not hasattr(sim, "oracles")
        assert type(sim.events) is EventQueue
        assert type(sim.tracker) is CapacityTracker
        sim.run()

    def test_checking_rebinds_and_restores_the_engine(self):
        import repro.api
        import repro.core.simulator

        with checking() as built:
            assert issubclass(repro.api.Simulator, CheckedSimulator)
            assert repro.core.simulator.Simulator is repro.api.Simulator
            quick_simulate(site="nasa", n_jobs=10, n_failures=2, seed=1)
        assert len(built) == 1
        assert repro.api.Simulator is Simulator
        assert repro.core.simulator.Simulator is Simulator

    def test_instrumented_report_identical(self):
        """The harness is observational: same report under it."""
        kwargs = dict(site="nasa", n_jobs=30, n_failures=5, policy="balancing",
                      confidence=0.3, seed=2)
        plain = quick_simulate(**kwargs)
        with checking():
            checked = quick_simulate(**kwargs)
        assert plain.records == checked.records
        assert plain.capacity == checked.capacity
        assert plain.timing == checked.timing

    def test_migration_and_failures_under_oracles(self, checked_engine):
        """Compaction + kills, the riskiest mutation paths, stay clean."""
        report = quick_simulate(
            site="sdsc",
            n_jobs=60,
            n_failures=40,
            policy="tiebreak",
            confidence=0.9,
            seed=3,
            config=SimulationConfig(migration_cost_s=30.0),
        )
        assert report.counters.failures_total == 40
        assert len(checked_engine) == 1


class CorruptingPolicy(KrevatPolicy):
    """Sabotage: stamps one *occupied* node with a bogus job id mid-run.

    The bogus id is non-FREE, so a plain engine behaves identically (the
    node already looked busy and the owner's release later heals the
    stamp) — only the oracle harness can tell.
    """

    def __init__(self, after_passes: int) -> None:
        self.after_passes = after_passes
        self._passes = 0
        self._done = False
        self._torus = None

    def begin_pass(self, now: float) -> None:
        self._passes += 1

    def choose_partition(self, index, state, now):
        choice = super().choose_partition(index, state, now)
        if not self._done and self._passes >= self.after_passes:
            flat = self._torus.grid.ravel()
            occupied = (flat >= 0).nonzero()[0]
            if occupied.size:
                flat[occupied[0]] = int(flat[occupied[0]]) + 100_000
                self._done = True
        return choice


class TestNegativeWiring:
    def test_midrun_corruption_raises(self):
        policy = CorruptingPolicy(after_passes=2)
        sim = CheckedSimulator(small_workload(), FailureLog(128), policy)
        policy._torus = sim.torus
        with pytest.raises(InvariantViolationError):
            sim.run()

    def test_corruption_unnoticed_by_plain_simulator(self):
        """Control: the same sabotage passes silently through a plain
        ``Simulator`` — proof the detection comes from the harness."""
        policy = CorruptingPolicy(after_passes=2)
        sim = Simulator(small_workload(), FailureLog(128), policy)
        policy._torus = sim.torus
        sim.run()  # no oracle, no error

    def test_assert_raises_oracle_helper(self):
        def boom():
            raise InvariantViolationError("x")

        exc = assert_raises_oracle(boom)
        assert isinstance(exc, OracleError)
        with pytest.raises(AssertionError):
            assert_raises_oracle(lambda: None)


class TestHarnessHooks:
    def test_harness_standalone(self):
        harness = SimulationOracleHarness(BGL_SUPERNODE_DIMS.volume)
        harness.record_capacity(0.0, 128, 0)
        harness.record_capacity(10.0, 64, 16)
        harness.finalize(20.0, 128 * 10 + 48 * 10)
        assert harness.stats()["capacity_samples"] == 2

    def test_harness_finalize_mismatch(self):
        harness = SimulationOracleHarness(128)
        harness.record_capacity(0.0, 128, 0)
        with pytest.raises(InvariantViolationError):
            harness.finalize(10.0, 1.0)
