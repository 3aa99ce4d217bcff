"""Same-timestamp event batches, and production vs the reference engine.

The simulator drains every event sharing the next timestamp (kind order
FINISH < FAILURE < ARRIVAL), repairs the placement index once, and runs
one scheduling pass.  There is one engine; what it is compared with is
the reference a test builds — :func:`tests.oracles.oracle_simulator`,
the same simulator answering every index query from a from-scratch
``ReferencePlacementIndex`` rebuild.  The two must be indistinguishable:
identical reports and byte-identical NDJSON decision traces, across
randomized workloads and failure mixes, with every runtime oracle
attached to both (``CheckedSimulator`` / ``CheckedOracleSimulator``,
DESIGN.md §5.12).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SimulationSetup
from repro.core.config import SimulationConfig
from repro.core.events import EventKind, EventQueue
from repro.core.policies import KrevatPolicy
from repro.core.simulator import simulate
from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.obs.tools import diff_traces
from repro.obs.trace import _encode, write_trace
from repro.workloads.job import Job, Workload
from tests.oracles import CheckedOracleSimulator, CheckedSimulator

D = BGL_SUPERNODE_DIMS
N = D.volume

CONFIG = SimulationConfig(trace=True)


def run_traced(setup: SimulationSetup, engine=CheckedSimulator):
    """One traced simulation; returns (report, trace records)."""
    sim = engine(*setup.build_inputs(), CONFIG)
    report = sim.run()
    return report, sim.recorder.records


def assert_equivalent(setup: SimulationSetup) -> None:
    report, trace = run_traced(setup)
    oracle_report, oracle_trace = run_traced(setup, CheckedOracleSimulator)
    assert report == oracle_report
    # Byte-identical NDJSON: _encode produces exactly the serialized
    # line each record becomes on disk.
    assert [_encode(r) for r in trace] == [_encode(r) for r in oracle_trace]
    assert diff_traces(trace, oracle_trace) is None


class TestRandomizedEquivalence:
    """100 randomized workloads: reports and traces byte-identical."""

    @settings(max_examples=100, deadline=None)
    @given(
        site=st.sampled_from(["sdsc", "nasa", "llnl"]),
        n_jobs=st.integers(min_value=1, max_value=25),
        n_failures=st.integers(min_value=0, max_value=12),
        policy=st.sampled_from(["krevat", "balancing", "tiebreak"]),
        parameter=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_production_equals_oracle_simulator(
        self, site, n_jobs, n_failures, policy, parameter, seed
    ):
        assert_equivalent(
            SimulationSetup(
                site=site,
                n_jobs=n_jobs,
                n_failures=n_failures,
                policy=policy,
                parameter=parameter,
                seed=seed,
            )
        )

    def test_ndjson_files_byte_identical(self, tmp_path):
        """The full on-disk NDJSON artefacts match, byte for byte."""
        setup = SimulationSetup(
            site="sdsc", n_jobs=30, n_failures=10,
            policy="balancing", parameter=0.3, seed=11,
        )
        _, production = run_traced(setup)
        _, oracle = run_traced(setup, CheckedOracleSimulator)
        a, b = tmp_path / "production.ndjson", tmp_path / "oracle.ndjson"
        write_trace(production, a)
        write_trace(oracle, b)
        assert a.read_bytes() == b.read_bytes()


class TestIntraTimestampOrdering:
    """The batch drain preserves the FINISH < FAILURE < ARRIVAL order."""

    def test_pop_batch_orders_by_kind_then_seq(self):
        queue = EventQueue()
        queue.push(5.0, EventKind.ARRIVAL, payload=1)
        queue.push(5.0, EventKind.FINISH, payload=2)
        queue.push(5.0, EventKind.FAILURE, payload=3)
        queue.push(5.0, EventKind.FINISH, payload=4)
        queue.push(6.0, EventKind.FINISH, payload=5)
        batch = queue.pop_batch()
        assert [e.payload for e in batch] == [2, 4, 3, 1]
        assert [e.kind for e in batch] == [
            EventKind.FINISH, EventKind.FINISH, EventKind.FAILURE,
            EventKind.ARRIVAL,
        ]
        assert len(queue) == 1  # the t=6 event stays queued

    def test_finish_before_simultaneous_arrival(self, checked_engine):
        """A partition freed at t is visible to a job arriving at t."""
        report = simulate(
            Workload("test", N, (
                Job(0, 0.0, N, 100.0),
                Job(1, 100.0, N, 50.0),
            )),
            FailureLog(N),
            KrevatPolicy(),
            SimulationConfig(),
        )
        recs = {r.job_id: r for r in report.records}
        assert recs[1].start == 100.0
        assert recs[1].wait == 0.0

    def test_finish_before_simultaneous_failure(self, checked_engine):
        """A job completing at exactly the failure instant has already
        finished — no restart."""
        report = simulate(
            Workload("test", N, (Job(0, 0.0, N, 100.0),)),
            FailureLog(N, [FailureEvent(100.0, 0)]),
            KrevatPolicy(),
            SimulationConfig(),
        )
        assert report.records[0].restarts == 0
        assert report.records[0].response == 100.0


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
