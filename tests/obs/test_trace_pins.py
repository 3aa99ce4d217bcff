"""Pinned decision-trace bytes.

``tests/failures/test_synthetic.py`` pins the failure generator's output
bytes — the inputs of every run; this file pins what a run writes.  The
digests were recorded from the commit *before* the backfill walk started
writing the no-fit ``candidates`` records itself and the policies started
building their candidate tables from the batch arrays, so they hold the
recorder, the walk and all three policies to the historical trace, byte
for byte, through both recorder modes: streamed to a file sink, and
buffered then written by ``recorder.write()``.

Scenarios: the 160-job deep-queue balancing run of
``tests/core/test_backfill_walk.py`` (≈97 % of its records are no-fit
backfill probes), a Krevat run whose early decisions see hundreds of
candidates (``truncated`` records), and a tie-break run with a migration
cost where a block of periodically failing nodes keeps more than 64 tied
candidates "predicted to fail" ahead of the first stable one.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.api import SimulationSetup
from repro.core.config import SimulationConfig
from repro.core.policies.base import MAX_TRACED_CANDIDATES
from repro.core.policies.registry import make_policy
from repro.core.simulator import Simulator
from repro.failures.events import FailureLog
from repro.obs.trace import TraceRecorder


def deep_queue_inputs():
    setup = SimulationSetup(
        site="sdsc", n_jobs=160, n_failures=160, policy="balancing",
        parameter=0.1, seed=0,
        config=SimulationConfig(check_invariants=True, trace=True),
    )
    return (*setup.build_inputs(), setup.config)


def krevat_inputs():
    setup = SimulationSetup(
        site="sdsc", n_jobs=60, n_failures=60, policy="krevat", seed=3,
        config=SimulationConfig(check_invariants=True, trace=True),
    )
    return (*setup.build_inputs(), setup.config)


def tiebreak_inputs():
    """Generated log plus ten bursts over nodes 0..95: with accuracy 1
    the predictor flags every tied candidate based there, so the policy
    examines more than ``MAX_TRACED_CANDIDATES`` of them."""
    setup = SimulationSetup(
        site="sdsc", n_jobs=60, n_failures=60, policy="tiebreak",
        parameter=1.0, seed=3,
        config=SimulationConfig(
            check_invariants=True, trace=True, migration_cost_s=10.0
        ),
    )
    workload = setup.build_workload()
    base = setup.build_failures(workload)
    start = min(job.arrival for job in workload.jobs)
    hot = np.arange(96)
    times, nodes = [base.times], [base.nodes]
    for burst in range(10):
        times.append(start + workload.span * 0.1 * (burst + 0.5) + hot * 1.0)
        nodes.append(hot)
    log = FailureLog.from_arrays(
        base.n_nodes, np.concatenate(times), np.concatenate(nodes)
    )
    policy = make_policy("tiebreak", failure_log=log, parameter=1.0, seed=5)
    return workload, log, policy, setup.config


SCENARIOS = {
    "deep_queue_balancing": (
        deep_queue_inputs,
        "0e53e5174a6bccfa7c17bfc923c217521da4eddc7e82b5c0ccd1ac9c106639f0",
    ),
    "krevat_wide": (
        krevat_inputs,
        "4854d02efc33ee67f7067fb2632bf87d7f0fd3e8cdf63f96c7298c5974ffaf2c",
    ),
    "tiebreak_migration_cost": (
        tiebreak_inputs,
        "376ea6cc6174b6d0b81cc326ed490ffcccf53941d29fadd105a5134db458bf16",
    ),
}


@pytest.fixture(scope="module", params=SCENARIOS)
def written(request, tmp_path_factory):
    """(pinned digest, streamed bytes, buffered bytes, buffered records)."""
    inputs, pinned = SCENARIOS[request.param]
    tmp = tmp_path_factory.mktemp(request.param)
    streamed = tmp / "streamed.ndjson"
    with streamed.open("w", encoding="utf-8") as sink:
        Simulator(*inputs(), recorder=TraceRecorder(sink=sink)).run()
    sim = Simulator(*inputs())
    sim.run()
    buffered = sim.recorder.write(tmp / "buffered.ndjson")
    return pinned, streamed.read_bytes(), buffered.read_bytes(), sim.recorder.records


def test_file_sink_bytes_pinned(written):
    pinned, streamed, _, _ = written
    assert hashlib.sha256(streamed).hexdigest() == pinned


def test_buffered_write_bytes_pinned(written):
    pinned, _, buffered, _ = written
    assert hashlib.sha256(buffered).hexdigest() == pinned


def test_buffered_records_are_the_written_lines(written):
    _, streamed, _, records = written
    assert records == [json.loads(line) for line in streamed.splitlines()]


def test_scenarios_cover_truncation_and_no_fit(written):
    _, _, _, records = written
    candidates = [r for r in records if r["kind"] == "candidates"]
    header = records[0]
    if header["policy"] == "balancing":
        no_fit = sum(r["n_candidates"] == 0 for r in candidates)
        assert no_fit > 10_000 and no_fit > 0.9 * len(candidates)
    else:
        assert max(r["n_candidates"] for r in candidates) > MAX_TRACED_CANDIDATES
        truncated = [r for r in candidates if r["truncated"]]
        assert truncated
        assert all(
            len(r["considered"]) == MAX_TRACED_CANDIDATES for r in truncated
        )
    if header["policy"] == "tiebreak":
        assert any(r["kind"] == "migration" for r in records)
