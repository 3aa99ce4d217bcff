"""Pinned decision-trace bytes.

``tests/failures/test_synthetic.py`` pins the failure generator's output
bytes — the inputs of every run; this file pins what a run writes, and
holds the recorder, the engine and all three policies to it, byte for
byte, through both recorder modes: streamed to a file sink, and buffered
then written by ``recorder.write()``.

The digests are derived, not observed.  Schema 1 traces also held an
empty ``candidates`` record for every waiting job a backfill walk or a
head probe found no partition for; schema 2 records decisions only.  The
schema-2 pins were the SHA-256 of the schema-1 trace with every
``candidates`` line of ``"n_candidates":0`` dropped, ``seq`` renumbered
densely from 0, the header's ``schema`` set to 2 and every record
re-encoded with ``records.canonical_json`` (schema 1 → 2: 57 840 → 1 225,
515 → 345 and 4 830 → 2 564 records).

Schema 3 records what the policy computed: a forced choice (one free
partition) is placed unscored with the recorder on too, ``considered``
is a column table, and balancing records its inputs ``l_mfp`` / ``p_f``
but not the derived ``l_pf`` / ``e_loss``.  Each pin is the SHA-256 of
the schema-2 trace (pinned here until the commit that stopped writing
it) with, in every ``candidates`` record, ``l_pf`` / ``e_loss`` dropped,
``l_mfp`` / ``p_f`` dropped too where ``n_candidates`` is 1 (tie-break's
``predicted_failure`` stays), the ``considered`` list of per-candidate
objects transposed to one object of columns, the header's ``schema`` set
to 3 and every record re-encoded with ``records.canonical_json`` — so
the decisions, their order and every recorded score are the historical
ones (same record counts; 347 341 → 220 122, 186 174 → 105 937 and
521 120 → 435 949 bytes).

Scenarios: the 160-job deep-queue balancing run of
``tests/core/test_backfill_walk.py``, a Krevat run whose early decisions
see hundreds of candidates (``truncated`` records), and a tie-break run
with a migration cost where a block of periodically failing nodes keeps
more than 64 tied candidates "predicted to fail" ahead of the first
stable one.
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
from repro.failures.events import FailureLog
from repro.obs.trace import TraceRecorder
from tests.oracles import CheckedSimulator


def deep_queue_inputs():
    setup = SimulationSetup(
        site="sdsc", n_jobs=160, n_failures=160, policy="balancing",
        parameter=0.1, seed=0,
        config=SimulationConfig(trace=True),
    )
    return (*setup.build_inputs(), setup.config)


def krevat_inputs():
    setup = SimulationSetup(
        site="sdsc", n_jobs=60, n_failures=60, policy="krevat", seed=3,
        config=SimulationConfig(trace=True),
    )
    return (*setup.build_inputs(), setup.config)


def tiebreak_inputs():
    """Generated log plus ten bursts over nodes 0..95: with accuracy 1
    the predictor flags every tied candidate based there, so the policy
    examines more than ``MAX_TRACED_CANDIDATES`` of them."""
    setup = SimulationSetup(
        site="sdsc", n_jobs=60, n_failures=60, policy="tiebreak",
        parameter=1.0, seed=3,
        config=SimulationConfig(trace=True, migration_cost_s=10.0),
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
        "0fc247c30d4adf64138c836928d0269aacafcd697911e7e0f293bd643ebd236a",
    ),
    "krevat_wide": (
        krevat_inputs,
        "459317a43fae016c433214c75d1f30b4ecf30f95e4016ff7dc829d7baf2a7bc2",
    ),
    "tiebreak_migration_cost": (
        tiebreak_inputs,
        "6cd0620d5f85ea26c1cfb5eab40ded9c3ca05161720e752af63ec0c3dfb39cf6",
    ),
}


@pytest.fixture(scope="module", params=SCENARIOS)
def written(request, tmp_path_factory):
    """(pinned digest, streamed bytes, buffered bytes, buffered records)."""
    inputs, pinned = SCENARIOS[request.param]
    tmp = tmp_path_factory.mktemp(request.param)
    streamed = tmp / "streamed.ndjson"
    with streamed.open("w", encoding="utf-8") as sink:
        CheckedSimulator(*inputs(), recorder=TraceRecorder(sink=sink)).run()
    sim = CheckedSimulator(*inputs())
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
    """Two scenarios write ``truncated`` tables, and none writes a
    no-fit record: every ``candidates`` has a candidate and a choice."""
    _, _, _, records = written
    candidates = [r for r in records if r["kind"] == "candidates"]
    header = records[0]
    assert header["schema"] == 3
    assert candidates
    assert all(r["n_candidates"] >= 1 and r["chosen"] for r in candidates)
    if header["policy"] != "balancing":
        assert max(r["n_candidates"] for r in candidates) > MAX_TRACED_CANDIDATES
        truncated = [r for r in candidates if r["truncated"]]
        assert truncated
        assert all(
            len(r["considered"]["base"]) == MAX_TRACED_CANDIDATES for r in truncated
        )
    if header["policy"] == "tiebreak":
        assert any(r["kind"] == "migration" for r in records)
