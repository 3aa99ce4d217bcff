"""A sync that patches nothing keeps the placement index's caches.

A full-machine job fills the torus, so the pass that starts it stops at
the node-count gate with no lookup after the dispatch; a failure that
kills it, or its end, releases it before the next lookup.  That lookup
then finds the allocation map the index already holds: ``sync`` patches
nothing, keeps every cached enumeration, projection and ``L_MFP`` loss,
and ``IndexCache.get`` counts ``index.incremental.kept``.  On a
scenario heavy in such jobs, and on an SDSC log whose passes migrate,
the production engine must still make the decisions of
:func:`tests.oracles.oracle_simulator` (a from-scratch reference index
per state) — equal reports and equal trace bytes — and must actually
take that path.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest

from repro.api import SimulationSetup
from repro.core.config import BackfillMode, SimulationConfig
from repro.core.policies.registry import make_policy
from repro.core.simulator import Simulator
from repro.metrics.serialize import report_to_dict
from repro.obs.trace import TraceRecorder
from repro.workloads.job import Workload
from tests.oracles import oracle_simulator


def scenario_inputs(scenario: str):
    """``(workload, failure log)`` with one failure per job.

    ``full-machine``: the SDSC log with every third job asking for the
    whole machine.  ``migrating``: an SDSC log, as drawn, on which the
    pass migrates (a fragmented torus holds enough free nodes for the
    head but no box).
    """
    if scenario == "full-machine":
        setup = SimulationSetup(site="sdsc", n_jobs=120, n_failures=120, seed=0)
        base = setup.build_workload()
        n = base.machine_nodes
        jobs = tuple(
            replace(job, size=n) if job.job_id % 3 == 0 else job
            for job in base.jobs
        )
        workload = Workload("full-machine-heavy", n, jobs)
    else:
        setup = SimulationSetup(site="sdsc", n_jobs=160, n_failures=160, seed=6)
        workload = setup.build_workload()
    return workload, setup.build_failures(workload)


def traced(engine, scenario: str, policy: str, config: SimulationConfig):
    workload, log = scenario_inputs(scenario)
    sink = io.StringIO()
    sim = engine(
        workload,
        log,
        make_policy(policy, failure_log=log, parameter=0.1, seed=2),
        config,
        recorder=TraceRecorder(sink=sink),
    )
    report = json.dumps(report_to_dict(sim.run()), sort_keys=True)
    return report, sink.getvalue(), sim


@pytest.mark.parametrize("migration", [True, False])
@pytest.mark.parametrize("policy", ["krevat", "balancing"])
@pytest.mark.parametrize("scenario", ["full-machine", "migrating"])
def test_kept_state_decides_like_the_rebuild_oracle(scenario, policy, migration):
    config = SimulationConfig(
        trace=True, profile=True, backfill=BackfillMode.EASY, migration=migration
    )
    report, trace, sim = traced(Simulator, scenario, policy, config)
    assert traced(oracle_simulator, scenario, policy, config)[:2] == (report, trace)
    counters = sim.metrics.to_dict(include_timings=False)["counters"]
    assert counters["index.incremental.kept"] > 0
    assert counters["index.incremental.repair"] > 0
    assert (sim.counters.migrations > 0) == (migration and scenario == "migrating")
