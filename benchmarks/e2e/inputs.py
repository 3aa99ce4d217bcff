"""Inputs of the six workloads, generated from ``--seed``.

Job logs are *frozen* (drawn once, from the ``log_seed`` constants
below) and ``--seed`` draws what is replayed against them: the failure
traces, the tenant/size mix of the request stream, the failure-count
offsets of the sweep grid.  That is the paper's own method - one job
log per site, failures varied on top of it - and it is forced by the
numbers: across *job-log* seeds the host time of a 300-job SDSC
simulation ranges from 50 to 1100 jobs/s (a single long wide job decides
how deep the queue gets), which no run of a few seconds can average
out.  Across failure traces on one log the quartiles are ~13 % apart,
and a panel of such items averages that down to a few per cent.
``swf_replay`` is the exception: without failures there is nothing else
to draw, its cost per job hardly depends on the draw, and its job logs
do come from ``--seed``.

The server child imports :func:`build_engine` so that the engine under
test and the batch run it is checked against are built by one function.
"""

from __future__ import annotations

import random
from typing import Any

#: Frozen job logs (site, jobs, load scale c, generator seed).
SIM_LOG = {"site": "sdsc", "n_jobs": 300, "load_scale": 1.0, "log_seed": 0}
TRACED_LOG = {"site": "sdsc", "n_jobs": 150, "load_scale": 1.0, "log_seed": 0}
REPLAY_LOG = {"site": "sdsc", "n_jobs": 400, "load_scale": 1.0, "log_seed": 0}
SWEEP_LOG_SEEDS = (0, 1)

#: Failures per job of the fault-heavy workloads (Figs. 3/6 regime).
FAILURES_PER_JOB = 1.0
POLICY = {"policy": "balancing", "parameter": 0.1}

#: Items (simulations, sessions, sweep calls, requests) per second of
#: ``--seconds``; frozen so that work scales with the argument and never
#: with how fast the machine happens to be.
ITEMS_PER_SECOND = {
    "sim_faulty": 1.75,
    "swf_replay": 0.625,
    "sim_traced": 1.0,
    "serve_overload": 16000.0,
    "serve_replay": 0.75,
    "sweep_grid": 0.5,
}
SWF_JOBS_PER_ITEM = 3000
SWEEP_POINTS = 8
SWEEP_JOBS = 150

OVERLOAD_DEPTH = 64
OVERLOAD_TENANTS = 4
OVERLOAD_STATUS_SHARE = 0.1


def n_items(workload: str, seconds: float, at_least: int = 2) -> int:
    return max(at_least, round(ITEMS_PER_SECOND[workload] * seconds))


def subseed(seed: int, stream: int, index: int = 0) -> int:
    """A distinct generator seed per (run seed, stream, item)."""
    return (abs(int(seed)) * 1_000_003 + stream * 10_007 + index) % (2**31 - 1)


# ----------------------------------------------------------------------
# simulator inputs
# ----------------------------------------------------------------------
def drawn_workload(site: str, n_jobs: int, load_scale: float, seed: int):
    """A job log of the site's model, load-scaled and fitted to the
    machine, drawn from ``seed``."""
    from repro.api import SimulationSetup

    return SimulationSetup(
        site=site, n_jobs=n_jobs, load_scale=load_scale, seed=seed
    ).build_workload()


def frozen_workload(log: dict[str, Any]):
    """The job log one of the ``*_LOG`` constants names."""
    return drawn_workload(log["site"], log["n_jobs"], log["load_scale"], log["log_seed"])


def failure_trace(workload, n_failures: int, failure_seed: int):
    """A failure log over the workload's span (the same horizon rule
    as ``SimulationSetup.build_failures``)."""
    from repro.api import SimulationSetup

    return SimulationSetup(
        n_failures=n_failures, seed=failure_seed
    ).build_failures(workload)


# ----------------------------------------------------------------------
# serve inputs
# ----------------------------------------------------------------------
def replay_engine_spec(failure_seed: int) -> dict[str, Any]:
    return {
        "kind": "replay",
        "log": REPLAY_LOG,
        "n_failures": round(REPLAY_LOG["n_jobs"] * FAILURES_PER_JOB),
        "failure_seed": failure_seed,
        **POLICY,
    }


def overload_engine_spec(seed: int) -> dict[str, Any]:
    return {"kind": "overload", "seed": seed, "tenant_cap": 64, "engine_cap": 32}


def replay_inputs(spec: dict[str, Any]):
    """``(workload, failure log, policy)`` of one replay session; the
    batch oracle and the served engine both start from here."""
    from repro.core.policies.registry import make_policy

    workload = frozen_workload(spec["log"])
    failures = failure_trace(workload, spec["n_failures"], spec["failure_seed"])
    policy = make_policy(
        spec["policy"],
        failure_log=failures,
        parameter=spec["parameter"],
        seed=spec["failure_seed"] + 2,
    )
    return workload, failures, policy


def build_engine(spec: dict[str, Any]):
    """The ``ServeEngine`` an engine spec describes."""
    from repro.api import SimulationSetup
    from repro.serve.engine import ServeEngine

    if spec["kind"] == "overload":
        return ServeEngine.from_setup(
            SimulationSetup(n_jobs=10, seed=spec["seed"]),
            clock="logical",
            tenant_cap=spec["tenant_cap"],
            engine_cap=spec["engine_cap"],
        )
    workload, failures, policy = replay_inputs(spec)
    return ServeEngine(
        workload.name, workload.machine_nodes, failures, policy, clock="trace"
    )


def overload_requests(seed: int, n_requests: int) -> list[dict[str, Any]]:
    """The overload stream: ~90 % ``submit`` (a machine-half job that
    never finishes, tenants drawn at random) and ~10 % ``status`` of an
    id submitted before it."""
    rng = random.Random(subseed(seed, 4))
    messages: list[dict[str, Any]] = []
    next_id = 0
    for _ in range(n_requests):
        if next_id and rng.random() < OVERLOAD_STATUS_SHARE:
            messages.append({"op": "status", "id": rng.randrange(min(next_id, 64))})
        else:
            messages.append(
                {
                    "op": "submit",
                    "id": next_id,
                    "size": 64,
                    "runtime": 1e6,
                    "tenant": f"t{rng.randrange(OVERLOAD_TENANTS)}",
                }
            )
            next_id += 1
    return messages


def replay_requests(workload) -> list[dict[str, Any]]:
    """Submits in arrival order over two tenants, every tenth followed
    by a ``status`` of the job just submitted."""
    messages: list[dict[str, Any]] = []
    for i, job in enumerate(workload.jobs):
        messages.append(
            {
                "op": "submit",
                "id": job.job_id,
                "size": job.size,
                "runtime": job.runtime,
                "estimate": job.estimate,
                "arrival": job.arrival,
                "tenant": f"t{i % 2}",
            }
        )
        if i % 10 == 9:
            messages.append({"op": "status", "id": job.job_id})
    return messages


# ----------------------------------------------------------------------
# sweep inputs
# ----------------------------------------------------------------------
def sweep_log_seeds(call: int) -> tuple[int, ...]:
    """The frozen sweep seed (= job log and master failure log) of a call."""
    return (SWEEP_LOG_SEEDS[call % len(SWEEP_LOG_SEEDS)],)


def sweep_points(seed: int, call: int):
    """Eight points along the failure-count axis; ``--seed`` shifts the
    axis by 0-24 events, which changes which failures of the nested
    master log every cell replays."""
    from repro.experiments.sweep import SweepPoint

    offset = random.Random(subseed(seed, 6, call)).randrange(25)
    return [
        SweepPoint(
            "sdsc",
            SWEEP_JOBS,
            1.0,
            50 * i + offset,
            POLICY["policy"],
            POLICY["parameter"],
        )
        for i in range(SWEEP_POINTS)
    ]
