"""Arrival sources for the steppable simulator.

The batch simulator replays a finite trace: every arrival is known up
front, so the whole workload is pushed into the event heap before the
loop starts.  The online service (:mod:`repro.serve`) instead feeds the
same engine from an open-ended stream where future arrivals are unknown
and the loop may only advance through events it can *prove* will not be
preempted by a later submission.

Both drivers have ``bind(sim)``, which attaches to a
:class:`~repro.core.simulator.Simulator` and pushes any already-known
arrivals.  The online stream also keeps a ``watermark``: a simulation
time **w** such that every job arriving strictly before *w* has
already been submitted.  The engine may safely process events with
``time < w`` — a batch popped below the watermark can never gain
members retroactively, so decisions made there are final.  It is
``math.inf`` once the stream is closed.

The watermark is deliberately *strict*: events exactly at the watermark
stay queued, because a job arriving at precisely that instant would
join their batch (FINISH < FAILURE < ARRIVAL ordering) and change the
scheduler pass.  This is what makes an online replay byte-identical to
the batch run of the same trace (DESIGN.md §5.14).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.workloads.job import Job, Workload

if TYPE_CHECKING:
    from repro.core.jobstate import JobState
    from repro.core.simulator import Simulator


class TraceArrivalStream:
    """The batch driver: a finite workload, fully known up front.

    ``bind`` submits every job in workload order (the order the
    simulator has always pushed them), so the event heap — and with it
    every downstream decision — is identical to the historical
    construct-from-workload path.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload

    def bind(self, sim: "Simulator") -> None:
        for job in self.workload.jobs:
            sim.submit_job(job)


class OnlineArrivalStream:
    """An open-ended source fed one submission at a time.

    Submissions must carry nondecreasing arrival times — the stream is
    the single source of truth for how far the simulated clock may
    advance, and a job arriving in the processed past would make the
    run order-dependent.  ``close()`` marks the stream exhausted, which
    lifts the watermark to infinity so a drain can run the engine dry.
    """

    def __init__(self) -> None:
        self._sim: "Simulator" | None = None
        self._watermark = -math.inf
        self._closed = False

    def bind(self, sim: "Simulator") -> None:
        self._sim = sim

    def submit(self, job: Job) -> "JobState":
        """Feed one job; returns its engine-side state."""
        if self._sim is None:
            raise SimulationError("arrival stream is not bound to a simulator")
        if self._closed:
            raise SimulationError(
                f"job {job.job_id}: arrival stream is closed"
            )
        if job.arrival < self._watermark:
            raise SimulationError(
                f"job {job.job_id} arrives at {job.arrival} but the stream "
                f"watermark is already {self._watermark}; online submissions "
                f"must carry nondecreasing arrival times"
            )
        state = self._sim.submit_job(job)
        self._watermark = job.arrival
        return state

    def close(self) -> None:
        """No further arrivals: unlock the full event horizon."""
        self._closed = True

    @property
    def watermark(self) -> float:
        return math.inf if self._closed else self._watermark
