"""Weighted fair-share admission control with bounded tenant queues.

Submissions land in a per-tenant FIFO whose depth is capped — a full
queue yields an explicit reject with a ``retry_after`` hint rather than
unbounded growth.  A stride scheduler (pass/stride, the classic
deterministic analogue of lottery scheduling) then releases queued jobs
to the engine: each release advances the tenant's pass by
``STRIDE_SCALE / weight``, and the tenant with the smallest pass goes
next, so long-run release rates are proportional to weights.

Job ids are unique across the queues, and an id index beside them
answers "is this id queued, and where" in one lookup: every ``submit``
asks it before the cap can turn the job away, so on an overloaded
service it is the hottest question admission gets.

Two clock disciplines, chosen at engine construction:

``trace``
    Clients state simulated arrival times (an SWF replay).  Simulated
    time is authoritative, so releases follow global arrival order and
    the stride pass only breaks same-instant ties — fairness cannot be
    allowed to reorder history, or the replay would diverge from the
    batch run it must reproduce.
``logical``
    The service assigns arrivals from a monotonic logical tick at
    release time, so stride order *is* arrival order and weights
    genuinely shape the schedule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ServeError
from repro.geometry.torus import MAX_JOB_ID
from repro.workloads.job import Job

#: Pass-value scale; weights divide it, so larger weight = smaller stride.
STRIDE_SCALE = 1 << 20

#: Per-job backoff hint (seconds) multiplied by queue depth on reject.
_RETRY_PER_QUEUED = 0.001


@dataclass
class TenantQueue:
    """One tenant's bounded FIFO plus its stride-scheduler state."""

    name: str
    weight: float = 1.0
    cap: int = 256
    queue: deque[Job] = field(default_factory=deque)
    pass_value: float = 0.0
    admitted: int = 0
    rejected: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.weight < math.inf:
            raise ServeError(
                f"tenant {self.name!r}: weight must be positive and finite, "
                f"got {self.weight}"
            )
        if self.cap < 1:
            raise ServeError(
                f"tenant {self.name!r}: queue cap must be >= 1, got {self.cap}"
            )
        self.stride = STRIDE_SCALE / self.weight

    @property
    def depth(self) -> int:
        return len(self.queue)


class FairShareAdmission:
    """Bounded per-tenant queues drained in weighted stride order."""

    def __init__(
        self,
        weights: dict[str, float] | None = None,
        *,
        tenant_cap: int = 256,
        clock: str = "trace",
    ) -> None:
        if clock not in ("trace", "logical"):
            raise ServeError(f"clock must be 'trace' or 'logical', got {clock!r}")
        self.clock = clock
        self.tenant_cap = tenant_cap
        self._tenants: dict[str, TenantQueue] = {}
        #: Every queued job by id, with the queue holding it: what makes
        #: "is this id queued" (``id in queued``, read-only to callers),
        #: ``withdraw`` and ``backlog`` independent of depth.
        self.queued: dict[int, tuple[TenantQueue, Job]] = {}
        self._weights = dict(weights or {})
        self.total_admitted = 0
        self.total_rejected = 0
        for name in self._weights:
            self.tenant(name)

    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantQueue:
        """Get-or-create a tenant queue (unknown tenants get weight 1).

        A newcomer starts at the current maximum pass value, not zero —
        otherwise it would monopolise releases until it "caught up" on
        share it was never owed.
        """
        tq = self._tenants.get(name)
        if tq is None:
            start_pass = max(
                (t.pass_value for t in self._tenants.values()), default=0.0
            )
            tq = TenantQueue(
                name,
                weight=self._weights.get(name, 1.0),
                cap=self.tenant_cap,
            )
            tq.pass_value = start_pass
            self._tenants[name] = tq
        return tq

    def offer(self, tenant_name: str, job_id: int, arrival: float, size: int,
              runtime: float, estimate: float) -> float | None:  # fmt: skip
        """Queue the job with these fields; ``None`` on success, else a
        retry-after hint in seconds (the queue is full).  Only an admitted
        job is built, but the one :class:`Job` check a validated request
        can fail, an id above ``MAX_JOB_ID``, still answers first."""
        tq = self._tenants.get(tenant_name)
        if tq is not None:
            depth = len(tq.queue)
            if depth >= tq.cap and job_id <= MAX_JOB_ID:
                tq.rejected += 1
                self.total_rejected += 1
                return depth * _RETRY_PER_QUEUED
        job = Job(job_id, arrival, size, runtime, estimate)
        if tq is None:
            tq = self.tenant(tenant_name)
        if job_id in self.queued:
            raise ServeError(f"job {job_id} is already queued")
        tq.queue.append(job)
        self.queued[job_id] = (tq, job)
        tq.admitted += 1
        self.total_admitted += 1
        return None

    def withdraw(self, job_id: int) -> bool:
        """Remove a still-queued submission (the cancel fast path)."""
        entry = self.queued.pop(job_id, None)
        if entry is None:
            return False
        tq, job = entry
        tq.queue.remove(job)
        return True

    # ------------------------------------------------------------------
    def release_next(self) -> Job | None:
        """Pop the next job to hand to the engine, or None when idle.

        ``trace`` clock: global arrival order, stride pass as the
        same-instant tie-break.  ``logical`` clock: pure stride order.
        """
        best: TenantQueue | None = None
        best_key: tuple[float, float, str] | None = None
        for tq in self._tenants.values():
            if not tq.queue:
                continue
            head = tq.queue[0]
            if self.clock == "trace":
                key = (head.arrival, tq.pass_value, tq.name)
            else:
                key = (tq.pass_value, 0.0, tq.name)
            if best_key is None or key < best_key:
                best, best_key = tq, key
        if best is None:
            return None
        job = best.queue.popleft()
        del self.queued[job.job_id]
        best.pass_value += best.stride
        return job

    def head_arrival(self) -> float | None:
        """Earliest queued arrival across tenants (trace-clock pumping)."""
        heads = [tq.queue[0].arrival for tq in self._tenants.values() if tq.queue]
        return min(heads) if heads else None

    @property
    def backlog(self) -> int:
        """Jobs queued across all tenants, awaiting release."""
        return len(self.queued)

    def depths(self) -> dict[str, int]:
        """Per-tenant queue depths (stats endpoint)."""
        return {name: tq.depth for name, tq in sorted(self._tenants.items())}

    def shares(self) -> dict[str, dict[str, float]]:
        """Per-tenant admission accounting (stats endpoint)."""
        return {
            name: {
                "weight": tq.weight,
                "admitted": tq.admitted,
                "rejected": tq.rejected,
                "depth": tq.depth,
            }
            for name, tq in sorted(self._tenants.items())
        }
