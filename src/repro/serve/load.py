"""Deterministic replay / load-test harness (`bgl-sim load`).

Replays a workload's jobs through a service client in arrival order —
at full speed, at an accelerated multiple of trace time, or at a fixed
open-loop rate — validating every response and reporting submit-latency
percentiles and sustained throughput.  Open-loop means rejects are
counted and *not* retried: under overload the interesting number is how
backpressure engages, not how politely a client backs off.

Pipelining batches ``pipeline_depth`` requests per transport round trip
so TCP throughput measures the service, not the RTT; per-request
latency is then the batch round trip amortised over its members.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ServeError
from repro.workloads.job import Workload


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load run."""

    submitted: int
    accepted: int
    rejected: int
    errors: int
    #: Responses actually received; a dropped response is a harness
    #: failure even when the submission itself was rejected.
    responses: int
    elapsed_s: float
    throughput: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    error_samples: tuple[str, ...] = ()
    #: Final schedule report from ``drain``, when requested.
    final_report: dict[str, Any] | None = field(default=None, repr=False)

    @property
    def dropped(self) -> int:
        return self.submitted - self.responses

    def to_dict(self) -> dict[str, Any]:
        out = {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errors": self.errors,
            "responses": self.responses,
            "dropped": self.dropped,
            "elapsed_s": self.elapsed_s,
            "throughput": self.throughput,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
        }
        if self.error_samples:
            out["error_samples"] = list(self.error_samples)
        if self.final_report is not None:
            out["final_report"] = self.final_report
        return out

    def summary_lines(self) -> list[str]:
        lines = [
            f"submitted   {self.submitted}",
            f"accepted    {self.accepted}",
            f"rejected    {self.rejected}",
            f"errors      {self.errors}",
            f"dropped     {self.dropped}",
            f"elapsed     {self.elapsed_s:.3f}s",
            f"throughput  {self.throughput:.0f} submissions/s",
            f"latency     p50={self.p50_ms:.3f}ms p99={self.p99_ms:.3f}ms "
            f"max={self.max_ms:.3f}ms",
        ]
        if self.final_report is not None:
            jobs = len(self.final_report.get("records", []))
            lines.append(f"drained     {jobs} jobs completed")
        return lines


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * (len(sorted_values) - 1) + 0.5), len(sorted_values) - 1)
    return sorted_values[index]


def workload_messages(
    workload: Workload, tenants: Sequence[str] = ("default",)
) -> list[dict[str, Any]]:
    """Submit requests for every job, tenants assigned round-robin."""
    if not tenants:
        raise ServeError("at least one tenant name is required")
    messages = []
    for i, job in enumerate(workload.jobs):
        messages.append(
            {
                "op": "submit",
                "id": job.job_id,
                "arrival": job.arrival,
                "size": job.size,
                "runtime": job.runtime,
                "estimate": job.estimate,
                "tenant": tenants[i % len(tenants)],
            }
        )
    return messages


def run_load(
    client: Any,
    workload: Workload,
    *,
    acceleration: float | None = None,
    rate: float | None = None,
    tenants: Sequence[str] = ("default",),
    pipeline_depth: int = 1,
    drain: bool = True,
    max_error_samples: int = 5,
) -> LoadReport:
    """Replay ``workload`` through ``client`` and measure the service.

    ``acceleration`` paces submissions at trace time divided by the
    factor; ``rate`` paces at a fixed submissions/s regardless of trace
    spacing; neither means full speed.  They are mutually exclusive.
    """
    if acceleration is not None and rate is not None:
        raise ServeError("acceleration and rate are mutually exclusive")
    if acceleration is not None and not 0 < acceleration < math.inf:
        raise ServeError(f"acceleration must be positive and finite, got {acceleration}")
    if rate is not None and not 0 < rate < math.inf:
        raise ServeError(f"rate must be positive and finite, got {rate}")
    if pipeline_depth < 1:
        raise ServeError(f"pipeline_depth must be >= 1, got {pipeline_depth}")

    messages = workload_messages(workload, tenants)
    origin = messages[0]["arrival"] if messages else 0.0
    accepted = rejected = errors = responses = 0
    error_samples: list[str] = []
    latencies_ms: list[float] = []
    request_many = getattr(client, "request_many", None)

    start = time.perf_counter()
    for chunk_start in range(0, len(messages), pipeline_depth):
        chunk = messages[chunk_start : chunk_start + pipeline_depth]
        if rate is not None:
            target = chunk_start / rate
        elif acceleration is not None:
            target = (chunk[0]["arrival"] - origin) / acceleration
        else:
            target = None
        if target is not None:
            delay = target - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
        sent = time.perf_counter()
        if request_many is not None:
            replies = request_many(chunk)
        else:
            replies = [client.request(m) for m in chunk]
        round_trip_ms = (time.perf_counter() - sent) * 1e3
        latencies_ms.extend([round_trip_ms / len(chunk)] * len(replies))
        for reply in replies:
            responses += 1
            if reply.get("ok"):
                accepted += 1
            elif reply.get("rejected"):
                rejected += 1
            else:
                errors += 1
                if len(error_samples) < max_error_samples:
                    error_samples.append(str(reply.get("error", reply)))
    elapsed = time.perf_counter() - start

    final_report = None
    if drain:
        drained = client.drain()
        if not drained.get("ok"):
            raise ServeError(f"drain failed: {drained.get('error', drained)}")
        final_report = drained.get("report")

    latencies_ms.sort()
    return LoadReport(
        submitted=len(messages),
        accepted=accepted,
        rejected=rejected,
        errors=errors,
        responses=responses,
        elapsed_s=elapsed,
        throughput=len(messages) / elapsed if elapsed > 0 else 0.0,
        p50_ms=_percentile(latencies_ms, 0.50),
        p99_ms=_percentile(latencies_ms, 0.99),
        max_ms=latencies_ms[-1] if latencies_ms else 0.0,
        error_samples=tuple(error_samples),
        final_report=final_report,
    )
