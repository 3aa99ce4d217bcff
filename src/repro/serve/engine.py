"""Transport-independent service core: admission + steppable simulator.

:class:`ServeEngine` owns one open-ended :class:`~repro.core.Simulator`,
one :class:`~repro.core.arrivals.OnlineArrivalStream` and one
:class:`~repro.serve.admission.FairShareAdmission` controller, and maps
protocol requests onto them through a synchronous
:meth:`~ServeEngine.handle`.  The asyncio server and the in-process
client are both thin shells around this method — which is what lets the
load harness measure the engine's real submission throughput without
a transport in the way.

Pumping discipline: the event loop only advances through batches that
fall strictly inside the arrival watermark (see
:mod:`repro.core.arrivals`), and does so lazily — every
``pump_interval`` submissions rather than on each one — so a burst of
submits isn't serialised against simulation work.  ``drain`` closes the
stream and runs the engine dry; for a trace replay the resulting report
is byte-identical to the batch simulator's.

Backpressure: per-tenant queues are hard-capped in both clock modes
(reject + ``retry_after``).  Engine backlog (released but uncompleted
jobs) is hard-capped under the ``logical`` clock — queued jobs simply
wait their turn — but only soft-capped under the ``trace`` clock: a
replayed arrival cannot be deferred without rewriting history, so the
engine pumps to free room and otherwise admits anyway, counting a
``serve.soft_overflows`` metric.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Any

from repro.errors import ProtocolError, ReproError, ServeError
from repro.failures.events import FailureLog
from repro.geometry.shapes import all_shapes
from repro.metrics.serialize import report_to_dict
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NullRecorder, TraceRecorder
from repro.serve.admission import FairShareAdmission
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    REQUIRED_FIELDS,
    error_response,
    refusal,
    validate_request,
)
from repro.core.arrivals import OnlineArrivalStream
from repro.core.config import SimulationConfig
from repro.core.policies.base import SchedulingPolicy
from repro.core.simulator import Simulator
from repro.workloads.job import Workload

#: Default cap on released-but-uncompleted jobs inside the engine.
DEFAULT_ENGINE_CAP = 512

#: Default submissions between lazy pump passes.
DEFAULT_PUMP_INTERVAL = 32


class ServeEngine:
    """One service instance: session state, admission and the simulator."""

    def __init__(
        self,
        workload_name: str,
        machine_nodes: int,
        failure_log: FailureLog,
        policy: SchedulingPolicy,
        config: SimulationConfig | None = None,
        *,
        clock: str = "trace",
        weights: dict[str, float] | None = None,
        tenant_cap: int = 256,
        engine_cap: int = DEFAULT_ENGINE_CAP,
        pump_interval: int = DEFAULT_PUMP_INTERVAL,
        recorder: TraceRecorder | NullRecorder | None = None,
    ) -> None:
        if engine_cap < 1:
            raise ServeError(f"engine_cap must be >= 1, got {engine_cap}")
        if pump_interval < 1:
            raise ServeError(f"pump_interval must be >= 1, got {pump_interval}")
        empty = Workload(workload_name, machine_nodes, ())
        self.sim = Simulator(
            empty, failure_log, policy, config, recorder=recorder, open_ended=True
        )
        self.stream = OnlineArrivalStream()
        self.stream.bind(self.sim)
        self.admission = FairShareAdmission(
            weights, tenant_cap=tenant_cap, clock=clock
        )
        self.clock = clock
        self.engine_cap = engine_cap
        self.pump_interval = pump_interval
        self.metrics = MetricsRegistry()
        self._tick = 0.0
        self._since_pump = 0
        self._drained: dict[str, Any] | None = None
        self._submitted = 0
        # What every request would otherwise recompute, built once: the
        # op table (op -> its ``_<op>`` method, one per protocol op), each
        # op's latency histogram and each tenant's refusal (added at
        # first use), and the job sizes some box of the torus holds.
        self._ops = {op: getattr(self, f"_{op}") for op in REQUIRED_FIELDS}
        self._latency: dict[str, Histogram] = {}
        self._refusals: dict[tuple[str, float], dict[str, Any]] = {}
        shapes = all_shapes(self.sim.config.dims)
        self._placeable = frozenset(a * b * c for a, b, c in shapes)
        self.sim.write_trace_header(serve_clock=clock)

    @classmethod
    def from_setup(cls, setup: Any, **kwargs: Any) -> "ServeEngine":
        """Build from an :class:`~repro.api.SimulationSetup`.

        The full workload is built and *discarded* — only its name and
        the failure log derived from its span are kept — so a client
        replaying that same workload reproduces the batch run exactly
        (same failures, same policy seeding).
        """
        workload, failures, policy = setup.build_inputs()
        return cls(
            workload.name,
            workload.machine_nodes,
            failures,
            policy,
            setup.config,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def handle(self, message: dict[str, Any]) -> dict[str, Any]:
        """Process one request dict and return the response dict."""
        start = time.perf_counter()
        try:
            op = validate_request(message)
        except ProtocolError as exc:
            return error_response(exc, protocol_error=True)
        try:
            response = self._ops[op](message)
        except ReproError as exc:
            response = error_response(exc)
        elapsed_us = (time.perf_counter() - start) * 1e6
        latency = self._latency.get(op)
        if latency is None:
            name = f"serve.{op}_latency_us"
            latency = self._latency[op] = self.metrics.histogram(name)
        latency.observe(elapsed_us)
        if "id" in message and "id" not in response:
            response["id"] = message["id"]
        return response

    # ------------------------------------------------------------------
    def _submit(self, message: dict[str, Any]) -> dict[str, Any]:
        if self._drained is not None:
            raise ServeError("service is drained; no further submissions")
        self._submitted += 1
        job_id = message["id"]
        size = message["size"]
        if size not in self._placeable:
            raise ServeError(
                f"job {job_id} size {size} has no rectangular partition "
                f"on {self.sim.config.dims.as_tuple()}"
            )
        if self.clock == "trace":
            if "arrival" not in message:
                raise ProtocolError(
                    "trace clock requires an 'arrival' time on submit"
                )
            arrival = float(message["arrival"])
            if arrival < self.stream.watermark:
                raise ServeError(
                    f"job {job_id} arrival {arrival} is in the simulated "
                    f"past (watermark {self.stream.watermark}); trace-mode "
                    f"submissions must be nondecreasing in arrival"
                )
        else:
            arrival = float(message.get("arrival", 0.0))
        # Two dict lookups settle a new id; only a known one is asked
        # for its phase.
        if job_id in self.sim.states or job_id in self.admission.queued:
            existing = self.sim.job_status(job_id)
            if existing not in ("unknown", "cancelled") or (
                job_id in self.admission.queued
            ):
                raise ServeError(f"job {job_id} already submitted ({existing})")
        tenant = message.get("tenant", "default")
        runtime, estimate = float(message["runtime"]), float(message.get("estimate", -1.0))
        retry_after = self.admission.offer(
            tenant, job_id, max(arrival, 0.0), size, runtime, estimate
        )
        if retry_after is not None:
            # A full queue is refused at its cap, so one tenant's
            # refusals are all alike: build each once, hand out copies.
            refused = self._refusals.get((tenant, retry_after))
            if refused is None:
                refused = self._refusals[tenant, retry_after] = refusal(tenant, retry_after)
            return dict(refused)
        self._release()
        self._since_pump += 1
        if self._since_pump >= self.pump_interval:
            self._since_pump = 0
            self.sim.pump(horizon=self.stream.watermark)
        return {"ok": True, "queued": self.admission.backlog}

    def _release(self, capped: bool = True) -> None:
        """Move admitted jobs from tenant queues into the simulator, up to
        the engine cap — or all of them: a drain honours all admitted work.
        The one hand-over, so the one place a ``logical`` arrival is stamped."""
        while self.admission.backlog:
            if capped and self.sim.outstanding >= self.engine_cap:
                if self.clock == "logical":
                    return  # hard cap: jobs wait in their tenant queues
                # Trace clock: history cannot wait.  Pump up to the next
                # release's arrival to free room, then admit regardless.
                head = self.admission.head_arrival()
                progressed = self.sim.pump(horizon=head if head is not None else 0.0)
                if not progressed and self.sim.outstanding >= self.engine_cap:
                    self.metrics.counter("serve.soft_overflows").inc()
            job = self.admission.release_next()
            if job is None:
                return
            if self.clock == "logical":
                job = replace(job, arrival=self._tick)
                self._tick += 1.0
            self.stream.submit(job)

    def _cancel(self, message: dict[str, Any]) -> dict[str, Any]:
        job_id = message["id"]
        if self.admission.withdraw(job_id):
            self.metrics.counter("serve.cancelled").inc()
            return {"ok": True, "caught": "admission"}
        outcome = self.sim.cancel_job(job_id)
        if outcome == "unknown":
            raise ServeError(f"job {job_id} is not known to this session")
        if outcome == "completed":
            return {"ok": False, "error": f"job {job_id} already completed"}
        if outcome != "cancelled":  # "cancelled" = repeat cancel, idempotent
            self.metrics.counter("serve.cancelled").inc()
        return {"ok": True, "caught": outcome}

    def _status(self, message: dict[str, Any]) -> dict[str, Any]:
        job_id = message["id"]
        if job_id in self.admission.queued:
            return {"ok": True, "state": "admitted"}
        state = self.sim.job_status(job_id)
        if state == "unknown":
            raise ServeError(f"job {job_id} is not known to this session")
        return {"ok": True, "state": state}

    def _stats(self, message: dict[str, Any] | None = None) -> dict[str, Any]:
        # -inf before the first submission and +inf once the stream is
        # closed are not JSON numbers: "no finite watermark" is null.
        watermark = self.stream.watermark
        return {
            "ok": True,
            "version": PROTOCOL_VERSION,
            "clock": self.clock,
            "submitted": self._submitted,
            "admitted": self.admission.total_admitted,
            "rejected": self.admission.total_rejected,
            "queue_depth": self.admission.backlog,
            "outstanding": self.sim.outstanding,
            "completed": self.sim.completed_count,
            "watermark": watermark if math.isfinite(watermark) else None,
            "drained": self._drained is not None,
            "tenants": self.admission.shares(),
        }

    def _ping(self, message: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "pong": True, "version": PROTOCOL_VERSION}

    def _drain(self, message: dict[str, Any] | None = None) -> dict[str, Any]:
        # Computed once; each answer is a fresh copy, since ``handle``
        # adds the request's id to it (nothing writes to the report).
        if self._drained is None:
            self._release(capped=False)
            self.stream.close()
            report = self.sim.drain()
            self._drained = {
                "ok": True,
                "report": report_to_dict(report),
                "stats": self._stats(),
            }
            # _stats() above ran before "drained" flipped observable.
            self._drained["stats"]["drained"] = True
        return dict(self._drained)

    def _shutdown(self, message: dict[str, Any]) -> dict[str, Any]:
        # Drain now; the transport stops after this answer.
        response = self._drain()
        response["shutdown"] = True
        return response

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """Service-layer metrics plus the simulator's own registry.

        The request counts and the two depth gauges are read here from
        the fields the ``stats`` op answers from — their one home — so
        the two views cannot disagree; the simulator's pass, kill and
        migration counts likewise come from its report ``Counters``.
        """
        snapshot = self.metrics.to_dict()
        snapshot["counters"].update({
            "serve.admitted": float(self.admission.total_admitted),
            "serve.rejected": float(self.admission.total_rejected),
            "serve.submitted": float(self._submitted),
        })
        snapshot["gauges"].update({
            "serve.outstanding": float(self.sim.outstanding),
            "serve.queue_depth": float(self.admission.backlog),
        })
        if self.sim.metrics is not None:
            snapshot["sim"] = sim = self.sim.metrics.to_dict()
            for name in ("job_kills", "migrations", "scheduler_passes"):
                # Listed once it fired, as a registry counter is.
                if count := getattr(self.sim.counters, name):
                    sim["counters"][f"sim.{name}"] = float(count)
        return snapshot
