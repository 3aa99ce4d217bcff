"""The six workloads: set-up, timed region and output checks of each.

Every workload follows one protocol (:class:`Workload`): ``prepare``
generates inputs from the seed, ``setup`` is the timed set-up (repeated
by the runner, median reported), ``measure`` runs the timed region in
*slices* bracketed by reference-kernel samples (:mod:`refclock`) and
checks the outputs, ``teardown`` stops what ``setup`` started.

What one *op* is - the unit behind ``ops_per_s`` and ``op_p50_ms`` -
differs by workload and is stated on each class.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.e2e import inputs, refclock
from benchmarks.e2e.driver import Driver
from benchmarks.e2e.refclock import Slices
from benchmarks.e2e.spans import SpanRecorder

SERVER_SCRIPT = Path(__file__).with_name("server.py")

#: Seconds to wait for a server child to come up / wind down.
CHILD_TIMEOUT_S = 60.0


def digest(value: Any) -> str:
    """SHA-256 of a JSON-serialisable value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    sha = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _maxrss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Measurement:
    """What one pass over a workload's timed region produced."""

    ops: int = 0
    #: One entry per timed slice: raw seconds and the speed factor.
    slices: Slices = field(default_factory=Slices)
    #: Seconds (at reference speed) each op took, as its caller saw it.
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Named output checks; one ``False`` fails the whole run.
    checks: dict[str, bool] = field(default_factory=dict)
    #: Digests and ungated observations (``report_sha256``, ...).
    info: dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics that do not come from spans.
    layers: dict[str, float] = field(default_factory=dict)
    #: Span tables shipped back by server children (traced pass).
    child_spans: list[dict[str, Any]] = field(default_factory=list)
    #: False when the timed region ran where no span can see it.
    span_covered: bool = True

    def check(self, name: str, ok: bool) -> bool:
        """Record one outcome of the named check; it holds only if
        every outcome recorded under that name did."""
        self.checks[name] = self.checks.get(name, True) and ok
        return ok

    @property
    def wall_s(self) -> float:
        """Timed wall at reference speed."""
        return sum(self.slices.normalised)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.slices.raw)

    @property
    def scale(self) -> float:
        """Reference-speed seconds per raw second over the whole pass."""
        return self.wall_s / self.raw_wall_s


class Workload:
    """Protocol the runner drives; see the module docstring."""

    name = ""
    why = ""
    op = ""

    #: Whether the timed region keeps two processes busy at once.
    two_processes = False
    #: Reference kernels per sample (~3-5 % of a timed slice).
    kernels_per_sample = 1

    def __init__(self, seed: int, seconds: float, tmpdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tmpdir = tmpdir
        self.companion = refclock.Companion() if self.two_processes else None
        #: One core's kernel, or the kernel on two cores at once.
        self.sampler = self.companion.sample if self.companion else refclock.sample

    def measurement(self) -> Measurement:
        return Measurement(slices=Slices(self.sampler, self.kernels_per_sample))

    def close(self) -> None:
        """Stop the reference companion, if there is one."""
        if self.companion is not None:
            self.companion.close()

    def prepare(self) -> None:
        """Generate the inputs (untimed, once)."""

    def setup(self, trace: bool = False) -> None:
        """Load inputs and bring the program to 'ready to time'."""

    def measure(self, recorder: SpanRecorder | None) -> Measurement:
        """Run the timed region once; with a recorder, install it
        around whatever of the region runs in this process."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop every process ``setup`` started and wait for it."""

    def peak_rss_mib(self) -> float:
        """Peak RSS of the process(es) that ran the program; asked
        after ``teardown``, when every child has been waited for."""
        return _maxrss_mib(resource.RUSAGE_SELF)


# ----------------------------------------------------------------------
# report checks shared by the simulator workloads
# ----------------------------------------------------------------------
def report_invariants(report: dict[str, Any], job_ids: list[int]) -> bool:
    """A well-formed report of exactly these jobs: each completed once,
    no job before its arrival or finished before it started, kills
    equal to failures that hit a job, capacity shares summing to one."""
    records = report["records"]
    counters = report["counters"]
    capacity = report["capacity"]
    if sorted(r["job_id"] for r in records) != sorted(job_ids):
        return False
    for r in records:
        if not r["arrival"] <= r["start"] <= r["finish"]:
            return False
    if counters["job_kills"] != counters["failures_hit_jobs"]:
        return False
    shares = capacity["utilized"] + capacity["unused"] + capacity["lost"]
    return math.isclose(shares, 1.0, abs_tol=1e-9)


def add_sim_counters(layers: dict[str, float], report: dict[str, Any]) -> None:
    for key in ("scheduler_passes", "backfills", "migrations", "job_kills"):
        name = f"core.simulator.{key}"
        layers[name] = layers.get(name, 0) + report["counters"][key]


def simulate(workload, failures, config=None, recorder=None) -> dict[str, Any]:
    """``make_policy`` -> ``Simulator`` -> ``run`` -> ``report_to_dict``,
    the batch pipeline as the fault-heavy workloads time it."""
    from repro.core.policies.registry import make_policy
    from repro.core.simulator import Simulator
    from repro.metrics import serialize

    policy = make_policy(
        inputs.POLICY["policy"],
        failure_log=failures,
        parameter=inputs.POLICY["parameter"],
    )
    report = Simulator(workload, failures, policy, config, recorder=recorder).run()
    return serialize.report_to_dict(report)


def _timed(measurement: Measurement, recorder: SpanRecorder | None, fn, *args):
    """One slice: reference samples around ``fn``; in a traced pass
    with the recorder's wrappers installed and inside the root span."""
    if recorder is None:
        return measurement.slices.timed(fn, *args)
    with recorder:
        return measurement.slices.timed(recorder.root, "bench.root", fn, *args)


def _note_item(measurement: Measurement, n_ops: int) -> None:
    """The slice just timed was one op batch of ``n_ops`` ops."""
    measurement.ops += n_ops
    measurement.latencies_s.append(measurement.slices.normalised[-1])


# ----------------------------------------------------------------------
# sim_faulty
# ----------------------------------------------------------------------
class SimFaulty(Workload):
    """One op = one simulated job (``op_p50_ms``: one whole simulation)."""

    name = "sim_faulty"
    why = (
        "Paper's headline regime (Figs. 3/6): SDSC log, one failure per job, "
        "balancing a=0.1; deep queue, so backfill walk, scoring and predictor own the time"
    )
    op = "job"
    kernels_per_sample = 3
    log = inputs.SIM_LOG
    config = None

    def prepare(self) -> None:
        self.count = inputs.n_items(self.name, self.seconds)
        self.n_failures = round(self.log["n_jobs"] * inputs.FAILURES_PER_JOB)

    def setup(self, trace: bool = False) -> None:
        self.workload = inputs.frozen_workload(self.log)
        self.job_ids = [job.job_id for job in self.workload.jobs]
        self.traces = [
            inputs.failure_trace(
                self.workload, self.n_failures, inputs.subseed(self.seed, 1, i)
            )
            for i in range(self.count)
        ]

    def run_item(self, index: int) -> dict[str, Any]:
        return simulate(self.workload, self.traces[index], self.config)

    def measure(self, recorder: SpanRecorder | None) -> Measurement:
        m = self.measurement()
        digests = []
        for index in range(self.count):
            report = _timed(m, recorder, self.run_item, index)
            _note_item(m, len(self.job_ids))
            m.attempted += len(self.job_ids)
            ok = self.check_item(index, report, m)
            if not ok:
                m.failed += len(self.job_ids)
            digests.append(digest(report))
            add_sim_counters(m.layers, report)
        m.info["report_sha256"] = digest(digests)
        return m

    def check_item(self, index: int, report: dict[str, Any], m: Measurement) -> bool:
        return m.check("report_invariants", report_invariants(report, self.job_ids))


# ----------------------------------------------------------------------
# sim_traced
# ----------------------------------------------------------------------
class SimTraced(SimFaulty):
    """``sim_faulty``'s pipeline with the decision trace written to a
    file; one op = one simulated job."""

    name = "sim_traced"
    why = (
        "Same simulator with the decision recorder on (trace to file): obs owns most "
        "of the time, so tracing-cost work must move this workload and not sim_faulty"
    )
    log = inputs.TRACED_LOG

    def prepare(self) -> None:
        super().prepare()
        from repro.core.config import SimulationConfig

        self.config = SimulationConfig(trace=True)
        self.trace_bytes = 0
        self.trace_digests: list[str] = []

    def trace_path(self, index: int) -> Path:
        return self.tmpdir / f"trace_{index}.ndjson"

    def run_item(self, index: int) -> dict[str, Any]:
        from repro.obs.trace import TraceRecorder

        with self.trace_path(index).open("w", encoding="utf-8") as sink:
            return simulate(
                self.workload, self.traces[index], self.config, TraceRecorder(sink=sink)
            )

    def measure(self, recorder: SpanRecorder | None) -> Measurement:
        self.trace_bytes = 0
        self.trace_digests = []
        m = super().measure(recorder)
        m.info["trace_sha256"] = digest(self.trace_digests)
        m.layers["obs.emit.bytes"] = self.trace_bytes
        return m

    def check_item(self, index: int, report: dict[str, Any], m: Measurement) -> bool:
        ok = super().check_item(index, report, m)
        # The recorder must not change the schedule: same inputs,
        # recorder off, same report (untimed twin run).
        twin = simulate(self.workload, self.traces[index])
        m.slices.break_chain()
        same = m.check("traced_equals_untraced", twin == report)
        path = self.trace_path(index)
        self.trace_bytes += path.stat().st_size
        self.trace_digests.append(file_digest(path))
        with path.open("rb") as handle:
            header = json.loads(handle.readline())
        well_formed = m.check("trace_well_formed", header.get("kind") == "header")
        path.unlink()
        return ok and same and well_formed


# ----------------------------------------------------------------------
# swf_replay
# ----------------------------------------------------------------------
class SwfReplay(Workload):
    """Parse an SWF file and replay it through an open-ended simulator;
    one op = one replayed job (``op_p50_ms``: one whole replay)."""

    name = "swf_replay"
    why = (
        "Trace-replay headline: NASA log at half load, no failures, Krevat policy; short "
        "queue and idle predictor, so parse, event core, index refresh and capacity tracking do the work"
    )
    op = "job"
    kernels_per_sample = 3

    def prepare(self) -> None:
        self.count = inputs.n_items(self.name, self.seconds)
        self.paths = [self.tmpdir / f"replay_{i}.swf" for i in range(self.count)]

    def setup(self, trace: bool = False) -> None:
        from repro.failures.events import FailureLog
        from repro.geometry.coords import BGL_SUPERNODE_DIMS
        from repro.workloads.swf import write_swf

        self.dims = BGL_SUPERNODE_DIMS
        self.no_failures = FailureLog(self.dims.volume)
        self.expected: list[dict[int, tuple[int, float]]] = []
        for index, path in enumerate(self.paths):
            workload = inputs.drawn_workload(
                "nasa", inputs.SWF_JOBS_PER_ITEM, 0.5, inputs.subseed(self.seed, 2, index)
            )
            write_swf(workload, path)
            # What the file says (runtimes are whole seconds on disk).
            self.expected.append(
                {
                    job.job_id: (job.size, float(int(round(job.runtime))))
                    for job in workload.jobs
                    if int(round(job.runtime)) > 0
                }
            )

    def run_item(self, index: int) -> dict[str, Any]:
        from repro.core.arrivals import TraceArrivalStream
        from repro.core.policies.registry import make_policy
        from repro.core.simulator import Simulator
        from repro.metrics import serialize
        from repro.workloads import scaling, swf
        from repro.workloads.job import Workload as JobLog

        workload = scaling.fit_to_machine(swf.read_swf(self.paths[index]), self.dims)
        sim = Simulator(
            JobLog(workload.name, workload.machine_nodes, ()),
            self.no_failures,
            make_policy("krevat"),
            open_ended=True,
        )
        TraceArrivalStream(workload).bind(sim)
        return serialize.report_to_dict(sim.drain())

    def measure(self, recorder: SpanRecorder | None) -> Measurement:
        m = self.measurement()
        digests = []
        for index in range(self.count):
            report = _timed(m, recorder, self.run_item, index)
            expected = self.expected[index]
            _note_item(m, len(expected))
            m.attempted += len(expected)
            ok = report_invariants(report, list(expected)) and all(
                expected[r["job_id"]] == (r["size"], r["runtime"])
                for r in report["records"]
            )
            if not m.check("replayed_jobs_match_file", ok):
                m.failed += len(expected)
            digests.append(digest(report))
            add_sim_counters(m.layers, report)
        m.info["report_sha256"] = digest(digests)
        return m

    def teardown(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# server children
# ----------------------------------------------------------------------
class ServerChild:
    """One service under test, in its own process."""

    def __init__(self, tmpdir: Path, tag: str, engine_spec: dict, trace: bool) -> None:
        self.ready_file = tmpdir / f"{tag}.ready"
        self.stats_file = tmpdir / f"{tag}.stats.json"
        self.log_file = tmpdir / f"{tag}.log"
        spec_file = tmpdir / f"{tag}.spec.json"
        for stale in (self.ready_file, self.stats_file):
            stale.unlink(missing_ok=True)
        spec_file.write_text(
            json.dumps(
                {
                    "engine": engine_spec,
                    "trace": trace,
                    "ready_file": str(self.ready_file),
                    "stats_file": str(self.stats_file),
                }
            ),
            encoding="utf-8",
        )
        self._log = self.log_file.open("wb")
        self.process = subprocess.Popen(
            [sys.executable, str(SERVER_SCRIPT), str(spec_file)],
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def address(self) -> str:
        """Block until the ready file names the bound address."""
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            if self.ready_file.exists():
                text = self.ready_file.read_text(encoding="utf-8").strip()
                if text:
                    return text
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            f"server child did not come up: {self.log_file.read_text(errors='replace')}"
        )

    def stats(self) -> dict[str, Any]:
        """Wait for the child to exit after ``shutdown``; its stats."""
        self.process.wait(timeout=CHILD_TIMEOUT_S)
        self._log.close()
        return json.loads(self.stats_file.read_text(encoding="utf-8"))

    def stop(self) -> None:
        """Make sure the child is gone (no-op after a clean exit)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if not self._log.closed:
            self._log.close()


def _encode(message: dict[str, Any]) -> bytes:
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _server_layers(
    m: Measurement, stats_list: list[dict[str, Any]], load_only: bool = False
) -> None:
    """Fold the children's exit stats into the measurement; with
    ``load_only``, the spans as they stood when the load ended."""
    spans, cpu = ("spans_load", "cpu_load_s") if load_only else ("spans", "cpu_s")
    m.info["server_peak_rss_mib"] = max(s["peak_rss_kib"] for s in stats_list) / 1024.0
    m.child_spans = [s[spans] for s in stats_list if s[spans] is not None]
    m.info["server_cpu_s"] = sum(s.get(cpu, 0.0) for s in stats_list)


# ----------------------------------------------------------------------
# serve_overload
# ----------------------------------------------------------------------
class ServeOverload(Workload):
    """Closed loop, one connection, a window of 64 requests in flight
    against a service whose caps are full; one op = one answered request
    (``op_p50_ms``: half a window, from written to last answer read).

    The window slides: write 64, then for every 32 answers read write
    the next 32, so 32-64 requests are in flight and the server never
    runs dry.  Writing 64, reading 64 and only then writing again makes
    every burst wait for two cross-process wake-ups, and what those cost
    on this box flips between two states for minutes at a time (a
    one-line loopback round trip takes 13 us after a quiet minute,
    68 us once both cores have spun for a few seconds): that generator
    measured 31k or 17k req/s raw depending on what ran before it.
    """

    name = "serve_overload"
    why = (
        "Caps fill at once, so the simulator idles and framing, validation, the admission "
        "reject path and the asyncio transport are all the work; status reads ride beside submits"
    )
    op = "request"
    two_processes = True
    #: Requests written at a time: half the window.
    chunk = inputs.OVERLOAD_DEPTH // 2
    #: Chunks per timed slice (~0.1 s between reference samples).
    chunks_per_slice = 80

    def prepare(self) -> None:
        from repro.serve.client import InprocClient

        per_slice = self.chunk * self.chunks_per_slice
        total = inputs.n_items(self.name, self.seconds, at_least=per_slice)
        total -= total % per_slice
        self.messages = inputs.overload_requests(self.seed, total)
        self.chunks = [
            b"".join(_encode(msg) for msg in self.messages[lo : lo + self.chunk])
            for lo in range(0, total, self.chunk)
        ]
        self.engine_spec = inputs.overload_engine_spec(inputs.subseed(self.seed, 3))
        # The answers an engine gives with no transport in the way.
        oracle = InprocClient(inputs.build_engine(self.engine_spec))
        self.expected = [self.outcome(r) for r in oracle.request_many(self.messages)]
        self.server: ServerChild | None = None

    @staticmethod
    def outcome(response: dict[str, Any]) -> tuple:
        """What must match between transports: the id answered, whether
        it was accepted, and a reject's retry hint or a status' state."""
        return (
            response.get("id"),
            response["ok"],
            response.get("rejected", False),
            response.get("retry_after"),
            response.get("state"),
        )

    def setup(self, trace: bool = False) -> None:
        self.server = ServerChild(self.tmpdir, "overload", self.engine_spec, trace)
        self.address = self.server.address()

    def measure(self, recorder: SpanRecorder | None) -> Measurement:
        m = self.measurement()
        lines: list[bytes] = []
        with Driver(self.address) as driver:

            def run_slice(lo: int) -> list[float]:
                """Fill the window, slide it over the slice's chunks,
                drain it; seconds each chunk took from write to last
                answer."""
                chunks = self.chunks[lo : lo + self.chunks_per_slice]
                sent = [driver.send(chunks[0]), driver.send(chunks[1])]
                times = []
                for k in range(len(chunks)):
                    answers, done = driver.read(self.chunk)
                    lines.extend(answers)
                    times.append(done - sent[k])
                    if k + 2 < len(chunks):
                        sent.append(driver.send(chunks[k + 2]))
                return times

            for lo in range(0, len(self.chunks), self.chunks_per_slice):
                times = m.slices.timed(run_slice, lo)
                factor = m.slices.factors[-1]
                m.latencies_s.extend(t / factor for t in times)
            send_s, wait_s = driver.send_s, driver.wait_s
            # Untimed: stopping makes the service simulate what it admitted.
            driver.exchange(_encode({"op": "shutdown"}), 1)
        m.layers["bench.client.send_s"] = send_s * m.scale
        m.layers["bench.client.wait_s"] = wait_s * m.scale
        m.info["client_pause_s"] = m.slices.pause_s()
        m.attempted = len(self.messages)
        answers = [self.outcome(json.loads(line)) for line in lines]
        wrong = sum(a != e for a, e in zip(answers, self.expected))
        m.failed = wrong + (len(self.expected) - len(answers))
        m.ops = len(answers)
        m.check("answers_match_inprocess_engine", m.failed == 0)
        rejected = sum(1 for a in answers if a[2])
        m.info["rejected"] = rejected
        m.info["accepted"] = sum(1 for a in answers if a[1] and a[4] is None)
        m.info["report_sha256"] = digest(answers)
        _server_layers(m, [self.server.stats()], load_only=True)
        self.server_peak_mib = m.info["server_peak_rss_mib"]
        return m

    def peak_rss_mib(self) -> float:
        return self.server_peak_mib

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


# ----------------------------------------------------------------------
# serve_replay
# ----------------------------------------------------------------------
class ServeReplay(Workload):
    """Replay sessions through the TCP service, one request in flight,
    then ``drain``; one op = one served job (``op_p50_ms``: one
    ``submit``, send to ack)."""

    name = "serve_replay"
    why = (
        "The service doing real scheduling under the trace clock: 31 of 32 acks cost transport + "
        "admission, the 32nd pays a pump; one request in flight is where response coalescing could hurt"
    )
    op = "job"
    two_processes = True
    #: Requests per timed slice.
    requests_per_slice = 100

    def prepare(self) -> None:
        self.count = inputs.n_items(self.name, self.seconds)
        self.specs = [
            inputs.replay_engine_spec(inputs.subseed(self.seed, 5, i))
            for i in range(self.count)
        ]
        workload = inputs.frozen_workload(inputs.REPLAY_LOG)
        self.n_jobs = len(workload)
        self.messages = inputs.replay_requests(workload)
        self.payloads = [_encode(msg) for msg in self.messages]
        self.servers: list[ServerChild] = []

    def setup(self, trace: bool = False) -> None:
        self.servers = [
            ServerChild(self.tmpdir, f"replay_{i}", spec, trace)
            for i, spec in enumerate(self.specs)
        ]
        self.addresses = [server.address() for server in self.servers]

    def batch_report(self, spec: dict[str, Any]) -> dict[str, Any]:
        """The batch simulator's report of the same inputs."""
        from repro.core.simulator import Simulator
        from repro.metrics.serialize import report_to_dict

        workload, failures, policy = inputs.replay_inputs(spec)
        return report_to_dict(Simulator(workload, failures, policy).run())

    def session(self, m: Measurement, address: str) -> tuple[list[bytes], bytes]:
        """One connection's worth of the timed region: every request
        with one in flight, then ``drain``, then ``shutdown``.  Returns
        the acknowledgement lines and the drain response line."""
        lines: list[bytes] = []
        with Driver(address) as driver:

            def run_slice(lo: int) -> list[float]:
                times = []
                for payload in self.payloads[lo : lo + self.requests_per_slice]:
                    answer, seconds = driver.exchange(payload, 1)
                    lines.extend(answer)
                    times.append(seconds)
                return times

            for lo in range(0, len(self.payloads), self.requests_per_slice):
                times = m.slices.timed(run_slice, lo)
                factor = m.slices.factors[-1]
                sent = self.messages[lo : lo + self.requests_per_slice]
                m.latencies_s.extend(
                    t / factor for t, msg in zip(times, sent) if msg["op"] == "submit"
                )
            drained, _ = m.slices.timed(driver.exchange, _encode({"op": "drain"}), 1)
            self.drain_s.append(m.slices.normalised[-1])
            m.slices.timed(driver.exchange, _encode({"op": "shutdown"}), 1)
            self.client_s[0] += driver.send_s
            self.client_s[1] += driver.wait_s
        return lines, drained[0] if drained else b"null"

    def measure(self, recorder: SpanRecorder | None) -> Measurement:
        m = self.measurement()
        self.drain_s: list[float] = []
        self.client_s = [0.0, 0.0]  # in sendall, in readline
        drain_bytes = 0
        pause_s = 0.0
        digests = []
        for spec, address in zip(self.specs, self.addresses):
            first_slice = len(m.slices.raw)
            lines, drained = self.session(m, address)
            pause_s += m.slices.pause_s(first_slice)
            m.attempted += len(self.messages) + 1
            unanswered = len(self.messages) - sum(
                json.loads(line).get("ok") is True for line in lines
            )
            m.check("every_request_acknowledged", unanswered == 0)
            report = (json.loads(drained) or {}).get("report")
            equal = m.check(
                "drained_report_equals_batch", report == self.batch_report(spec)
            )
            m.slices.break_chain()
            m.failed += unanswered + (not equal)
            m.ops += self.n_jobs if equal else 0
            drain_bytes += len(drained)
            digests.append(digest(report))
            if report is not None:
                add_sim_counters(m.layers, report)
        m.info["report_sha256"] = digest(digests)
        m.info["drain_s"] = statistics.median(self.drain_s)
        m.info["client_pause_s"] = pause_s
        m.layers["serve.protocol.drain_response_bytes"] = drain_bytes / self.count
        m.layers["bench.client.send_s"] = self.client_s[0] * m.scale
        m.layers["bench.client.wait_s"] = self.client_s[1] * m.scale
        _server_layers(m, [server.stats() for server in self.servers])
        self.server_peak_mib = m.info["server_peak_rss_mib"]
        return m

    def peak_rss_mib(self) -> float:
        return self.server_peak_mib

    def teardown(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers = []


# ----------------------------------------------------------------------
# sweep_grid
# ----------------------------------------------------------------------
class SweepGrid(Workload):
    """Figure-style sweeps (eight points of one seed per call) over the
    warm pool; one op = one ``(point, seed)`` cell (``op_p50_ms``: one
    whole sweep call)."""

    name = "sweep_grid"
    why = (
        "How every figure is regenerated: 8 small simulations per call behind arena, dispatch and "
        "merge; an executor change moves only this workload, a simulator speed-up moves it with sim_faulty"
    )
    op = "cell"
    two_processes = True
    kernels_per_sample = 6

    def prepare(self) -> None:
        self.count = inputs.n_items(self.name, self.seconds)
        self.workers = min(2, os.cpu_count() or 1)
        self.calls = [
            (inputs.sweep_points(self.seed, call), inputs.sweep_log_seeds(call))
            for call in range(self.count)
        ]
        self.cells = inputs.SWEEP_POINTS
        self.spawn_s = 0.0

    def setup(self, trace: bool = False) -> None:
        from concurrent.futures import wait
        from multiprocessing import resource_tracker

        from repro.experiments.pool import get_warm_pool

        start = time.perf_counter()
        # Before the fork, so that the workers share this process's
        # tracker (as the arena code assumes) instead of each starting
        # one that outlives it.
        resource_tracker.ensure_running()
        executor = get_warm_pool().ensure(self.workers)
        # The executor forks on demand; make every worker exist now.
        wait([executor.submit(time.sleep, 0.05) for _ in range(self.workers)])
        self.spawn_s = time.perf_counter() - start

    @staticmethod
    def forget() -> None:
        """Every call starts like the first call of a fresh process."""
        from repro.experiments import pool, sweep

        sweep._result_cache.clear()
        sweep._workload_cache.clear()
        sweep._master_log_cache.clear()
        pool.reset_cell_cost_estimate()

    def run_call(self, call, workers: int):
        from repro.experiments.sweep import run_sweep_outcome

        points, seeds = call
        return run_sweep_outcome(
            points, seeds, workers=workers, min_cells_per_worker=2
        )

    def measure(self, recorder: SpanRecorder | None) -> Measurement:
        m = self.measurement()
        digests = []
        outcomes = []
        for call in self.calls:
            self.forget()
            outcome = m.slices.timed(self.run_call, call, self.workers)
            _note_item(m, self.cells)
            m.attempted += self.cells
            ok = (
                len(outcome.results) == len(call[0])
                and not outcome.quarantined
                and all(
                    r is not None
                    and r.n_seeds == len(call[1])
                    and math.isclose(r.utilized + r.unused + r.lost, 1.0, abs_tol=1e-9)
                    for r in outcome.results
                )
            )
            if not m.check("results_well_formed", ok):
                m.failed += self.cells
            outcomes.append(outcome)
            digests.append(digest([_result_row(r) for r in outcome.results]))
        m.info["report_sha256"] = digest(digests)
        stats = outcomes[-1].stats
        m.layers["experiments.sweep.parallel_s"] = m.wall_s
        m.layers["experiments.sweep.workers_used"] = stats.workers_used
        m.layers["experiments.sweep.chunk_size"] = stats.chunk_size
        m.layers["experiments.pool.spawn_s"] = self.spawn_s * m.scale
        m.span_covered = False
        if recorder is not None:
            self.measure_serial(m, outcomes)
        return m

    def peak_rss_mib(self) -> float:
        """This process plus the largest pool worker."""
        return _maxrss_mib(resource.RUSAGE_SELF) + _maxrss_mib(resource.RUSAGE_CHILDREN)

    def measure_serial(self, m: Measurement, outcomes) -> None:
        """Traced pass only: the same cells in this process, serially -
        the reference the parallel results must equal and the
        denominator of the executor's efficiency.  No span wrapper is
        installed: the cells of the timed region run in forked workers
        no recorder of this process can see, and a wrapped serial pass
        would overstate ``serial_s`` by the wrappers' own cost."""
        # One busy process: the one-core reference.
        serial = Slices(kernels=self.kernels_per_sample)
        same = True
        for call, outcome in zip(self.calls, outcomes):
            self.forget()
            reference = serial.timed(self.run_call, call, 1)
            same = same and reference.results == outcome.results
        m.checks["parallel_equals_serial"] = same
        if not same:
            m.failed = m.attempted
        serial_s = sum(serial.normalised)
        m.layers["experiments.sweep.serial_s"] = serial_s
        m.layers["experiments.sweep.efficiency"] = serial_s / (
            m.layers["experiments.sweep.workers_used"] * m.wall_s
        )

    def teardown(self) -> None:
        from multiprocessing import resource_tracker

        from repro.experiments.pool import shutdown_warm_pool

        shutdown_warm_pool()
        # The tracker ends when the last copy of its pipe is closed: the
        # workers' went with them, this closes ours and waits for it.
        resource_tracker._resource_tracker._stop()


def _result_row(result) -> list:
    return [
        result.n_seeds,
        result.avg_bounded_slowdown,
        result.avg_response,
        result.avg_wait,
        result.utilized,
        result.unused,
        result.lost,
        result.job_kills,
        result.failures_hit_jobs,
    ]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SimFaulty, SwfReplay, SimTraced, ServeOverload, ServeReplay, SweepGrid)
}
