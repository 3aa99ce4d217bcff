"""The event-driven scheduling simulator (§6.1 of the paper).

One :class:`Simulator` instance runs one workload against one failure
log under one policy.  The loop pops *batches* of same-timestamp events
(FINISH before FAILURE before ARRIVAL), applies them, then runs a
scheduler pass that dispatches as many waiting jobs as the policy,
backfilling rules and migration allow.  Capacity samples are recorded
after every batch; the integrand of the unused-capacity integral is
constant between batches, so the accounting is exact.

Failure semantics (§6.1): failures are transient — a failure on a node
running job *j* destroys all of *j*'s unsaved work, re-queues *j* at its
original FCFS priority and leaves the node instantly usable.  Failures
on free nodes are harmless (the simulated repair time is zero).
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from repro.allocation.mfp import IndexCache, PlacementIndex
from repro.checkpoint.model import CheckpointModel
from repro.errors import SimulationError
from repro.failures.events import FailureLog
from repro.geometry.partition import Partition
from repro.geometry.shapes import shapes_for_size
from repro.geometry.torus import Torus
from repro.metrics.capacity import CapacitySummary, CapacityTracker
from repro.metrics.report import Counters, SimulationReport
from repro.metrics.timing import JobRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.workloads.job import Job, Workload
from repro.core.backfill import ShadowTimeEngine
from repro.core.config import BackfillMode, SimulationConfig
from repro.core.events import EventKind, EventQueue
from repro.core.jobstate import MIN_ESTIMATE_S, JobState
from repro.core.migration import PlanMemo, apply_compaction, head_partition, plan_compaction
from repro.core.policies.base import SchedulingPolicy
from repro.core.queue import WaitQueue

#: Tolerance when comparing estimated finishes against the shadow time.
_SHADOW_EPS = 1e-9


class Simulator:
    """One simulation run: workload × failure log × policy × config."""

    def __init__(
        self,
        workload: Workload,
        failure_log: FailureLog,
        policy: SchedulingPolicy,
        config: SimulationConfig | None = None,
        recorder: TraceRecorder | NullRecorder | None = None,
        open_ended: bool = False,
    ) -> None:
        self.config = config or SimulationConfig()
        dims = self.config.dims
        if failure_log.n_nodes != dims.volume:
            raise SimulationError(
                f"failure log covers {failure_log.n_nodes} nodes but the "
                f"machine has {dims.volume}; use repro.failures.map_node_ids"
            )
        self.workload = workload
        self.failure_log = failure_log
        self.policy = policy
        self.torus = Torus(dims)
        self.states: dict[int, JobState] = {}
        self.wait = WaitQueue()
        self.events = EventQueue()
        self.tracker = CapacityTracker(dims.volume)
        self.counters = Counters()
        self.records: list[JobRecord] = []
        self.checkpoint = CheckpointModel(self.config.checkpoint)
        self.rng = np.random.default_rng(self.config.seed)
        if recorder is not None:
            self.recorder = recorder
        elif self.config.trace:
            self.recorder = TraceRecorder()
        else:
            self.recorder = NULL_RECORDER
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if self.config.profile else None
        )
        # Policies emit their own candidate-enumeration records and count
        # on the run's registry, as the index cache and the shadow engine
        # built below do: whoever drives the run, the metrics are the same.
        self.policy.recorder = self.recorder
        self.policy.metrics = self.metrics
        self._target = 0
        self._processed = 0
        self._begun = False
        self._last_time = 0.0
        self._final_report: SimulationReport | None = None
        self._arrival_epoch: dict[int, int] = {}
        self._cancelled: set[int] = set()
        # Batch runs know the full horizon up front; an open-ended run
        # starts with no arrivals and learns its earliest one from the
        # first submission.
        self._min_arrival = (
            math.inf
            if open_ended
            else min((j.arrival for j in workload.jobs), default=0.0)
        )
        # (head, walk position, shadow) a backfill left standing this pass.
        self._reservation: tuple[JobState, int, float] | None = None
        # Compaction plans by size sequence, this run's only (DESIGN §5.4).
        self._plans: PlanMemo = {}
        self._index_cache = self._make_index_cache()
        self._shadow = ShadowTimeEngine(
            self.torus, index_cache=self._index_cache, metrics=self.metrics
        )

        for job in workload.jobs:
            self.submit_job(job)
        for i in range(len(failure_log)):
            self.events.push(
                float(failure_log.times[i]), EventKind.FAILURE, int(failure_log.nodes[i])
            )

    def _make_index_cache(self) -> IndexCache:
        """The placement-index cache the scheduler pass and the shadow
        engine share.  The test suite's reference engine
        (``oracle_simulator``) overrides it to run the same simulator
        on from-scratch reference rebuilds."""
        return IndexCache(self.torus, self.metrics)

    # ------------------------------------------------------------------
    # arrival intake (shared by the batch ctor and the online drivers)
    # ------------------------------------------------------------------
    def submit_job(self, job: Job) -> JobState:
        """Register a job and schedule its ARRIVAL event.

        The batch constructor funnels the whole workload through here;
        online drivers (:mod:`repro.core.arrivals`) call it one job at a
        time.  A job id may be reused only after :meth:`cancel_job` — the
        resubmission bumps the arrival epoch so a still-queued ARRIVAL
        from the cancelled life is ignored.
        """
        dims = self.config.dims
        if job.size > dims.volume or not shapes_for_size(job.size, dims):
            raise SimulationError(
                f"job {job.job_id} size {job.size} has no rectangular "
                f"partition on {dims.as_tuple()}; apply "
                f"repro.workloads.fit_to_machine first"
            )
        if job.job_id in self.states and job.job_id not in self._cancelled:
            raise SimulationError(f"job {job.job_id} already submitted")
        if job.job_id in self._cancelled:
            self._cancelled.discard(job.job_id)
            self._arrival_epoch[job.job_id] = (
                self._arrival_epoch.get(job.job_id, 0) + 1
            )
        state = JobState(job)
        self.states[job.job_id] = state
        self.events.push(
            job.arrival,
            EventKind.ARRIVAL,
            job.job_id,
            self._arrival_epoch.get(job.job_id, 0),
        )
        if job.arrival < self._min_arrival:
            self._min_arrival = job.arrival
        self._target += 1
        return state

    def cancel_job(self, job_id: int) -> str:
        """Withdraw a job; returns where the cancellation caught it.

        Outcomes: ``"pending"`` (ARRIVAL not yet processed), ``"waiting"``
        (pulled from the wait queue), ``"running"`` (partition released,
        in-flight FINISH invalidated), ``"completed"``/``"cancelled"``/
        ``"unknown"`` (no-ops).  Cancellation is an online-service
        operation — the batch path never calls it, so batch reports and
        traces are unaffected.  Capacity accounting treats the freed
        nodes as free from the next recorded batch onward.
        """
        state = self.states.get(job_id)
        if state is None:
            return "unknown"
        if job_id in self._cancelled:
            return "cancelled"
        if state.done:
            return "completed"
        self._cancelled.add(job_id)
        self._target -= 1
        if state.running:
            self.torus.release(job_id)
            state.abort_dispatch()
            outcome = "running"
        elif self.wait.discard(state):
            outcome = "waiting"
        else:
            # ARRIVAL still queued: stale-epoch it out of the heap.
            self._arrival_epoch[job_id] = self._arrival_epoch.get(job_id, 0) + 1
            outcome = "pending"
        if self.recorder.enabled:
            self.recorder.emit(
                "cancel", self._last_time, job=job_id, caught=outcome
            )
        return outcome

    def job_status(self, job_id: int) -> str:
        """Lifecycle phase of a job id, for the service status endpoint."""
        state = self.states.get(job_id)
        if state is None:
            return "unknown"
        if job_id in self._cancelled:
            return "cancelled"
        if state.done:
            return "completed"
        if state.running:
            return "running"
        return "waiting" if state in self.wait else "pending"

    @property
    def completed_count(self) -> int:
        """Jobs that have run to completion so far."""
        return len(self.records)

    @property
    def outstanding(self) -> int:
        """Submitted, not cancelled, not yet completed."""
        return self._target - len(self.records)

    def write_trace_header(self, **extra) -> None:
        """Open the decision trace (a no-op when tracing is off): what a
        batch run and a served session both state, plus ``extra``."""
        if self.recorder.enabled:
            dims = self.config.dims
            self.recorder.header(
                policy=self.policy.name,
                workload=self.workload.name,
                dims=[dims.x, dims.y, dims.z],
                seed=self.config.seed,
                backfill=self.config.backfill.value,
                migration=self.config.migration,
                **extra,
            )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Run to completion and return the report."""
        self.write_trace_header(
            n_jobs=len(self.workload), n_failures=len(self.failure_log)
        )
        if self.metrics is None:
            return self.drain()
        with self.metrics.timer("sim.run"):
            return self.drain()

    def _begin(self) -> None:
        """Record the opening capacity sample (idempotent)."""
        if self._begun:
            return
        self._begun = True
        self._last_time = self._min_arrival
        self.tracker.record(self._min_arrival, self.torus.dims.volume, 0)

    def _step_batch(self) -> float:
        """Pop and apply one same-timestamp batch, then run a scheduler
        pass — one iteration of the historical run loop."""
        batch = self.events.pop_batch()
        now = batch[0].time
        for event in batch:
            self._processed += 1
            if self._processed > self.config.max_events:
                raise SimulationError(
                    f"event budget exhausted ({self.config.max_events}); "
                    f"likely livelock"
                )
            if event.kind is EventKind.FINISH:
                self._on_finish(event.payload, event.epoch, now)
            elif event.kind is EventKind.FAILURE:
                self._on_failure(event.payload, now)
            else:
                self._on_arrival(event.payload, event.epoch, now)
        self._schedule_pass(now)
        if now >= self._min_arrival:
            self.tracker.record(
                now, self.torus.free_count, self.wait.requested_nodes
            )
        self._last_time = now
        return now

    def pump(
        self, horizon: float = math.inf, max_batches: int | None = None
    ) -> int:
        """Process event batches strictly *before* ``horizon``.

        Returns the number of batches processed.  The horizon is the
        caller's arrival watermark: a batch at time ``t >= horizon``
        could still gain members from a future submission at ``t`` (an
        arrival joining it would change the scheduler pass), so it stays
        queued.  With the default infinite horizon this replicates the
        batch run loop, stopping once every non-cancelled job completed
        — trailing failure events are left unprocessed, exactly as the
        batch path leaves them.
        """
        if self._target == 0 or not math.isfinite(self._min_arrival):
            return 0
        self._begin()
        steps = 0
        while len(self.records) < self._target and (
            max_batches is None or steps < max_batches
        ):
            next_time = self.events.next_time()
            if next_time is None or next_time >= horizon:
                break
            self._step_batch()
            steps += 1
        return steps

    def drain(self) -> SimulationReport:
        """Run every remaining batch and build the final report.

        Idempotent: the report is cached, so the service can answer
        repeated ``drain`` requests without re-running the engine.
        """
        if self._final_report is not None:
            return self._final_report
        if self._target == 0:
            end = self._min_arrival if math.isfinite(self._min_arrival) else 0.0
            self._min_arrival = end
            self._final_report = self._report(end_time=end)
            return self._final_report
        self.pump()
        if self.outstanding:
            raise SimulationError(
                f"simulation stalled: {self.outstanding} jobs "
                f"never completed (event queue drained at t={self._last_time})"
            )
        self._final_report = self._report(end_time=self._last_time)
        return self._final_report

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, job_id: int, epoch: int, now: float) -> None:
        if (
            epoch != self._arrival_epoch.get(job_id, 0)
            or job_id in self._cancelled
        ):
            return  # ARRIVAL from a life that was cancelled before it landed
        if self.recorder.enabled:
            self.recorder.emit("arrival", now, job_id, self.states[job_id].size)
        self._enqueue(self.states[job_id])

    def _on_finish(self, job_id: int, epoch: int, now: float) -> None:
        state = self.states[job_id]
        if state.epoch != epoch or not state.running:
            return  # stale FINISH from an execution a failure destroyed
        if self.recorder.enabled:
            self.recorder.emit("finish", now, job_id)
        self.torus.release(job_id)
        state.complete(now)
        self.records.append(state.to_record())

    def _on_failure(self, node: int, now: float) -> None:
        self.counters.failures_total += 1
        owner = self.torus.owner_by_index(node)
        if self.recorder.enabled:
            self.recorder.emit("failure", now, node, owner)
        if owner is None:
            self.counters.failures_idle += 1
            return
        self.counters.failures_hit_jobs += 1
        self.counters.job_kills += 1
        state = self.states[owner]
        new_saved = self.checkpoint.progress_at_kill(
            state.saved_progress, now - state.start_time, state.job.runtime, self.rng
        )
        if new_saved > state.saved_progress + 1e-12:
            self.counters.checkpoint_restores += 1
            if self.recorder.enabled:
                self.recorder.emit(
                    "checkpoint", now, job=owner,
                    saved_before=state.saved_progress, saved_after=new_saved,
                )
        self.torus.release(owner)
        state.kill(now, new_saved)
        self._enqueue(state)

    def _enqueue(self, state: JobState) -> None:
        """Queue ``state`` with its planned wall, the one derivation of it:
        ``remaining_estimate`` moves only in a kill, and a killed job
        comes back through here (exact: DESIGN §5.15)."""
        state.est_wall = self.checkpoint.wall_duration(
            max(state.remaining_estimate, MIN_ESTIMATE_S)
        )
        self.wait.push(state)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _schedule_pass(self, now: float) -> None:
        """One FCFS pass with migration and backfill; it stops first where
        no waiting job fits the free node count (exact: DESIGN §5.15)."""
        self.counters.scheduler_passes += 1
        self.policy.begin_pass(now)
        self._reservation = None
        while self.wait:
            if min(self.wait.sizes()) > self.torus.free_count:
                break
            # Version-checked reuse: loop iterations that did not mutate
            # the torus (choose → dispatch bumps the version; a head that
            # does not fit does not) share one index, as do back-to-back
            # scheduler passes over an unchanged machine.
            index = self._index_cache.get()
            head = self.wait.head()
            # The policy is asked only about a size with a free partition,
            # here as in the backfill walk.
            if index.has_candidate(head.size):
                partition = self.policy.choose_partition(index, head, now)
                if partition is not None:
                    self._dispatch(head, partition, now)
                    continue
            if self._try_migration(head, now):
                self._reservation = None
                continue
            if self.config.backfill is BackfillMode.NONE:
                break
            if not self._try_backfill(index, head, now):
                break

    def _try_migration(self, head: JobState, now: float) -> bool:
        if not self.config.migration:
            return False
        if self.torus.free_count < head.size:
            return False
        plan = plan_compaction(self._index_cache, self._running(), head, self._plans)
        if plan is None:
            return False
        apply_compaction(self.torus, plan, head.job_id)
        if self.recorder.enabled:
            self.recorder.emit(
                "migration", now, head_job=head.job_id, **plan.summary()
            )
        self.counters.migrations += 1
        self.counters.jobs_migrated += len(plan.moved_job_ids)
        cost = self.config.migration_cost_s
        if cost > 0:
            for job_id in plan.moved_job_ids:
                state = self.states[job_id]
                # The move re-dispatches the job: its completion slips by
                # the checkpoint/restore cost, charged as lost capacity.
                state.wall_duration += cost
                state.est_finish += cost
                state.lost_work += cost * state.size
                state.epoch += 1
                self.events.push(
                    state.start_time + state.wall_duration,
                    EventKind.FINISH,
                    job_id,
                    state.epoch,
                )
        self._dispatch(head, head_partition(plan, head.job_id), now, via="migration")
        return True

    def _try_backfill(
        self, index: PlacementIndex, head: JobState, now: float
    ) -> bool:
        """Start one lower-priority job if the mode permits; True if any
        job started (the caller refreshes the index and loops).

        One walk, traced or not: the index is asked once per distinct
        waiting size no larger than the free nodes, the policy only for a
        job with a free partition whose estimate clears the EASY shadow.

        One reservation per pass: after a backfill due by the shadow,
        the next call this pass resumes where the walk stopped, on the
        same shadow (exact: DESIGN §5.15).
        """
        free = self.torus.free_count
        fits = {s for s in self.wait.sizes() if s <= free and index.has_candidate(s)}
        if not fits:
            return False
        easy = self.config.backfill is BackfillMode.EASY
        kept = self._reservation
        if kept is not None and kept[0] is head:
            _, start, shadow = kept
            if easy and self.metrics is not None:
                self.metrics.counter("shadow.kept").inc()
        else:
            start, shadow = 1, None if easy else math.inf
        for position, state in enumerate(islice(self.wait, start, None), start):
            if state.size not in fits:
                continue
            if shadow is None:
                shadow = self._shadow.shadow_time(self._running(), head.size, now)
                if math.isinf(shadow):
                    raise SimulationError(
                        f"job {head.job_id} (size {head.size}) cannot fit even "
                        f"an empty machine"
                    )
            est_wall = state.est_wall
            if now + est_wall > shadow + _SHADOW_EPS:
                continue
            partition = self.policy.choose_partition(index, state, now)
            if partition is not None:
                if self.recorder.enabled:
                    self.recorder.emit(
                        "backfill", now, state.job_id, head.job_id,
                        shadow if easy else None, est_wall,
                    )
                self._dispatch(state, partition, now, via="backfill")
                self.counters.backfills += 1
                # A job due in (shadow, shadow + _SHADOW_EPS] may move the
                # reservation: the next walk starts over.
                holds = now + est_wall <= shadow
                self._reservation = (head, position, shadow) if holds else None
                return True
        return False

    def _dispatch(
        self, state: JobState, partition: Partition, now: float, via: str = "fcfs"
    ) -> None:
        wall = max(self.checkpoint.wall_duration(state.remaining_work), 1e-9)
        epoch = state.dispatch(now, wall, now + state.est_wall)
        if self.recorder.enabled:
            self.recorder.emit(
                "dispatch", now, state.job_id, state.size, partition.base,
                partition.shape, via, wall, state.est_finish,
            )
        if self.metrics is not None:
            self.metrics.counter("sim.dispatches").inc()
        self.torus.allocate(state.job_id, partition)
        self.wait.remove(state)
        self.events.push(now + wall, EventKind.FINISH, state.job_id, epoch)

    def _running(self) -> list[JobState]:
        """The running jobs, read off the torus allocation map."""
        # In map order: migration and the shadow replay both sort them.
        return [self.states[job_id] for job_id, _ in self.torus.allocations()]

    # ------------------------------------------------------------------
    def _report(self, end_time: float) -> SimulationReport:
        useful = sum(r.size * r.runtime for r in self.records)
        self.tracker.close(max(end_time, self._min_arrival))
        capacity = CapacitySummary.from_tracker(
            self.tracker, useful, self._min_arrival, end_time
        )
        return SimulationReport.build(
            policy=self.policy.name,
            workload=self.workload.name,
            n_failures=len(self.failure_log),
            records=sorted(self.records, key=lambda r: r.job_id),
            capacity=capacity,
            counters=self.counters,
            parameters={
                "backfill": self.config.backfill.value,
                "migration": self.config.migration,
                "checkpoint": self.config.checkpoint.mode.value,
            },
            gamma=self.config.gamma,
            slowdown_rule=self.config.slowdown_rule,
        )


def simulate(
    workload: Workload,
    failure_log: FailureLog,
    policy: SchedulingPolicy,
    config: SimulationConfig | None = None,
    recorder: TraceRecorder | NullRecorder | None = None,
) -> SimulationReport:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(workload, failure_log, policy, config, recorder=recorder).run()
