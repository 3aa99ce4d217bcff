"""Mutable per-job simulation state.

A :class:`JobState` wraps an immutable
:class:`~repro.workloads.job.Job` with everything the engine mutates:
dispatch epoch, remaining work (which shrinks only when checkpointing
saves progress), restart count and destroyed-work accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.metrics.timing import JobRecord
from repro.workloads.job import Job

#: Floor for the scheduler's remaining-estimate after checkpoint resume,
#: so prediction windows and shadow times never collapse to zero.
MIN_ESTIMATE_S = 1.0


@dataclass(slots=True)
class JobState:
    """Scheduling state of one job across (re)executions."""

    job: Job
    #: Work still to execute, in seconds of runtime (checkpoint resume
    #: shrinks this; plain restarts reset it to the full runtime).
    remaining_work: float = field(default=-1.0)
    #: The scheduler's view of the remaining execution time.
    remaining_estimate: float = field(default=-1.0)
    #: Runtime progress safely checkpointed, in seconds of work.
    saved_progress: float = 0.0
    #: Dispatch epoch; FINISH events from older epochs are stale.
    epoch: int = 0
    #: Wall-clock start of the current/last dispatch (None while waiting).
    start_time: float | None = None
    #: Wall-clock duration the current dispatch will occupy the machine
    #: (includes checkpoint overhead when enabled).
    wall_duration: float = 0.0
    #: Estimated finish of the current dispatch (backfill shadow input).
    est_finish: float = 0.0
    restarts: int = 0
    lost_work: float = 0.0
    finished_at: float | None = None
    #: Planned wall of the next dispatch: the checkpoint model's wall for
    #: ``max(remaining_estimate, MIN_ESTIMATE_S)``.  The simulator sets it
    #: each time the job enters the wait queue (DESIGN §5.15).
    est_wall: float = 0.0
    #: Copies of the frozen job's id and size, read in the scheduler's
    #: inner loops.
    job_id: int = field(init=False)
    size: int = field(init=False)

    def __post_init__(self) -> None:
        self.job_id = self.job.job_id
        self.size = self.job.size
        if self.remaining_work < 0:
            self.remaining_work = self.job.runtime
        if self.remaining_estimate < 0:
            self.remaining_estimate = self.job.estimate

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.start_time is not None and self.finished_at is None

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    # ------------------------------------------------------------------
    def dispatch(self, now: float, wall_duration: float, est_finish: float) -> int:
        """Mark the job started at ``now``; returns the new epoch."""
        if self.running:
            raise SimulationError(f"job {self.job_id} dispatched while running")
        if self.done:
            raise SimulationError(f"job {self.job_id} dispatched after completion")
        if wall_duration <= 0:
            raise SimulationError(
                f"job {self.job_id}: wall duration must be positive, got {wall_duration}"
            )
        self.epoch += 1
        self.start_time = now
        self.wall_duration = wall_duration
        self.est_finish = est_finish
        return self.epoch

    def kill(self, now: float, new_saved_progress: float) -> None:
        """Failure handling: destroy the current execution.

        ``new_saved_progress`` is the total checkpointed work after this
        failure (equal to the old value when checkpointing is off); the
        difference between wall time burned and progress banked is
        charged to ``lost_work``.
        """
        if not self.running:
            raise SimulationError(f"job {self.job_id} killed while not running")
        if new_saved_progress < self.saved_progress - 1e-9:
            raise SimulationError("checkpointed progress cannot regress")
        executed = now - self.start_time
        gained = new_saved_progress - self.saved_progress
        self.lost_work += max(0.0, executed - gained) * self.size
        self.saved_progress = min(new_saved_progress, self.job.runtime)
        self.remaining_work = self.job.runtime - self.saved_progress
        self.remaining_estimate = max(
            self.job.estimate - self.saved_progress, MIN_ESTIMATE_S
        )
        self.epoch += 1  # invalidate the in-flight FINISH event
        self.start_time = None
        self.restarts += 1

    def complete(self, now: float) -> None:
        """Mark the job finished at ``now``."""
        if not self.running:
            raise SimulationError(f"job {self.job_id} completed while not running")
        self.finished_at = now

    def abort_dispatch(self) -> None:
        """Roll back a dispatch that never took effect (migration rollback)."""
        if not self.running:
            raise SimulationError(f"job {self.job_id} has no dispatch to abort")
        self.epoch += 1
        self.start_time = None

    # ------------------------------------------------------------------
    def to_record(self) -> JobRecord:
        """Final accounting; only valid once the job completed."""
        if self.finished_at is None or self.start_time is None:
            raise SimulationError(f"job {self.job_id} has not completed")
        return JobRecord(
            job_id=self.job_id,
            size=self.size,
            arrival=self.job.arrival,
            start=self.start_time,
            finish=self.finished_at,
            runtime=self.job.runtime,
            estimate=self.job.estimate,
            restarts=self.restarts,
            lost_work=self.lost_work,
        )
