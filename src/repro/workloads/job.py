"""Job and workload records.

A :class:`Job` is an immutable description of one submission: when it
arrived, how many (super)nodes it wants, how long it will actually run and
how long the user *said* it would run.  The scheduler sees only the
estimate; the simulator finishes the job after the actual runtime
(§3.2 of the paper: the estimated finish time is replaced by the actual
one once the job completes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Sequence

from repro.errors import WorkloadError
from repro.geometry.torus import MAX_JOB_ID


@dataclass(frozen=True, slots=True, init=False)
class Job:
    """One job submission.

    Parameters
    ----------
    job_id:
        Unique identifier within the workload, in ``[0, MAX_JOB_ID]``.
    arrival:
        Submit time ``t_j^a`` in seconds from the trace origin.
    size:
        Requested number of (super)nodes ``s_j``.
    runtime:
        Actual execution time in seconds (> 0).
    estimate:
        User-estimated execution time ``t_j^e`` the scheduler plans with;
        defaults to the actual runtime (perfect estimates).
    """

    job_id: int
    arrival: float
    size: int
    runtime: float
    estimate: float = -1.0

    # Hand-written: a job log builds one per job, and the generated
    # frozen ``__init__`` pays an ``object.__setattr__`` per field.
    def __init__(self, job_id: int, arrival: float, size: int, runtime: float,
                 estimate: float = -1.0) -> None:  # fmt: skip
        if job_id < 0:
            raise WorkloadError(f"job id must be non-negative, got {job_id}")
        if job_id > MAX_JOB_ID:
            raise WorkloadError(
                f"job id {job_id} exceeds {MAX_JOB_ID}, the largest the "
                f"int64 occupancy grid holds"
            )
        # Comparisons NaN fails, so a NaN is refused with the rest.
        if not 0 <= arrival < math.inf:
            raise WorkloadError(
                f"job {job_id}: arrival must be finite and >= 0, got {arrival}"
            )
        if size < 1:
            raise WorkloadError(f"job {job_id}: size must be >= 1, got {size}")
        if not 0 < runtime < math.inf:
            raise WorkloadError(
                f"job {job_id}: runtime must be positive and finite, got {runtime}"
            )
        if estimate == -1.0:
            estimate = runtime
        elif not 0 < estimate < math.inf:
            raise WorkloadError(
                f"job {job_id}: estimate must be positive and finite, got {estimate}"
            )
        _set_job_id(self, job_id)
        _set_arrival(self, arrival)
        _set_size(self, size)
        _set_runtime(self, runtime)
        _set_estimate(self, estimate)

    @property
    def work(self) -> float:
        """Node-seconds of useful work: ``s_j * runtime``."""
        return self.size * self.runtime

    def with_runtime_scaled(self, c: float) -> "Job":
        """Paper's load scaling: multiply execution time (and the
        estimate, proportionally) by ``c``."""
        if not 0 < c < math.inf:
            raise WorkloadError(f"load scale must be positive and finite, got {c}")
        return Job(self.job_id, self.arrival, self.size, self.runtime * c, self.estimate * c)

    def with_size(self, size: int) -> "Job":
        """Copy with a different node count (machine-fitting adapters)."""
        return Job(self.job_id, self.arrival, size, self.runtime, self.estimate)


# The slots' own setters: they bypass the frozen ``__setattr__``.
_set_job_id, _set_arrival, _set_size, _set_runtime, _set_estimate = (
    Job.__dict__[name].__set__ for name in ("job_id", "arrival", "size", "runtime", "estimate")
)


@dataclass(frozen=True)
class Workload:
    """An ordered collection of jobs plus trace metadata."""

    name: str
    machine_nodes: int
    jobs: tuple[Job, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.machine_nodes < 1:
            raise WorkloadError(
                f"machine_nodes must be positive, got {self.machine_nodes}"
            )
        ordered = tuple(sorted(self.jobs, key=attrgetter("arrival", "job_id")))
        object.__setattr__(self, "jobs", ordered)
        if len({j.job_id for j in ordered}) != len(ordered):
            raise WorkloadError(f"workload {self.name!r} has duplicate job ids")

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, i: int) -> Job:
        return self.jobs[i]

    @property
    def span(self) -> float:
        """Arrival span in seconds (0 for empty/singleton workloads)."""
        if len(self.jobs) < 2:
            return 0.0
        return self.jobs[-1].arrival - self.jobs[0].arrival

    @property
    def total_work(self) -> float:
        """Total node-seconds requested."""
        return sum(j.work for j in self.jobs)

    @property
    def max_size(self) -> int:
        """Largest job size in the workload."""
        return max((j.size for j in self.jobs), default=0)

    def replace_jobs(self, jobs: Sequence[Job]) -> "Workload":
        """Copy of this workload with a different job list."""
        return Workload(self.name, self.machine_nodes, tuple(jobs))

    def head(self, n: int) -> "Workload":
        """First ``n`` jobs by arrival order (for quick experiments)."""
        if n < 0:
            raise WorkloadError(f"head must be non-negative, got {n}")
        return self.replace_jobs(self.jobs[:n])
