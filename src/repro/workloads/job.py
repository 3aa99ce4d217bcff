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
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

from repro.errors import WorkloadError


@dataclass(frozen=True, slots=True)
class Job:
    """One job submission.

    Parameters
    ----------
    job_id:
        Unique non-negative identifier within the workload.
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

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise WorkloadError(f"job id must be non-negative, got {self.job_id}")
        # Comparisons NaN fails, so a NaN is refused with the rest.
        if not 0 <= self.arrival < math.inf:
            raise WorkloadError(
                f"job {self.job_id}: arrival must be finite and >= 0, got {self.arrival}"
            )
        if self.size < 1:
            raise WorkloadError(f"job {self.job_id}: size must be >= 1, got {self.size}")
        if not 0 < self.runtime < math.inf:
            raise WorkloadError(
                f"job {self.job_id}: runtime must be positive and finite, got {self.runtime}"
            )
        if self.estimate == -1.0:
            object.__setattr__(self, "estimate", self.runtime)
        elif not 0 < self.estimate < math.inf:
            raise WorkloadError(
                f"job {self.job_id}: estimate must be positive and finite, got {self.estimate}"
            )

    @property
    def work(self) -> float:
        """Node-seconds of useful work: ``s_j * runtime``."""
        return self.size * self.runtime

    def with_runtime_scaled(self, c: float) -> "Job":
        """Paper's load scaling: multiply execution time (and the
        estimate, proportionally) by ``c``."""
        if not 0 < c < math.inf:
            raise WorkloadError(f"load scale must be positive and finite, got {c}")
        return replace(self, runtime=self.runtime * c, estimate=self.estimate * c)

    def with_size(self, size: int) -> "Job":
        """Copy with a different node count (machine-fitting adapters)."""
        return replace(self, size=size)


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
        ordered = tuple(sorted(self.jobs, key=lambda j: (j.arrival, j.job_id)))
        object.__setattr__(self, "jobs", ordered)
        ids = [j.job_id for j in ordered]
        if len(set(ids)) != len(ids):
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
        return self.replace_jobs(self.jobs[:n])
