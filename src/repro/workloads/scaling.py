"""Load scaling and machine fitting.

The paper studies load sensitivity by multiplying every job's execution
time by a coefficient ``c`` (0.5–1.5; the reported results use 1.0 and
1.2).  :func:`scale_load` implements exactly that.  :func:`fit_to_machine`
adapts a trace to the torus: sizes are capped at the machine and rounded
up to the nearest size for which a rectangular partition shape exists.
"""

from __future__ import annotations

import math

from repro.errors import WorkloadError
from repro.geometry.coords import TorusDims
from repro.geometry.shapes import round_to_schedulable
from repro.workloads.job import Workload


def scale_load(workload: Workload, c: float) -> Workload:
    """Multiply every job's runtime (and estimate) by ``c``.

    This is the paper's load-scale coefficient: higher ``c`` means more
    induced load on the same arrival pattern.
    """
    if not 0 < c < math.inf:
        raise WorkloadError(f"load scale must be positive and finite, got {c}")
    if c == 1.0:
        return workload
    return workload.replace_jobs([j.with_runtime_scaled(c) for j in workload.jobs])


def offered_load(workload: Workload, machine_nodes: int | None = None) -> float:
    """Offered load: requested node-seconds over available node-seconds.

    A value near (or above) 1 means the machine cannot keep up even with
    perfect packing.
    """
    nodes = machine_nodes if machine_nodes is not None else workload.machine_nodes
    if nodes < 1:
        raise WorkloadError(f"machine_nodes must be positive, got {nodes}")
    span = workload.span
    if span <= 0:
        return 0.0
    return workload.total_work / (span * nodes)


def fit_to_machine(workload: Workload, dims: TorusDims) -> Workload:
    """Adapt job sizes to a torus machine.

    Sizes are capped at the machine volume, then rounded up to the
    smallest size admitting a contiguous rectangular partition (BG/L
    cannot allocate e.g. 11 supernodes as a box).  Rounding up — not
    down — preserves the job's resource demand, the conservative choice
    also made by the BG/L prototype scheduler.
    """
    volume = dims.volume
    jobs = []
    for job in workload.jobs:
        size = min(job.size, volume)
        size = round_to_schedulable(size, dims)
        jobs.append(job.with_size(size) if size != job.size else job)
    fitted = workload.replace_jobs(jobs)
    return Workload(f"{workload.name}", volume, fitted.jobs)
