"""Load scaling and machine fitting.

The paper studies load sensitivity by multiplying every job's execution
time by a coefficient ``c`` (0.5–1.5; the reported results use 1.0 and
1.2).  :func:`scale_load` implements exactly that.  :func:`fit_to_machine`
adapts a trace to the torus: sizes are capped at the machine and rounded
up to the nearest size for which a rectangular partition shape exists.
:func:`job_log` is the whole chain from a site model or trace file to
the workload a simulation replays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import WorkloadError
from repro.geometry.coords import TorusDims
from repro.geometry.shapes import round_to_schedulable
from repro.workloads.job import Job, Workload
from repro.workloads.models import site_model
from repro.workloads.swf import read_swf
from repro.workloads.synthetic import _draw_columns


def scale_load(workload: Workload, c: float) -> Workload:
    """Multiply every job's runtime (and estimate) by ``c``.

    This is the paper's load-scale coefficient: higher ``c`` means more
    induced load on the same arrival pattern.
    """
    _check_load_scale(c)
    if c == 1.0:
        return workload
    return workload.replace_jobs([j.with_runtime_scaled(c) for j in workload.jobs])


def _check_load_scale(c: float) -> None:
    if not 0 < c < math.inf:
        raise WorkloadError(f"load scale must be positive and finite, got {c}")


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
    round_up = _round_up_table(dims)
    jobs = []
    for job in workload.jobs:
        size = round_up[min(job.size, volume)]
        jobs.append(job.with_size(size) if size != job.size else job)
    return Workload(workload.name, volume, tuple(jobs))


@lru_cache(maxsize=64)
def _round_up_table(dims: TorusDims) -> tuple[int, ...]:
    """``round_to_schedulable(s, dims)`` at index ``s`` for ``s`` in
    ``1..dims.volume`` (index 0 unused)."""
    return (0, *(round_to_schedulable(s, dims) for s in range(1, dims.volume + 1)))


def job_log(site: str, n_jobs: int, seed: int, c: float, dims: TorusDims,
            swf: str | None = None, head: int = 0) -> Workload:  # fmt: skip
    """``site``'s synthetic log of ``n_jobs`` jobs drawn from ``seed`` (or
    the trace file ``swf``, its first ``head`` jobs when nonzero), load
    scaled by ``c`` and fitted to ``dims``.  A synthetic log is scaled
    and fitted column-wise, so each job is built once."""
    if swf:
        workload = read_swf(swf)
        if head:
            workload = workload.head(head)
        return fit_to_machine(scale_load(workload, c), dims)
    model = site_model(site)
    arrivals, sizes, runtimes, estimates, _ = _draw_columns(model, n_jobs, seed)
    _check_load_scale(c)
    sizes = np.array(_round_up_table(dims))[np.minimum(sizes, dims.volume)]
    jobs = tuple(map(Job, range(n_jobs), arrivals.tolist(), sizes.tolist(),
                     (runtimes * c).tolist(), (estimates * c).tolist()))  # fmt: skip
    return Workload(f"{model.name}-synthetic", dims.volume, jobs)
