"""Per-job references for the job-log layer (``repro.workloads``).

Production draws every job size from one bulk uniform draw, writes an
SWF record from one ``%`` template and copies jobs with ``Job(...)``.
These are the per-job forms they replaced — one scalar generator call
per branch, one field list per record, ``dataclasses.replace`` per
copy — kept so tests can require the same sizes, the same generator
stream afterwards, the same bytes and the same jobs.
"""

from __future__ import annotations

import io
import math
from dataclasses import replace

import numpy as np

from repro.geometry.coords import TorusDims
from repro.geometry.shapes import round_to_schedulable
from repro.workloads.job import Workload
from repro.workloads.models import SiteModel
from repro.workloads.swf import SWF_FIELDS

_UNKNOWN = -1


def draw_sizes_per_job(model: SiteModel, n_jobs: int, rng: np.random.Generator) -> np.ndarray:
    """Job sizes (before ``size_divisor``), one scalar draw at a time."""
    lo, hi = model.min_size, model.max_size
    sizes = np.empty(n_jobs, dtype=np.int64)
    powers = 2 ** np.arange(int(math.log2(hi)) + 1)
    powers = powers[(powers >= lo) & (powers <= hi)]
    if model.p_unit_job > 0:
        powers = powers[powers > 1]
    for i in range(n_jobs):
        if model.p_unit_job and rng.random() < model.p_unit_job and lo <= 1:
            sizes[i] = 1
        elif rng.random() < model.p_power_of_two and powers.size:
            weights = 1.0 / np.arange(1, powers.size + 1)
            sizes[i] = rng.choice(powers, p=weights / weights.sum())
        else:
            u = rng.uniform(math.log(lo), math.log(hi + 1))
            sizes[i] = min(hi, max(lo, int(math.exp(u))))
    if model.size_divisor > 1:
        sizes = np.maximum(1, -(-sizes // model.size_divisor))  # ceil division
    return sizes


def write_swf_per_field(workload: Workload) -> str:
    """SWF text of ``workload``, each record built as an 18-field list."""
    buf = io.StringIO()
    buf.write("; SWF trace written by repro\n")
    buf.write(f"; MaxProcs: {workload.machine_nodes}\n")
    buf.write(f"; Note: {workload.name}\n")
    for job in workload.jobs:
        fields = [_UNKNOWN] * SWF_FIELDS
        fields[0] = job.job_id
        fields[1] = int(round(job.arrival))
        fields[2] = _UNKNOWN  # wait time is simulator output
        fields[3] = int(round(job.runtime))
        fields[4] = job.size
        fields[7] = job.size
        fields[8] = int(round(job.estimate))
        buf.write(" ".join(str(f) for f in fields) + "\n")
    return buf.getvalue()


def scale_load_replace(workload: Workload, c: float) -> Workload:
    """``scale_load`` with every copy made by ``dataclasses.replace``."""
    if c == 1.0:
        return workload
    return workload.replace_jobs(
        [replace(j, runtime=j.runtime * c, estimate=j.estimate * c) for j in workload.jobs]
    )


def fit_to_machine_replace(workload: Workload, dims: TorusDims) -> Workload:
    """``fit_to_machine`` rounding one job at a time, copying by ``replace``."""
    jobs = []
    for job in workload.jobs:
        size = round_to_schedulable(min(job.size, dims.volume), dims)
        jobs.append(replace(job, size=size) if size != job.size else job)
    fitted = workload.replace_jobs(jobs)
    return Workload(f"{workload.name}", dims.volume, fitted.jobs)
