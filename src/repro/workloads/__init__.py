"""Workload models: jobs, SWF traces and the paper's three site models.

The paper drives its simulator with three logs from the Parallel Workloads
Archive — NASA Ames iPSC/860 (1993), SDSC SP (1998-2000) and LLNL Cray
T3D (1996).  Offline reproduction cannot fetch the archive, so this
subpackage provides (a) a Standard Workload Format reader/writer so real
archive files drop in unchanged, and (b) synthetic generators whose
distributions match the published characterisations of those logs (see
``DESIGN.md`` §4 for the substitution rationale).
"""

from __future__ import annotations

from repro.workloads.job import Job, Workload
from repro.workloads.swf import read_swf, write_swf
from repro.workloads.models import (
    SiteModel,
    NASA_IPSC,
    SDSC_SP,
    LLNL_T3D,
    site_model,
    available_sites,
)
from repro.workloads.synthetic import generate_workload
from repro.workloads.scaling import scale_load, offered_load, fit_to_machine, job_log

__all__ = [
    "Job",
    "Workload",
    "read_swf",
    "write_swf",
    "SiteModel",
    "NASA_IPSC",
    "SDSC_SP",
    "LLNL_T3D",
    "site_model",
    "available_sites",
    "generate_workload",
    "scale_load",
    "offered_load",
    "fit_to_machine",
    "job_log",
]
