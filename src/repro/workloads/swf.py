"""Standard Workload Format (SWF) reader and writer.

The Parallel Workloads Archive distributes every log the paper uses in
SWF: one job per line, 18 whitespace-separated fields, ``;`` comment
lines carrying header metadata.  This module reads real archive files
into :class:`~repro.workloads.job.Workload` objects (so the synthetic
generators can be swapped for the genuine traces when available) and
writes workloads back out for interchange with other simulators.

Field reference (1-based, per the archive definition):

==  =============================  ========================================
 1  Job Number                     used as ``job_id``
 2  Submit Time                    ``arrival`` (seconds)
 3  Wait Time                      ignored (scheduler output, not input)
 4  Run Time                       ``runtime``
 5  Number of Allocated Processors fallback for ``size``
 8  Requested Number of Processors ``size`` when positive
 9  Requested Time                 ``estimate`` when positive
==  =============================  ========================================

Jobs with non-positive size or runtime (cancelled / failed submissions)
are skipped, matching common simulator practice.  Records that are
*wrong* rather than merely incomplete — duplicate job numbers, size
fields that are explicitly zero/negative instead of the ``-1`` unknown
sentinel, short or non-numeric lines, ``nan``/``inf`` times, malformed
headers — raise :class:`~repro.errors.SWFParseError` naming the
offending line.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

from repro.errors import SWFParseError, WorkloadError
from repro.workloads.job import Job, Workload

#: Number of whitespace-separated fields in a canonical SWF record.
SWF_FIELDS = 18

_UNKNOWN = -1


def _parse_line(line: str, lineno: int) -> Job | None:
    fields = line.split()
    if len(fields) < 9:
        raise SWFParseError(f"line {lineno}: expected >= 9 fields, got {len(fields)}")
    try:
        job_id = int(fields[0])
        submit = float(fields[1])
        runtime = float(fields[3])
        allocated = int(float(fields[4]))
        requested = int(float(fields[7]))
        requested_time = float(fields[8])
    except ValueError as exc:
        raise SWFParseError(f"line {lineno}: non-numeric field ({exc})") from None
    # The archive's "unknown" sentinel is exactly -1; a size that is
    # zero or some other negative number is a corrupt record, not a
    # cancelled submission.
    for label, value in (("requested", requested), ("allocated", allocated)):
        if value != _UNKNOWN and value <= 0:
            raise SWFParseError(
                f"line {lineno}: job {job_id} has invalid {label} "
                f"processor count {value} (use -1 for unknown)"
            )
    size = requested if requested > 0 else allocated
    if size <= 0 or runtime <= 0 or submit < 0 or job_id < 0:
        return None  # cancelled / failed / incomplete submission records
    estimate = requested_time if requested_time > 0 else runtime
    try:
        return Job(job_id=job_id, arrival=submit, size=size, runtime=runtime, estimate=estimate)
    except WorkloadError as exc:  # a non-finite time field
        raise SWFParseError(f"line {lineno}: {exc}") from None


def parse_swf(stream: TextIO, name: str = "swf") -> Workload:
    """Parse an SWF stream into a workload.

    Header comments are scanned for ``MaxProcs`` to recover the machine
    size; when absent the maximum job size is used.
    """
    jobs: list[Job] = []
    seen: dict[int, int] = {}
    max_procs = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            body = line.lstrip("; ").strip()
            if body.lower().startswith("maxprocs:"):
                try:
                    max_procs = int(body.split(":", 1)[1].strip())
                except ValueError:
                    raise SWFParseError(
                        f"line {lineno}: malformed MaxProcs header {body!r}"
                    ) from None
            continue
        job = _parse_line(line, lineno)
        if job is not None:
            first = seen.setdefault(job.job_id, lineno)
            if first != lineno:
                raise SWFParseError(
                    f"line {lineno}: duplicate job id {job.job_id} "
                    f"(first seen on line {first})"
                )
            jobs.append(job)
    machine = max_procs if max_procs > 0 else max((j.size for j in jobs), default=1)
    return Workload(name=name, machine_nodes=machine, jobs=tuple(jobs))


def read_swf(path: str | Path) -> Workload:
    """Read an SWF file from disk."""
    p = Path(path)
    with p.open("r", encoding="utf-8", errors="replace") as fh:
        return parse_swf(fh, name=p.stem)


def write_swf(workload: Workload, path: str | Path | None = None) -> str:
    """Serialise a workload as SWF text; optionally write it to ``path``.

    Only the fields this package consumes are populated; the rest carry
    the SWF "unknown" sentinel ``-1``.
    """
    buf = io.StringIO()
    buf.write(f"; SWF trace written by repro\n")
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
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
