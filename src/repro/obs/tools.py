"""Trace toolchain: summarize and diff decision traces.

Backs the ``repro trace`` CLI subcommands (``validate`` is
:func:`repro.obs.schema.validate_stream`).  ``diff`` is the debugging
workhorse: identical-seed runs emit byte-identical traces, so the first
record at which two traces disagree *is* the first divergent scheduler
decision — it turns a failed golden-trace comparison from "something
drifted" into "decision #1234, a dispatch at t=5061.2, chose a different
partition".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


# ----------------------------------------------------------------------
# summarize
# ----------------------------------------------------------------------

def summarize_trace(records: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate one trace into a compact summary dict."""
    kinds: dict[str, int] = {}
    jobs: set[int] = set()
    t_min: float | None = None
    t_max: float | None = None
    kills = 0
    candidate_total = 0
    forced = 0
    header: dict[str, Any] | None = None
    for record in records:
        kind = record.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "header":
            header = record
            continue
        t = record.get("t")
        if isinstance(t, (int, float)):
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
        job = record.get("job")
        if isinstance(job, int):
            jobs.add(job)
        if kind == "failure" and record.get("killed_job") is not None:
            kills += 1
        if kind == "candidates":
            n = int(record.get("n_candidates", 0))
            candidate_total += n
            forced += n == 1
    decisions = kinds.get("candidates", 0)
    return {
        "header": header,
        "n_records": len(records),
        "kinds": dict(sorted(kinds.items())),
        "n_jobs_seen": len(jobs),
        "t_span": (t_min, t_max),
        "job_kills": kills,
        "avg_candidates": candidate_total / max(decisions, 1),
        # Decisions with one free partition, placed unscored.
        "forced": forced,
        "forced_share": forced / max(decisions, 1),
    }


def format_summary(summary: dict[str, Any]) -> str:
    """Render :func:`summarize_trace` output for the terminal."""
    lines = []
    header = summary.get("header")
    if header:
        lines.append(
            f"trace: policy={header.get('policy')} "
            f"workload={header.get('workload')} seed={header.get('seed')} "
            f"schema={header.get('schema')}"
        )
    t_min, t_max = summary["t_span"]
    span = f"{t_min:.1f}..{t_max:.1f}s" if t_min is not None else "(empty)"
    lines.append(
        f"{summary['n_records']} records, {summary['n_jobs_seen']} jobs, "
        f"sim time {span}"
    )
    lines.append(
        f"kills={summary['job_kills']} "
        f"avg_candidate_set={summary['avg_candidates']:.1f} "
        f"forced={summary['forced']} ({summary['forced_share']:.0%})"
    )
    lines.append("records by kind:")
    for kind, count in summary["kinds"].items():
        lines.append(f"  {kind:<12} {count}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceDivergence:
    """First point at which two decision streams disagree."""

    #: Index into the decision stream (headers excluded).
    index: int
    record_a: dict[str, Any] | None
    record_b: dict[str, Any] | None
    #: Field names whose values differ (empty when one stream ended).
    fields: tuple[str, ...]

    def describe(self) -> str:
        if self.record_a is None:
            rec = self.record_b or {}
            return (
                f"decision #{self.index}: first trace ended; second "
                f"continues with {rec.get('kind')} at t={rec.get('t')}"
            )
        if self.record_b is None:
            rec = self.record_a
            return (
                f"decision #{self.index}: second trace ended; first "
                f"continues with {rec.get('kind')} at t={rec.get('t')}"
            )
        a, b = self.record_a, self.record_b
        lines = [
            f"decision #{self.index}: {a.get('kind')} at t={a.get('t')} "
            f"vs {b.get('kind')} at t={b.get('t')}"
        ]
        for field in self.fields:
            lines.append(
                f"  {field}: {a.get(field)!r} != {b.get(field)!r}"
            )
        return "\n".join(lines)


def _decisions(records: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    return [r for r in records if r.get("kind") != "header"]


def diff_traces(
    a: Sequence[dict[str, Any]], b: Sequence[dict[str, Any]]
) -> TraceDivergence | None:
    """Locate the first divergent decision between two traces.

    Headers are excluded (two runs that differ only in metadata — e.g.
    the label of the workload — still count as behaviourally identical);
    compare them with :func:`headers_differ`.  Returns None when the
    decision streams are identical.
    """
    da, db = _decisions(a), _decisions(b)
    for i, (ra, rb) in enumerate(zip(da, db)):
        if ra != rb:
            fields = tuple(
                sorted(
                    key
                    for key in (ra.keys() | rb.keys())
                    if ra.get(key) != rb.get(key)
                )
            )
            return TraceDivergence(i, ra, rb, fields)
    if len(da) != len(db):
        i = min(len(da), len(db))
        return TraceDivergence(
            i,
            da[i] if i < len(da) else None,
            db[i] if i < len(db) else None,
            (),
        )
    return None


def headers_differ(
    a: Sequence[dict[str, Any]], b: Sequence[dict[str, Any]]
) -> tuple[str, ...]:
    """Field names on which the two stream headers disagree."""
    ha = next((r for r in a if r.get("kind") == "header"), {})
    hb = next((r for r in b if r.get("kind") == "header"), {})
    return tuple(
        sorted(k for k in (ha.keys() | hb.keys()) if ha.get(k) != hb.get(k))
    )
