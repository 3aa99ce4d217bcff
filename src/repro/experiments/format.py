"""Plain-text rendering of sweep and figure results.

Everything prints as aligned monospace tables — the benchmark harness
streams these to the terminal (and ``bench_output.txt``) so a run's
series can be compared against the paper's plots without a plotting
stack.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.sweep import SweepResult


def format_table(
    rows: Sequence[Sequence[object]], headers: Sequence[str]
) -> str:
    """Align ``rows`` under ``headers``; numbers are right-justified."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    out = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        out.append("  ".join(row[i].rjust(widths[i]) for i in range(len(headers))))
    return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_series(
    label: str, rows: Sequence[tuple[float, SweepResult]], metric: str
) -> str:
    """One figure series as a table with its key metrics."""
    headers = ["x", "slowdown", "response_s", "util", "unused", "lost", "kills"]
    body = [
        [
            x,
            r.avg_bounded_slowdown,
            r.avg_response,
            r.utilized,
            r.unused,
            r.lost,
            r.job_kills,
        ]
        for x, r in rows
    ]
    return f"--- {label} (metric: {metric}) ---\n" + format_table(body, headers)


def format_figure(result) -> str:
    """Full text rendering of a FigureResult."""
    parts = [f"== {result.figure}: {result.title} ==", f"x axis: {result.x_label}"]
    for label, rows in result.series.items():
        parts.append(format_series(label, rows, result.metric))
    return "\n".join(parts)


def format_claims(verdicts) -> str:
    """One line per claim verdict, beside the verdict recorded at smoke scale."""
    lines = ["claims (one-sided sign test over seeds, p <= 0.05, ties dropped):"]
    for v in verdicts:
        signs = v.signs if not v.claim.invariant else (
            f"satisfied in {v.signs.lower} of {v.signs.lower + v.signs.higher} seeds")
        lines.append(f"  {v.verdict:<10} {v.name}: {v.claim.metric}, {v.claim.statistic}"
                     f" -- {signs} (smoke: {v.claim.smoke})")
    return "\n".join(lines)
