"""Compare two result files of the suite: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate.  One row per (metric, workload) with both
medians and inter-quartile ranges, the relative difference *with A as
its base*, the metric's bound and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  either side's run-to-run spread (IQR / median) is wider
                than the bound, so the medians settle nothing - unless
                every run of B reads better than every run of A.

Counts of the traced pass must repeat exactly between two runs of one
commit; they are listed as ``same`` / ``differs``.  Exit status 1 when
any row is ``regressed`` (a raised ``failed_share`` is one).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.contract import END_TO_END, PER_LAYER  # noqa: E402

#: Units whose per-layer metrics are exact counts.
COUNT_UNITS = ("count", "B")


def verdict(
    a: dict[str, Any], b: dict[str, Any], better: str, bound: float
) -> tuple[str, float]:
    """``(verdict, relative difference of the medians, base A)`` for one
    metric summary pair (``median``, ``iqr``, ``values``)."""
    base = a["median"]
    diff = (b["median"] - base) / base if base else 0.0
    worse = diff if better == "lower" else -diff
    spread = max(_spread(a), _spread(b))
    if spread > bound:
        if better == "lower":
            all_better = max(b["values"]) < min(a["values"])
        else:
            all_better = min(b["values"]) > max(a["values"])
        return ("ok" if all_better else "unresolved"), diff
    return ("regressed" if worse > bound else "ok"), diff


def _spread(summary: dict[str, Any]) -> float:
    return summary["iqr"] / summary["median"] if summary["median"] else 0.0


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """``(end-to-end rows, count rows)`` for the workloads both files hold."""
    rows: list[dict[str, Any]] = []
    counts: list[dict[str, Any]] = []
    for workload, block_a in a["workloads"].items():
        block_b = b["workloads"].get(workload)
        if block_b is None:
            continue
        for metric, unit, better, bound in END_TO_END:
            sa, sb = block_a["end_to_end"][metric], block_b["end_to_end"][metric]
            status, diff = verdict(sa, sb, better, bound)
            rows.append(
                {
                    "workload": workload, "metric": metric, "unit": unit,
                    "a": sa["median"], "a_iqr": sa["iqr"],
                    "b": sb["median"], "b_iqr": sb["iqr"],
                    "diff": diff, "bound": bound, "verdict": status,
                }  # fmt: skip
            )
        fa, fb = block_a["failed_share"], block_b["failed_share"]
        rows.append(
            {
                "workload": workload, "metric": "failed_share", "unit": "fraction",
                "a": fa, "a_iqr": 0.0, "b": fb, "b_iqr": 0.0,
                "diff": fb - fa, "bound": 0.0,
                "verdict": "regressed" if fb > fa else "ok",
            }  # fmt: skip
        )
        for metric, unit, _ in PER_LAYER:
            if unit in COUNT_UNITS:
                va, vb = block_a["per_layer"][metric], block_b["per_layer"][metric]
                counts.append(
                    {"workload": workload, "metric": metric, "a": va, "b": vb, "same": va == vb}
                )
        sha_a = block_a["info"]["report_sha256"]
        sha_b = block_b["info"]["report_sha256"]
        counts.append(
            {"workload": workload, "metric": "report_sha256", "a": sha_a[:12], "b": sha_b[:12], "same": sha_a == sha_b}
        )
    return rows, counts


def render(rows: list[dict[str, Any]], counts: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':15s} {'metric':12s} {'A median':>12s} {'A iqr':>10s} "
        f"{'B median':>12s} {'B iqr':>10s} {'(B-A)/A':>9s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:15s} {r['metric']:12s} {r['a']:12.4f} {r['a_iqr']:10.4f} "
            f"{r['b']:12.4f} {r['b_iqr']:10.4f} {r['diff']:+9.2%} {r['bound']:6.0%}  "
            f"{r['verdict']}  [{r['unit']}]"
        )
    differing = [c for c in counts if not c["same"]]
    lines.append("")
    lines.append(
        f"counts and output digests: {len(counts) - len(differing)} same, {len(differing)} differ"
    )
    for c in differing:
        lines.append(f"  differs  {c['workload']:15s} {c['metric']:42s} A={c['a']}  B={c['b']}")
    tally = {v: sum(r["verdict"] == v for r in rows) for v in ("ok", "regressed", "unresolved")}
    lines.append(
        f"rows: {tally['ok']} ok, {tally['regressed']} regressed, {tally['unresolved']} unresolved"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows, counts = compare(a, b)
    print(render(rows, counts))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
