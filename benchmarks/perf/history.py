"""Append-only history of the end-to-end benchmark: ``BENCH_history.ndjson``.

``benchmarks/e2e/run.py --out run.json`` measures a checkout; this
script files what it measured, so the trajectory a CHANGES entry quotes
in prose is also a file one can plot or diff::

    python benchmarks/e2e/run.py --seed 0 --out run.json
    python benchmarks/perf/history.py append run.json
    python benchmarks/perf/history.py append-pairs pairs.json
    python benchmarks/perf/history.py check          # CI: every line parses

``append`` adds one line per workload of the run::

    {"rev": "abc1234", "dirty": false, "workload": "swf_replay",
     "seed": 0, "seconds": 8.0, "rounds": 5, "setup_s": 0.38,
     "ops_per_s": 3170.2, "op_p50_ms": 940.1, "peak_rss_mb": 65.2,
     "src_loc": 10412}

The four metrics are the run's reference-speed medians over its
span-free rounds.  ``rev``, ``dirty`` (tracked files differ from
``rev``, as ``git describe --dirty`` counts it) and ``src_loc`` describe
the checkout this script sits in, so file a run from the checkout that
measured it; ``--history`` names the file when that checkout is not the
one keeping the history.  It reads the run file only — nothing of
``benchmarks/e2e`` is imported.

``append-pairs`` files the verdict of a ``pairs.py --out`` record (one
workload, one seed) as one line of a second schema, told apart by its
``kind``::

    {"kind": "pairs", "metric": "ops_per_s", "base_rev": "97b0a94",
     "change_rev": "9cd66c3", "change_dirty": false,
     "workload": "sim_faulty", "seed": 0, "seconds": 8, "n": 10,
     "wins": 10, "losses": 0, "ties": 0, "base_median": 3794.1,
     "change_median": 4194.0, "base_iqr": 134.2, "ratio": 1.105,
     "verdict": "faster", "clears_iqr": true, "meets_claim": true,
     "digests_equal": true, "calls_equal": true}

``metric`` is the judged end-to-end metric (``pairs.py --metric``, one
of :data:`METRICS`); a pair is won in its ``better`` direction, so on
``op_p50_ms`` a win is a lower median.  ``verdict`` is the sign test
alone; ``meets_claim`` is the gate a speed claim must pass (at least 9
of every 10 pairs won, ties counted as losses, and ``clears_iqr``: the
median gain above the base's IQR).  ``check`` accepts both schemas.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
HISTORY_PATH = REPO_ROOT / "BENCH_history.ndjson"

#: The driver-gated end-to-end metrics of ``BENCHMARK.json``.
METRICS = ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")
#: Every key of a history line, with the type ``check`` insists on.
FIELDS = {
    "rev": str,
    "dirty": bool,
    "workload": str,
    "seed": int,
    "seconds": (int, float),
    "rounds": int,
    **{metric: (int, float) for metric in METRICS},
    "src_loc": int,
}
#: Every key of a ``pairs`` line (``append-pairs``).
PAIR_FIELDS = {
    "kind": str,
    "metric": str,
    "base_rev": str,
    "change_rev": str,
    "change_dirty": bool,
    "workload": str,
    "seed": int,
    "seconds": (int, float),
    "n": int,
    "wins": int,
    "losses": int,
    "ties": int,
    "base_median": (int, float),
    "change_median": (int, float),
    "base_iqr": (int, float),
    "ratio": (int, float),
    "verdict": str,
    "clears_iqr": bool,
    "meets_claim": bool,
    "digests_equal": bool,
    "calls_equal": bool,
}
VERDICTS = ("faster", "slower", "unresolved")


def checkout_state() -> dict:
    """``rev`` / ``dirty`` / ``src_loc`` of this script's checkout."""
    # The sibling harness already knows how to name a revision and
    # count source lines; run as a script, its directory is on the path.
    from bench_core import git_rev, src_loc

    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    return {"rev": git_rev(), "dirty": bool(dirty), "src_loc": src_loc()}


def lines_of(run: dict, state: dict) -> list[dict]:
    """One history line per workload of a ``run.py --out`` result."""
    return [
        {
            "rev": state["rev"],
            "dirty": state["dirty"],
            "workload": name,
            "seed": run["seed"],
            "seconds": run["seconds"],
            "rounds": run["rounds"],
            **{m: round(block["end_to_end"][m]["median"], 4) for m in METRICS},
            "src_loc": state["src_loc"],
        }
        for name, block in run["workloads"].items()
    ]


def append(run_path: Path, history_path: Path) -> int:
    run = json.loads(run_path.read_text(encoding="utf-8"))
    lines = lines_of(run, checkout_state())
    with history_path.open("a", encoding="utf-8") as out:
        for line in lines:
            out.write(json.dumps(line) + "\n")
    print(f"appended {len(lines)} lines to {history_path}")
    return 0


def pair_line(record: dict) -> dict:
    """The ``pairs`` history line of one ``pairs.py --out`` record."""
    summary = record["summary"]
    return {
        "kind": "pairs",
        "metric": record["metric"],
        "base_rev": record["base"]["rev"],
        "change_rev": record["change"]["rev"],
        "change_dirty": record["change"]["dirty"],
        "workload": record["workload"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        **{k: summary[k] for k in ("n", "wins", "losses", "ties")},
        **{k: round(summary[k], 4) for k in ("base_median", "change_median", "base_iqr", "ratio")},
        **{k: summary[k] for k in ("verdict", "clears_iqr", "meets_claim")},
        "digests_equal": record["digests_equal"],
        "calls_equal": record["calls_equal"],
    }


def append_pairs(record_paths: list[Path], history_path: Path) -> int:
    lines = [pair_line(json.loads(p.read_text(encoding="utf-8"))) for p in record_paths]
    with history_path.open("a", encoding="utf-8") as out:
        for line in lines:
            out.write(json.dumps(line) + "\n")
    print(f"appended {len(lines)} pairs lines to {history_path}")
    return 0


def check(history_path: Path) -> int:
    """Every line is a JSON object with exactly :data:`FIELDS`, or a
    ``pairs`` line with exactly :data:`PAIR_FIELDS`."""
    text = history_path.read_text(encoding="utf-8")
    for number, raw in enumerate(text.splitlines(), start=1):
        try:
            line = json.loads(raw)
            fields = PAIR_FIELDS if isinstance(line, dict) and "kind" in line else FIELDS
            if not isinstance(line, dict) or set(line) != set(fields):
                raise ValueError(f"not an object with keys {sorted(fields)}")
            for key, kind in fields.items():
                if not isinstance(line[key], kind):
                    raise ValueError(f"{key}={line[key]!r}")
            if fields is PAIR_FIELDS and (
                line["kind"] != "pairs"
                or line["verdict"] not in VERDICTS
                or line["metric"] not in METRICS
            ):
                raise ValueError(
                    f"kind={line['kind']!r} verdict={line['verdict']!r} metric={line['metric']!r}"
                )
        except ValueError as error:  # JSONDecodeError is one
            print(f"{history_path}:{number}: {error}", file=sys.stderr)
            return 1
    print(f"{history_path}: {len(text.splitlines())} lines ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=Path, default=HISTORY_PATH)
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("append").add_argument("run", type=Path)
    commands.add_parser("append-pairs").add_argument("records", type=Path, nargs="+")
    commands.add_parser("check")
    args = parser.parse_args(argv)
    if args.command == "append":
        return append(args.run, args.history)
    if args.command == "append-pairs":
        return append_pairs(args.records, args.history)
    return check(args.history)


if __name__ == "__main__":
    sys.exit(main())
