"""Append-only history of the end-to-end benchmark: ``BENCH_history.ndjson``.

``benchmarks/e2e/run.py --out run.json`` measures a checkout; this
script files what it measured, so the trajectory a CHANGES entry quotes
in prose is also a file one can plot or diff::

    python benchmarks/e2e/run.py --seed 0 --out run.json
    python benchmarks/perf/history.py append run.json
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


def check(history_path: Path) -> int:
    """Every line is a JSON object with exactly :data:`FIELDS`."""
    text = history_path.read_text(encoding="utf-8")
    for number, raw in enumerate(text.splitlines(), start=1):
        try:
            line = json.loads(raw)
            if not isinstance(line, dict) or set(line) != set(FIELDS):
                raise ValueError(f"not an object with keys {sorted(FIELDS)}")
            for key, kind in FIELDS.items():
                if not isinstance(line[key], kind):
                    raise ValueError(f"{key}={line[key]!r}")
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
    commands.add_parser("check")
    args = parser.parse_args(argv)
    if args.command == "append":
        return append(args.run, args.history)
    return check(args.history)


if __name__ == "__main__":
    sys.exit(main())
