"""Append-only history of the end-to-end benchmark: ``BENCH_history.ndjson``.

``benchmarks/e2e/run.py --out run.json`` measures a checkout; this
script files what it measured, so the trajectory a CHANGES entry quotes
in prose is also a file one can plot or diff::

    python benchmarks/e2e/run.py --seed 0 --out run.json
    python benchmarks/perf/history.py append run.json
    python benchmarks/perf/history.py append-pairs pairs.json
    python benchmarks/perf/history.py check          # CI: every line parses
    python benchmarks/perf/history.py diff 696ce37 a2582e5
    python benchmarks/perf/history.py status 6a07c8f

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
alone; ``meets_claim`` is the gate a speed claim must pass
(:func:`meets_claim`: at least 10 pairs, at least 9 of every 10 of them
won, ties counted as losses, and ``clears_iqr``: the median gain above
the base's IQR).  ``check`` accepts both schemas.

``diff REV_A REV_B`` (the older revision first) prints, per workload,
the median of each of the four metrics over each revision's suite lines
and the ratio B / A, then every ``pairs`` line filed between the two:
base and change both ``REV_A``, ``REV_B`` or a commit between them
(``git rev-list REV_A..REV_B``).  A change measured as a dirty tree is
work that landed after its ``change_rev``, so one on ``REV_B`` is left
out.  A revision is anything ``git rev-parse`` resolves in this
checkout, or else the ``rev`` prefix the lines carry.

``status SINCE`` prints where the numbers stand: per workload, the four
medians of its latest suite block (its last suite lines sharing one
``rev`` and ``dirty``, with their ledger line numbers) and that block's
``src_loc``; then every ``pairs`` line filed from the first ledger line
naming ``SINCE`` on that meets the claim gate, by workload.  The gate is
judged again from each line's ``n``, ``wins`` and ``clears_iqr``, so a
line filed ``meets_claim`` under an older, looser gate (no floor on
``n``) is counted apart, not listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
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
#: A claimed gain wins at least this share of its pairs, a tie counting as a loss,
CLAIM_WIN_SHARE = 0.9
#: and has at least this many pairs: fewer cannot show "9 of every 10".
CLAIM_MIN_PAIRS = 10


def meets_claim(n: int, wins: int, clears_iqr: bool) -> bool:
    """The claim gate on ``wins`` of ``n`` pairs (``pairs.py`` files it)."""
    return n >= CLAIM_MIN_PAIRS and wins >= CLAIM_WIN_SHARE * n and clears_iqr


def checkout_state() -> dict:
    """``rev`` / ``dirty`` / ``src_loc`` of this script's checkout."""
    # The sibling harness already knows how to name a revision and
    # count source lines; run as a script, its directory is on the path.
    from bench_core import git_rev, src_loc, tree_dirty

    dirty = tree_dirty()
    if dirty is None:
        raise SystemExit("history: not a git checkout; a ledger line needs its revision")
    return {"rev": git_rev(), "dirty": dirty, "src_loc": src_loc()}


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


def same_rev(line_rev: str, rev: str) -> bool:
    """``line_rev`` (as filed, abbreviated) names ``rev``."""
    return line_rev.startswith(rev) or rev.startswith(line_rev)


def git(*args: str) -> str | None:
    """The stdout of a ``git`` command in this checkout, None on failure."""
    done = subprocess.run(["git", *args], cwd=REPO_ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def commits_between(rev_a: str, rev_b: str) -> list[str]:
    """``rev_a``, ``rev_b`` and every commit between them, as full
    hashes when git knows both revisions, else the two names as given."""
    a = git("rev-parse", "--verify", "--quiet", f"{rev_a}^{{commit}}")
    b = git("rev-parse", "--verify", "--quiet", f"{rev_b}^{{commit}}")
    if a is None or b is None:
        return [rev_a, rev_b]
    return [a, b, *(git("rev-list", f"{a}..{b}") or "").split()]


def suite_medians(lines: list[dict], rev: str) -> dict[str, dict[str, float]]:
    """workload → metric → median over ``rev``'s suite lines."""
    by_workload: dict[str, list[dict]] = {}
    for line in lines:
        if "kind" not in line and same_rev(line["rev"], rev):
            by_workload.setdefault(line["workload"], []).append(line)
    return {
        workload: {m: statistics.median(line[m] for line in group) for m in METRICS}
        for workload, group in by_workload.items()
    }


def diff_lines(lines: list[dict], between: list[str]) -> list[str]:
    """The ``diff`` report over the ledger ``lines``: ``between`` is
    ``[REV_A, REV_B, *commits between them]``."""
    rev_a, rev_b = between[:2]
    a, b = suite_medians(lines, rev_a), suite_medians(lines, rev_b)
    out = [f"{'workload':<16}{'metric':<13}{'A ' + rev_a[:7]:>14}{'B ' + rev_b[:7]:>14}{'B/A':>8}"]
    for workload in sorted(a.keys() | b.keys()):
        for k, metric in enumerate(METRICS):
            va, vb = a.get(workload, {}).get(metric), b.get(workload, {}).get(metric)
            ratio = f"{vb / va:.3f}" if va and vb is not None else "-"
            out.append(
                f"{workload if k == 0 else '':<16}{metric:<13}"
                + "".join(f"{'-':>14}" if v is None else f"{v:>14.4f}" for v in (va, vb))
                + f"{ratio:>8}"
            )

    def inside(rev: str) -> bool:
        return any(same_rev(rev, r) for r in between)

    pairs = [
        line
        for line in lines
        if line.get("kind") == "pairs"
        and inside(line["base_rev"])
        and inside(line["change_rev"])
        and not (line["change_dirty"] and same_rev(line["change_rev"], rev_b))
    ]
    out.append(f"pairs lines from {rev_a[:7]} to {rev_b[:7]}: {len(pairs)}")
    out.extend("  " + pair_text(line) for line in pairs)
    return out


def pair_text(line: dict) -> str:
    """One ``pairs`` line as a report row."""
    return (
        f"{line['workload']} seed {line['seed']} {line['metric']}: "
        f"{line['base_rev']} -> {line['change_rev']}{'+dirty' if line['change_dirty'] else ''}, "
        f"{line['wins']}/{line['n']} won, {line['base_median']} -> {line['change_median']} "
        f"(x{line['ratio']}, base IQR {line['base_iqr']}), {line['verdict']}, "
        f"meets_claim={str(line['meets_claim']).lower()}"
    )


def status_lines(lines: list[dict], since: str) -> list[str] | None:
    """The ``status`` report over the ledger ``lines`` (file order), or
    None when no line names ``since``."""
    start = next(
        (
            k
            for k, line in enumerate(lines)
            if any(line.get(key) and same_rev(line[key], since) for key in ("rev", "base_rev", "change_rev"))
        ),
        None,
    )
    if start is None:
        return None
    # Per workload, its latest suite block: the run of its last suite
    # lines that share one (rev, dirty), older blocks left out.
    blocks: dict[str, list[tuple[int, dict]]] = {}
    for number, line in enumerate(lines, start=1):
        if "kind" in line:
            continue
        block = blocks.setdefault(line["workload"], [])
        if block and (block[-1][1]["rev"], block[-1][1]["dirty"]) != (line["rev"], line["dirty"]):
            block.clear()
        block.append((number, line))
    out = [
        f"{'workload':<16}{'rev':<15}{'lines':<10}"
        + "".join(f"{m:>13}" for m in METRICS)
        + f"{'src_loc':>9}"
    ]
    for workload in sorted(blocks):
        block = blocks[workload]
        (first, _), (number, last) = block[0], block[-1]
        out.append(
            f"{workload:<16}{last['rev'][:7] + ('+dirty' if last['dirty'] else ''):<15}"
            f"{str(first) if first == number else f'{first}-{number}':<10}"
            + "".join(f"{statistics.median(line[m] for _, line in block):>13.4f}" for m in METRICS)
            + f"{last['src_loc']:>9}"
        )
    filed = [(n, line) for n, line in enumerate(lines[start:], start=start + 1)
             if line.get("kind") == "pairs" and line["meets_claim"]]
    claims = [(n, line) for n, line in filed
              if meets_claim(line["n"], line["wins"], line["clears_iqr"])]
    out.append(
        f"claims met since {since[:7]} (pairs lines meeting the claim gate): {len(claims)}"
        f" ({len(filed) - len(claims)} filed meets_claim below {CLAIM_MIN_PAIRS} pairs)"
    )
    for workload in sorted({line["workload"] for _, line in claims}):
        out.extend(
            f"  line {n}: {pair_text(line)}" for n, line in claims if line["workload"] == workload
        )
    return out


def diff(history_path: Path, rev_a: str, rev_b: str) -> int:
    lines = [json.loads(raw) for raw in history_path.read_text(encoding="utf-8").splitlines()]
    report = diff_lines(lines, commits_between(rev_a, rev_b))
    print("\n".join(report))
    if len(report) == 2:  # the header and a zero pairs count
        print(f"{history_path}: no lines for {rev_a} or {rev_b}", file=sys.stderr)
        return 1
    return 0


def status(history_path: Path, since: str) -> int:
    lines = [json.loads(raw) for raw in history_path.read_text(encoding="utf-8").splitlines()]
    report = status_lines(lines, git("rev-parse", "--verify", "--quiet", f"{since}^{{commit}}") or since)
    if report is None:
        print(f"{history_path}: no line names {since}", file=sys.stderr)
        return 1
    print("\n".join(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=Path, default=HISTORY_PATH)
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("append").add_argument("run", type=Path)
    commands.add_parser("append-pairs").add_argument("records", type=Path, nargs="+")
    commands.add_parser("check")
    diff_parser = commands.add_parser("diff")
    diff_parser.add_argument("rev_a")
    diff_parser.add_argument("rev_b")
    commands.add_parser("status").add_argument("since")
    args = parser.parse_args(argv)
    if args.command == "append":
        return append(args.run, args.history)
    if args.command == "append-pairs":
        return append_pairs(args.records, args.history)
    if args.command == "diff":
        return diff(args.history, args.rev_a, args.rev_b)
    if args.command == "status":
        return status(args.history, args.since)
    return check(args.history)


if __name__ == "__main__":
    sys.exit(main())
