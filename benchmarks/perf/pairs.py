"""Paired end-to-end measurement of two trees: a speed claim as a verdict.

A base revision and a change (another revision, or this working tree)
run one workload of the end-to-end benchmark in alternated ABBA pairs,
each run a fresh ``benchmarks/e2e/run.py --workload W`` of its own
tree, so host drift falls on both sides of a pair alike::

    python benchmarks/perf/pairs.py 97b0a94 9cd66c3 --workload sim_faulty --seed 0 --pairs 10
    python benchmarks/perf/pairs.py HEAD --worktree --workload swf_replay --seed 0 --pairs 10 \\
        --out pairs.json
    python benchmarks/perf/history.py append-pairs pairs.json
    python benchmarks/perf/pairs.py HEAD --worktree --workload serve_replay --metric op_p50_ms

A revision is extracted with ``git archive`` (local, no network) into a
scratch directory that is removed afterwards.  ``--worktree`` extracts
the working tree the same way, as the commit ``git stash create`` makes
of its tracked edits (``HEAD`` when there are none; untracked files are
left out), so both sides run from a fresh directory of the same kind and
a start-up metric carries no per-location bias.  The judged metric is
``ops_per_s`` unless ``--metric`` names another end-to-end metric of
``BENCHMARK.json``; its ``better`` direction there says which way a
pair is won.  It is judged by the rule the claims table uses
(:class:`repro.analysis.compare.SignCount`): per-pair signs, ties
dropped, a one-sided sign test at p <= 0.05 — ``faster`` (the change
better), ``slower`` or ``unresolved``.  Beside it: both medians, the
base's interquartile range, the median paired ratio (change / base),
and the gate a speed claim must pass (``meets_claim``): at least 10
pairs, the change better in at least 9 of every 10 of them, a tie
counting as a loss, and its median better than the base's by more than
the base's IQR (``clears_iqr``).
Every run lasts BENCHMARK.json's ``run_seconds``, as the benchmark's.
One traced run per tree then compares every span call count, and every
run's ``report_sha256`` / ``trace_sha256`` must equal across the two
trees; the exit status is 1 when any of them differ or a run is not
``correct``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.perf.history import meets_claim  # noqa: E402
from repro.analysis.compare import sign_count  # noqa: E402

#: The default judged metric: reference-speed operations per second.
METRIC = "ops_per_s"
#: What a digest comparison reads from a run's ``info``.
DIGESTS = ("report_sha256", "trace_sha256")
VERDICTS = {"holds": "faster", "refuted": "slower"}


def judge(base: list[float], change: list[float], lower_is_better: bool = False) -> dict:
    """The verdict on paired values of one metric (pair ``k`` is
    ``base[k]``, ``change[k]``); higher is better unless
    ``lower_is_better``."""
    if not base or len(base) != len(change):
        raise ValueError("need one base and one change value per pair")
    # ``SignCount`` counts a delta below zero as a "holds": the delta is
    # how much worse the change is, base - change when higher is better.
    sign = -1.0 if lower_is_better else 1.0
    signs = sign_count([sign * (b - c) for b, c in zip(base, change)])
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else base * 3
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    clears_iqr = sign * (change_median - base_median) > q3 - q1
    return {
        "n": len(base),
        "wins": signs.lower,
        "losses": signs.higher,
        "ties": signs.tied,
        "base_median": base_median,
        "change_median": change_median,
        "base_iqr": q3 - q1,
        "ratio": statistics.median(c / b for b, c in zip(base, change)),
        "verdict": VERDICTS.get(signs.verdict, "unresolved"),
        "clears_iqr": clears_iqr,
        "meets_claim": meets_claim(len(base), signs.lower, clears_iqr),
    }


def order(pair: int) -> tuple[str, str]:
    """ABBA: even pairs run the base first, odd pairs the change."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(rev: str, into: Path) -> Path:
    """``rev``'s committed files, unpacked under ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=REPO_ROOT,
        capture_output=True, check=True,
    ).stdout  # fmt: skip
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One fresh ``run.py --workload`` of ``tree``: its detail record."""
    with tempfile.NamedTemporaryFile(suffix=".json") as detail:
        subprocess.run(
            [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--detail", detail.name],
            cwd=tree, stdout=subprocess.DEVNULL, check=True,
        )  # fmt: skip
        return json.loads(Path(detail.name).read_text(encoding="utf-8"))


def span_calls(detail: dict) -> dict[str, float]:
    return {k: v for k, v in detail["per_layer"].items() if k.endswith(".calls")}


def measure(trees: dict[str, Path], workload: str, seed: int, seconds: float,
            pairs: int, metric: str = METRIC, lower_is_better: bool = False) -> dict:
    """Run the pairs and the traced runs; the whole record."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for pair in range(pairs):
        for side in order(pair):
            detail = run_once(trees[side], workload, seed, seconds, trace=False)
            runs[side].append(detail)
        b, c = (runs[s][-1]["end_to_end"][metric] for s in ("base", "change"))
        print(f"pair {pair + 1:2d}/{pairs} {'-'.join(order(pair)):11s} "
              f"base {b:10.6g}  change {c:10.6g}  ratio {c / b:6.3f}", flush=True)
    traced = {s: run_once(trees[s], workload, seed, seconds, trace=True) for s in runs}
    digests = {
        s: sorted({(k, d["info"][k]) for d in runs[s] + [traced[s]] for k in DIGESTS
                   if k in d["info"]})
        for s in runs
    }  # fmt: skip
    calls = {s: span_calls(traced[s]) for s in runs}
    calls_diff = {
        k: [calls["base"].get(k), calls["change"].get(k)]
        for k in sorted(set(calls["base"]) | set(calls["change"]))
        if calls["base"].get(k) != calls["change"].get(k)
    }
    values = {s: [d["end_to_end"][metric] for d in runs[s]] for s in runs}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "metric": metric,
        "values": values,
        "medians": {
            s: {m: statistics.median(d["end_to_end"][m] for d in runs[s])
                for m in runs[s][0]["end_to_end"]}
            for s in runs
        },  # fmt: skip
        "correct": all(d["correct"] for s in runs for d in runs[s] + [traced[s]]),
        "digests": {s: dict(digests[s]) for s in runs},
        # One value per digest key on each side, and the same on both.
        "digests_equal": digests["base"] == digests["change"]
        and len(digests["base"]) == len({k for k, _ in digests["base"]}),
        "calls_equal": not calls_diff,
        "calls_diff": calls_diff,
        "summary": judge(values["base"], values["change"], lower_is_better),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev")
    parser.add_argument("change_rev", nargs="?")
    parser.add_argument("--worktree", action="store_true",
                        help="measure this working tree as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default=METRIC,
                        help="an end_to_end metric of BENCHMARK.json (default: %(default)s)")
    parser.add_argument("--out", type=Path, help="write the record here (for append-pairs)")
    args = parser.parse_args(argv)
    if (args.change_rev is None) == (not args.worktree):
        parser.error("name a CHANGE_REV or pass --worktree, not both")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    if args.metric not in better:
        parser.error(f"--metric must be one of {sorted(better)}")
    seconds = contract["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="pairs_"))
    try:
        trees = {"base": extract(args.base_rev, scratch / "base")}
        sides = {"base": {"rev": git("rev-parse", "--short", args.base_rev), "dirty": False}}
        if args.worktree:
            trees["change"] = extract(git("stash", "create") or "HEAD", scratch / "change")
            dirty = git("status", "--porcelain", "--untracked-files=no")
            sides["change"] = {"rev": git("rev-parse", "--short", "HEAD"), "dirty": bool(dirty)}
        else:
            trees["change"] = extract(args.change_rev, scratch / "change")
            sides["change"] = {"rev": git("rev-parse", "--short", args.change_rev), "dirty": False}
        record = {**measure(trees, args.workload, args.seed, seconds, args.pairs,
                            args.metric, better[args.metric] == "lower"), **sides}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    s = record["summary"]
    print(f"{args.workload} seed {args.seed} {args.metric}: {s['verdict']} — change better "
          f"in {s['wins']} of {s['n']} pairs ({s['ties']} tied); median {s['base_median']:.6g} "
          f"-> {s['change_median']:.6g}, base IQR {s['base_iqr']:.6g}, median ratio "
          f"{s['ratio']:.3f}; claim gate {'met' if s['meets_claim'] else 'NOT met'} "
          f"(gap {'clears' if s['clears_iqr'] else 'inside'} the base IQR); "
          f"digests {'equal' if record['digests_equal'] else 'DIFFER'}, "
          f"span calls {'equal' if record['calls_equal'] else 'DIFFER'}")
    for metric, base in record["medians"]["base"].items():
        print(f"  {metric:12s} base {base:12.4f}  change {record['medians']['change'][metric]:12.4f}")
    for key, (b, c) in record["calls_diff"].items():
        print(f"  {key}: base {b} change {c}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return 0 if record["correct"] and record["digests_equal"] and record["calls_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
