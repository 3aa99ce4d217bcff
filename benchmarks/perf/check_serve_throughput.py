"""Gate the scheduler service's in-process submission throughput.

Three checks, run against a live overload fixture plus the committed
``BENCH_core.json`` baseline:

1. **Throughput on the overload fixture** — the ``serve_inproc_submit``
   fixture (size-64 jobs against a capped engine under 2x tenant-queue
   overload, logical clock) is replayed through a fresh engine and the
   measured submissions/s must reach the *machine-aware bar*::

       bar = min(--target, --efficiency x baseline_rate x machine_factor)

   ``machine_factor`` is a freshly measured ``placement_index_build``
   rate divided by the committed baseline's — a within-run
   normalizer — so a slow CI container
   is held to what *this* machine can plausibly do, while fast machines
   are held to the full ``--target`` (default 10,000/s).
2. **Backpressure honesty** — under the 2x overload the fixture must
   actually reject: every response accounted for, zero errors, and
   more rejects than accepts.  A "fast" service that silently admits
   past its caps (or drops responses) fails outright.
3. **Baseline-record presence** — the committed baseline must carry a
   ``serve_inproc_submit`` record, so the trajectory stays machine
   readable for later PRs.

Usage::

    python benchmarks/perf/check_serve_throughput.py \
        [--baseline BENCH_core.json] [--target 10000] [--efficiency 0.5]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

_spec = importlib.util.spec_from_file_location(
    "bench_core", Path(__file__).with_name("bench_core.py")
)
bench_core = importlib.util.module_from_spec(_spec)
sys.modules["bench_core"] = bench_core
_spec.loader.exec_module(bench_core)

REFERENCE_BENCH = "placement_index_build"
SERVE_BENCH = "serve_inproc_submit"

#: Fixture size: enough submissions to dwarf engine construction and
#: interpreter warm-up, small enough to keep the gate under a second.
FIXTURE_SUBMISSIONS = 20_000


def run_fixture() -> tuple[float, dict]:
    """Measured submissions/s plus the engine's final stats.

    The tenant queues hold ``SERVE_BENCH_TENANT_CAP`` jobs and the
    engine ``SERVE_BENCH_ENGINE_CAP`` more; 20k size-64 submissions
    with effectively infinite runtimes are far past 2x overload, so
    the run exercises the reject fast path almost exclusively —
    the regime the bar is about.
    """
    from repro.serve.client import InprocClient

    messages = bench_core._serve_messages(FIXTURE_SUBMISSIONS)
    best = float("inf")
    stats: dict = {}
    for _ in range(3):
        client = InprocClient(bench_core._serve_engine())
        start = time.perf_counter()
        replies = client.request_many(messages)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            accepted = sum(1 for r in replies if r.get("ok"))
            rejected = sum(1 for r in replies if r.get("rejected"))
            errors = len(replies) - accepted - rejected
            stats = {
                "responses": len(replies),
                "accepted": accepted,
                "rejected": rejected,
                "errors": errors,
            }
    return FIXTURE_SUBMISSIONS / best, stats


def measure_reference_rate() -> float:
    """Fresh ``placement_index_build`` rate (builds/s) on this machine."""
    scale = bench_core.SCALES["default"]
    run, ops = bench_core.bench_placement_index_build(scale)
    return ops / bench_core.best_of(run, scale.repeats)


def load_records(path: Path) -> list[dict]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: bench result file not found: {path}")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")


def find_record(records: list[dict], bench: str, path: Path) -> dict:
    for record in records:
        if record.get("bench") == bench:
            return record
    sys.exit(
        f"error: {path} has no {bench!r} benchmark — regenerate it with "
        f"a bench_core that measures the serve pair"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="recorded baseline (default: committed BENCH_core.json)",
    )
    parser.add_argument(
        "--target",
        type=float,
        default=10_000.0,
        help="required in-process submissions/s where the hardware "
        "allows it (default 10000)",
    )
    parser.add_argument(
        "--efficiency",
        type=float,
        default=0.5,
        help="fraction of the machine-scaled baseline rate the fixture "
        "must reach when that is below --target (default 0.5)",
    )
    args = parser.parse_args(argv)

    baseline_records = load_records(args.baseline)
    base_serve = find_record(baseline_records, SERVE_BENCH, args.baseline)
    base_reference = find_record(baseline_records, REFERENCE_BENCH, args.baseline)

    # 1. Throughput against the machine-aware bar.
    rate, stats = run_fixture()
    reference = measure_reference_rate()
    machine_factor = reference / base_reference["cells_per_s"]
    scaled_baseline = base_serve["cells_per_s"] * machine_factor
    bar = min(args.target, args.efficiency * scaled_baseline)
    print(
        f"fixture: {FIXTURE_SUBMISSIONS} submissions at {rate:.0f}/s "
        f"({stats['accepted']} accepted, {stats['rejected']} rejected, "
        f"{stats['errors']} errors)"
    )
    print(
        f"machine factor ({REFERENCE_BENCH}): {machine_factor:.2f}x "
        f"baseline | bar: min({args.target:.0f}, {args.efficiency:.2f} x "
        f"{scaled_baseline:.0f}) = {bar:.0f}/s"
    )
    if rate < bar:
        print(
            f"FAIL: in-process submission rate {rate:.0f}/s is below the "
            f"bar {bar:.0f}/s"
        )
        return 1
    print(f"OK: submission throughput >= {bar:.0f}/s")

    # 2. Backpressure honesty under 2x overload.
    if stats["responses"] != FIXTURE_SUBMISSIONS:
        print(
            f"FAIL: {FIXTURE_SUBMISSIONS - stats['responses']} submissions "
            f"got no response"
        )
        return 1
    if stats["errors"]:
        print(f"FAIL: {stats['errors']} submissions errored (expected none)")
        return 1
    if stats["rejected"] <= stats["accepted"]:
        print(
            f"FAIL: overload fixture accepted {stats['accepted']} vs "
            f"{stats['rejected']} rejects — backpressure never engaged"
        )
        return 1
    print(
        f"OK: backpressure engaged ({stats['rejected']} rejects, "
        f"zero dropped, zero errors)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
