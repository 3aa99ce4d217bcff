"""Runner of the end-to-end benchmark.

One workload, as the driver calls it (last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload sim_faulty --seed 0 --seconds 8 --trace 0

The whole suite - interleaved rounds of every workload, each in a fresh
child process, then one traced pass - with every metric printed by name
and the result written as JSON::

    python3 benchmarks/e2e/run.py --seed 0 [--rounds 5] [--out result.json]

``--trace 0`` reports the end-to-end metrics, measured with no span
wrapper installed anywhere.  ``--trace 1`` runs the same timed region
twice - bare, then under the benchmark's span wrappers - and reports the
per-layer metrics; the ratio of the two walls is the tracing overhead.
All times are at the reference speed (see ``refclock.py``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
# Run as a script, sys.path[0] is this directory; the benchmark's
# modules import each other as ``benchmarks.e2e.*`` and the program
# under test from ``src``.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

if not (ROOT / "src" / "repro").is_dir():  # nothing here to measure
    print(f"benchmarks/e2e: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
    sys.exit(2)

from benchmarks.e2e import refclock, spans as spans_mod, stats  # noqa: E402
from benchmarks.e2e.contract import END_TO_END, PER_LAYER, SPAN_FIELDS  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Measurement, Workload  # noqa: E402

#: Scratch space; inside the checkout because the benchmark may write
#: nowhere else.
SCRATCH = ROOT / ".bench_tmp"

#: Timed set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def end_to_end_metrics(
    setup: refclock.Slices, m: Measurement, peak_rss_mib: float
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup.normalised),
        "ops_per_s": m.ops / m.wall_s,
        "op_p50_ms": 1e3 * statistics.median(m.latencies_s),
        "peak_rss_mb": peak_rss_mib,
    }


def p99_ms(latencies_s: list[float]) -> float | None:
    """The 99th percentile, where enough samples lie beyond it."""
    if len(latencies_s) * 0.01 < stats.MIN_SAMPLES_BEYOND:
        return None
    return 1e3 * stats.percentile(latencies_s, 99)


def merged_spans(recorder: spans_mod.SpanRecorder, traced: Measurement):
    """One span table and counter set for the traced pass: this
    process's recorder plus whatever the server children shipped."""
    table = recorder.table()
    counts = dict(recorder.counts)
    windows = 0.0
    for child in traced.child_spans:
        for name, row in child["table"].items():
            into = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
        for key, value in child["counts"].items():
            counts[key] = counts.get(key, 0) + value
        if child["first_start"] is not None:
            windows += child["last_end"] - child["first_start"]
    return table, counts, windows


def per_layer_metrics(
    bare: Measurement, traced: Measurement, table: dict, counts: dict, windows: float
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced pass's merged
    spans.  Span seconds are scaled like the timed wall they are part
    of."""
    scale = traced.scale
    values: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}
    for span, fields in SPAN_FIELDS.items():
        row = table.get(span)
        for fld in fields:
            if fld in ("calls", "total_s", "self_s"):
                value = row[fld] if row else 0
                values[f"{span}.{fld}"] = value * scale if fld != "calls" else value
            else:
                values[f"{span}.{fld}"] = counts.get(f"{span}.{fld}", 0)
    values.update(traced.layers)
    layer_self = sum(
        row["self_s"] for name, row in table.items() if not name.startswith("bench.")
    )
    choose = table.get("core.policies.choose")
    if choose and choose["calls"]:
        values["core.policies.choose.hit_ratio"] = (
            counts["core.policies.choose.placed"] / choose["calls"]
        )
    covered = traced.raw_wall_s if traced.span_covered else 0.0
    if traced.child_spans:
        # Server side: the children's first-span-to-last-span windows,
        # less the time the generator spent between timed slices.
        busy_window = windows - traced.info["client_pause_s"]
        values["serve.service.transport_s"] = (busy_window - layer_self) * scale
        values["serve.service.busy_share"] = traced.info["server_cpu_s"] / busy_window
        layer_self = busy_window
    if covered:
        values["bench.unattributed_s"] = (covered - layer_self) * scale
        values["bench.unattributed_share"] = (covered - layer_self) / covered
    values["bench.trace_overhead_ratio"] = traced.wall_s / bare.wall_s
    values["bench.raw_ops_per_s"] = bare.ops / bare.raw_wall_s
    values["bench.speed_factor"] = bare.raw_wall_s / bare.wall_s
    values["bench.client.op_p99_ms"] = p99_ms(bare.latencies_s) or 0
    values["bench.client.drain_s"] = bare.info.get("drain_s", 0)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up, measure and check one workload; the full detail record."""
    SCRATCH.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{name}_", dir=SCRATCH))
    workload: Workload = WORKLOADS[name](seed, seconds, tmpdir)
    try:
        workload.prepare()
        setup = refclock.Slices(workload.sampler, workload.kernels_per_sample)
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
                setup.break_chain()
            setup.timed(workload.setup)
        bare = workload.measure(None)
        workload.teardown()
        passes = [bare]
        detail: dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "end_to_end": end_to_end_metrics(setup, bare, workload.peak_rss_mib()),
        }
        if trace:
            workload.setup(trace=True)
            recorder = spans_mod.SpanRecorder()
            traced = workload.measure(recorder)
            passes.append(traced)
            same = traced.info["report_sha256"] == bare.info["report_sha256"]
            if not traced.check("traced_pass_same_output", same):
                traced.failed = traced.attempted
            table, counts, windows = merged_spans(recorder, traced)
            detail["per_layer"] = per_layer_metrics(bare, traced, table, counts, windows)
            rows = spans_mod.layer_rows(table)
            detail["layer_rows_s"] = {k: v * traced.scale for k, v in rows.items()}
            # (name, start, end, parent) of every call off the hot path.
            detail["span_records"] = recorder.records
    finally:
        workload.teardown()
        workload.close()
        shutil.rmtree(tmpdir, ignore_errors=True)
    checks: dict[str, bool] = {}
    for m in passes:
        checks.update({k: checks.get(k, True) and v for k, v in m.checks.items()})
    detail.update(
        correct=all(checks.values()),
        attempted=bare.attempted,
        failed=max(m.failed for m in passes),
        checks=checks,
        info={
            **bare.info,
            "op": workload.op,
            "ops": bare.ops,
            "raw_wall_s": bare.raw_wall_s,
            "speed_factor": bare.raw_wall_s / bare.wall_s,
            "op_samples": len(bare.latencies_s),
        },
    )
    if not detail["correct"]:
        detail["failed"] = detail["attempted"]
    if (p99 := p99_ms(bare.latencies_s)) is not None:
        detail["info"]["op_p99_ms"] = p99
    return detail


def result_line(detail: dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads."""
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = detail["per_layer"]
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = detail["end_to_end"]
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One (workload, repeat) in a fresh process, so peak RSS, module
    caches and collector state never leak between runs."""
    SCRATCH.mkdir(exist_ok=True)
    handle, path = tempfile.mkstemp(prefix="detail_", suffix=".json", dir=SCRATCH)
    try:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--detail", path,
        ]  # fmt: skip
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{name}: child exited with {done.returncode}")
        return json.loads(Path(path).read_text(encoding="utf-8"))
    finally:
        os.close(handle)
        Path(path).unlink(missing_ok=True)


def run_suite(seed: int, seconds: float, rounds: int, names: list[str]) -> dict[str, Any]:
    """Rounds are interleaved (round 1 of every workload, then round 2,
    ...): the box drifts over tens of seconds, and back-to-back repeats
    of one workload would all sit in the same phase."""
    started = time.time()
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for rnd in range(rounds):
        for name in names:
            detail = run_child(name, seed, seconds, trace=False)
            runs[name].append(detail)
            e2e = detail["end_to_end"]
            print(
                f"round {rnd + 1}/{rounds} {name:15s} ops_per_s {e2e['ops_per_s']:10.1f} "
                f"op_p50_ms {e2e['op_p50_ms']:9.3f} setup_s {e2e['setup_s']:6.3f} "
                f"failed {detail['failed']}/{detail['attempted']}",
                flush=True,
            )
    traced = {}
    for name in names:
        traced[name] = run_child(name, seed, seconds, trace=True)
        print(f"traced pass   {name:15s} done", flush=True)
    result: dict[str, Any] = {
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "reference_kernel_nominal_s": refclock.NOMINAL_S,
        "started_unix": started,
        "bounds": {name: bound for name, _, _, bound in END_TO_END},
        "workloads": {},
    }
    for name in names:
        result["workloads"][name] = summarise(runs[name], traced[name])
    result["elapsed_s"] = time.time() - started
    return result


def summarise(runs: list[dict[str, Any]], traced: dict[str, Any]) -> dict[str, Any]:
    """Medians of the span-free rounds, the traced pass's layer table,
    and the checks that need more than one run to make."""
    checks = dict(traced["checks"])
    for run in runs:
        checks.update({k: checks.get(k, True) and v for k, v in run["checks"].items()})
    for key in ("report_sha256", "trace_sha256"):
        seen = {run["info"][key] for run in runs if key in run["info"]}
        if seen:
            checks[f"{key}_same_every_round"] = len(seen) == 1
    checks["report_same_traced_and_untraced"] = (
        traced["info"]["report_sha256"] == runs[0]["info"]["report_sha256"]
    )
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = all(checks.values())
    observed = {}
    for key in ("op_p99_ms", "drain_s", "raw_wall_s", "speed_factor"):
        values = [run["info"][key] for run in runs if key in run["info"]]
        if values:
            observed[key] = stats.summary(values)
    return {
        "end_to_end": {
            metric: {
                **stats.summary([run["end_to_end"][metric] for run in runs]),
                "values": [run["end_to_end"][metric] for run in runs],
            }
            for metric, _, _, _ in END_TO_END
        },
        "failed_share": 1.0 if not correct else failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "observed": observed,
        "info": {
            k: runs[0]["info"][k]
            for k in ("report_sha256", "trace_sha256", "op", "ops", "op_samples",
                      "submit_samples", "accepted", "rejected")
            if k in runs[0]["info"]
        },  # fmt: skip
        "per_layer": traced["per_layer"],
        "layer_rows_s": traced["layer_rows_s"],
    }


def print_suite(result: dict[str, Any]) -> None:
    units = {name: unit for name, unit, _, _ in END_TO_END}
    layer_units = {name: unit for name, unit, _ in PER_LAYER}
    print("\n== end to end (span-free rounds; times at reference speed) ==")
    print(f"{'workload':15s} {'metric':12s} {'median':>12s} {'min':>12s} {'max':>12s} {'iqr':>10s} {'n':>3s}  unit")
    for name, block in result["workloads"].items():
        for metric, s in block["end_to_end"].items():
            print(
                f"{name:15s} {metric:12s} {s['median']:12.4f} {s['min']:12.4f} "
                f"{s['max']:12.4f} {s['iqr']:10.4f} {s['n']:3d}  {units[metric]}"
            )
        for metric, s in block["observed"].items():
            print(
                f"{name:15s} {metric:12s} {s['median']:12.4f} {s['min']:12.4f} "
                f"{s['max']:12.4f} {s['iqr']:10.4f} {s['n']:3d}  (observed, not gated)"
            )
        print(
            f"{name:15s} failed_share {block['failed_share']:12.6f}   "
            f"({block['failed']}/{block['attempted']} ops; op = {block['info']['op']}; "
            f"report_sha256 {block['info']['report_sha256'][:16]})"
        )
        bad = [check for check, ok in block["checks"].items() if not ok]
        print(f"{name:15s} checks       {len(block['checks'])} run, failed: {bad or 'none'}")
    for name, block in result["workloads"].items():
        print(f"\n== layers of {name} (traced pass) ==")
        rows = dict(block["layer_rows_s"])
        rows.pop("bench", None)
        layers = block["per_layer"]
        for layer, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
            if seconds:
                print(f"  {layer:28s} {seconds:10.4f} s")
        for extra in ("serve.service.transport_s", "bench.unattributed_s"):
            if layers[extra]:
                print(f"  {extra:28s} {layers[extra]:10.4f} s")
        print(
            f"  unattributed share {layers['bench.unattributed_share']:.4f}; "
            f"trace overhead x{layers['bench.trace_overhead_ratio']:.3f}"
        )
        for metric, value in layers.items():
            if value:
                print(f"    {metric:42s} {value:16.6f} {layer_units[metric]}")


# ----------------------------------------------------------------------
# no process outlives a run
# ----------------------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent
    exits first (``PR_SET_CHILD_SUBREAPER``), so that :func:`reap` can
    wait for it."""
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)


def children() -> list[int]:
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue  # ended while we looked
            if stat.rsplit(")", 1)[1].split()[1] == me:
                found.append(int(entry))
    return found


def reap(grace_s: float = 2.0) -> None:
    """Wait until this process has no child left; whatever is still
    running after ``grace_s`` is killed first.  A clean run has nothing
    to find here - every workload stops what it starts - this is for
    the paths out of a run that are not clean."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                for child in children():
                    os.kill(child, signal.SIGKILL)
            time.sleep(0.01)


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    adopt_orphans()
    # A terminated run unwinds like an interrupted one: teardowns, reap.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(argv)
    finally:
        reap()


def run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the full record of a one-workload run here")
    parser.add_argument("--rounds", type=int, default=5, help="suite: span-free repeats per workload")
    parser.add_argument("--only", nargs="+", choices=sorted(WORKLOADS), help="suite: these workloads only")
    parser.add_argument("--out", default=str(SCRATCH / "e2e_result.json"), help="suite: result file")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        detail = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        if args.detail:
            Path(args.detail).write_text(json.dumps(detail), encoding="utf-8")
        print(result_line(detail, bool(args.trace)))
        return 0
    names = args.only or list(WORKLOADS)
    result = run_suite(args.seed, seconds, args.rounds, names)
    print_suite(result)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    print(f"\nresult written to {out}")
    failed = any(b["failed_share"] > 0 for b in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
