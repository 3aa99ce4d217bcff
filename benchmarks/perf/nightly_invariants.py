"""Nightly invariant-oracle sweep for the simulator core.

Runs one real sweep four ways, every cell with decision tracing on:

1. **serial** — the production sweep, in-process;
2. **workers=2** — the same cells through the process pool (cutover
   pinned off so the pool genuinely runs);
3. **checked** — the same cells one by one on
   ``tests.oracles.CheckedSimulator``: the production engine under the
   full runtime oracle harness (per-batch occupancy checks by two
   independent checkers, event-order checks, an independent
   recomputation of the unused-capacity integral);
4. **oracle** — the same cells one by one on
   ``tests.oracles.CheckedOracleSimulator``: the reference engine (every
   index query answered by a from-scratch ``ReferencePlacementIndex``
   and its scalar scoring walk) under the same harness.

The harness attaches from the test package, so the checked legs run
in-process, cell by cell; the pooled leg runs the production engine as
shipped.  All four must agree: identical ``SweepResult`` rows,
byte-identical per-cell NDJSON traces between the serial and pooled
runs, and no decision divergence between the serial sweep and either
checked leg.  On any disagreement the first divergent decision (cell,
stream index, differing fields, both records) is written to
``first_divergence.json`` in the output directory — CI uploads it as the
failure artifact — and the run exits non-zero; an oracle violation
exits non-zero with its message.

Usage::

    PYTHONPATH=src python benchmarks/perf/nightly_invariants.py \
        [--out-dir nightly-invariants] [--jobs 80] [--seeds 2]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
for path in (REPO_ROOT / "src", REPO_ROOT):  # repro, and the tests.oracles references
    if str(path) not in sys.path:  # direct-script convenience
        sys.path.insert(0, str(path))

from repro.core.config import SimulationConfig
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import SweepPoint, SweepResult, run_sweep
from repro.failures.synthetic import BurstFailureModel
from repro.obs.aggregate import SweepObsCollector, trace_filename
from repro.obs.tools import diff_traces
from repro.obs.trace import read_trace, write_trace
from tests.oracles import CheckedOracleSimulator, CheckedSimulator

CHECKED_LEGS = {"checked": CheckedSimulator, "oracle": CheckedOracleSimulator}


def build_grid(jobs: int) -> list[SweepPoint]:
    config = SimulationConfig(trace=True)
    return [
        SweepPoint("sdsc", jobs, 1.0, 8, "balancing", 0.1, config=config),
        SweepPoint("nasa", jobs, 1.0, 16, "balancing", 0.5, config=config),
        SweepPoint("llnl", jobs, 1.2, 4, "tiebreak", 0.3, config=config),
        SweepPoint("sdsc", jobs, 1.0, 0, "krevat", 0.0, config=config),
    ]


def run_leg(points, seeds, workers, trace_dir, **kwargs):
    collector = SweepObsCollector(trace_dir=trace_dir)
    results = run_sweep(
        points, seeds, workers=workers, collector=collector, **kwargs
    )
    sweep_mod._result_cache.clear()  # every leg recomputes from scratch
    return results, sorted(Path(trace_dir).iterdir())


def run_checked_leg(engine, points, seeds, trace_dir: Path):
    """The sweep's own cells, each on ``engine``, serially."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    model = BurstFailureModel()
    results = []
    for i, point in enumerate(points):
        reports = []
        for si, seed in enumerate(seeds):
            sim = engine(*sweep_mod.cell_inputs(point, seed, model, with_obs=True))
            reports.append(sim.run())
            write_trace(sim.recorder.records, trace_dir / trace_filename(i, si))
        results.append(SweepResult.from_reports(point, reports))
    return results, sorted(trace_dir.iterdir())


def fail(out_dir: Path, payload: dict) -> int:
    artifact = out_dir / "first_divergence.json"
    artifact.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"FAIL: {payload['what']} — details in {artifact}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("nightly-invariants"))
    parser.add_argument("--jobs", type=int, default=80)
    parser.add_argument("--seeds", type=int, default=2)
    args = parser.parse_args(argv)
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = tuple(range(args.seeds))

    points = build_grid(args.jobs)
    n_cells = len(points) * len(seeds)
    print(f"nightly invariant-oracle sweep: {n_cells} cells x 4 legs")

    serial, serial_files = run_leg(points, seeds, 1, out_dir / "serial")
    pooled, pooled_files = run_leg(
        points, seeds, 2, out_dir / "workers2", min_cells_per_worker=0
    )

    # 1. Pooled execution is bitwise the serial run.
    if serial != pooled:
        return fail(out_dir, {
            "what": "serial vs workers=2 sweep results differ",
            "serial": [dataclasses.asdict(r) for r in serial],
            "workers2": [dataclasses.asdict(r) for r in pooled],
        })
    for a, b in zip(serial_files, pooled_files):
        if a.name != b.name or a.read_bytes() != b.read_bytes():
            divergence = diff_traces(read_trace(a), read_trace(b))
            return fail(out_dir, {
                "what": f"serial vs workers=2 trace differs: {a.name}",
                "divergence": dataclasses.asdict(divergence) if divergence else None,
                "describe": divergence.describe() if divergence else
                    "decision streams identical; header/metadata differ",
            })
    print(f"OK: workers=2 identical to serial ({len(serial_files)} traces)")

    # 2. Each checked leg — the production engine, then the rebuild
    #    oracle, both under the runtime oracles — matches the serial
    #    sweep decision for decision.
    for leg, engine in CHECKED_LEGS.items():
        checked, checked_files = run_checked_leg(engine, points, seeds, out_dir / leg)
        for i, (fast_res, checked_res) in enumerate(zip(serial, checked)):
            if fast_res != checked_res:
                return fail(out_dir, {
                    "what": f"point {i}: production vs {leg} sweep metrics differ",
                    "fast": dataclasses.asdict(fast_res),
                    leg: dataclasses.asdict(checked_res),
                })
        for a, b in zip(serial_files, checked_files):
            divergence = diff_traces(read_trace(a), read_trace(b))
            if divergence is not None:
                return fail(out_dir, {
                    "what": f"production vs {leg} decision divergence: {a.name}",
                    "divergence": dataclasses.asdict(divergence),
                    "describe": divergence.describe(),
                })
        print(f"OK: {leg} leg ({engine.__name__}) matches the serial sweep "
              f"({len(checked_files)} traces, every oracle clean)")
    print("nightly invariant-oracle sweep: all green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
