"""Nightly invariant-oracle sweep for the simulator core.

Runs one real sweep three ways, every cell with ``check_invariants`` on
(per-batch conservation checks against the torus's independent
occupancy oracles) and decision tracing enabled:

1. **serial** — the production engine, in-process;
2. **workers=2** — the same cells through the process pool (cutover
   pinned off so the pool genuinely runs);
3. **oracle** — the same cells on the reference engine a test builds,
   ``repro.testing.oracle_simulator``: every index query answered by a
   from-scratch ``ReferencePlacementIndex`` and its scalar scoring walk.

All three must agree: identical ``SweepResult`` rows, byte-identical
per-cell NDJSON traces between the serial and pooled runs, and no
decision divergence between production and oracle.  On any disagreement the
first divergent decision (cell, stream index, differing fields, both
records) is written to ``first_divergence.json`` in the output
directory — CI uploads it as the failure artifact — and the run exits
non-zero.

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
if str(REPO_ROOT / "src") not in sys.path:  # direct-script convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import SimulationConfig
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import SweepPoint, SweepResult, run_sweep
from repro.failures.synthetic import BurstFailureModel
from repro.obs.aggregate import SweepObsCollector, trace_filename
from repro.obs.tools import diff_traces
from repro.obs.trace import read_trace, write_trace
from repro.testing import oracle_simulator


def build_grid(jobs: int) -> list[SweepPoint]:
    config = SimulationConfig(check_invariants=True, trace=True)
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


def run_oracle_leg(points, seeds, trace_dir: Path):
    """The sweep's own cells, each on the reference engine."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    model = BurstFailureModel()
    results = []
    for i, point in enumerate(points):
        reports = []
        for si, seed in enumerate(seeds):
            sim = oracle_simulator(
                *sweep_mod.cell_inputs(point, seed, model, with_obs=True)
            )
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
    print(f"nightly invariant-oracle sweep: {n_cells} cells x 3 legs")

    serial, serial_files = run_leg(points, seeds, 1, out_dir / "serial")
    pooled, pooled_files = run_leg(
        points, seeds, 2, out_dir / "workers2", min_cells_per_worker=0
    )
    oracle, oracle_files = run_oracle_leg(points, seeds, out_dir / "oracle")

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

    # 2. The production engine matches the rebuild oracle decision for
    #    decision.
    for i, (fast_res, oracle_res) in enumerate(zip(serial, oracle)):
        if fast_res != oracle_res:
            return fail(out_dir, {
                "what": f"point {i}: production vs oracle sweep metrics differ",
                "fast": dataclasses.asdict(fast_res),
                "oracle": dataclasses.asdict(oracle_res),
            })
    for a, b in zip(serial_files, oracle_files):
        divergence = diff_traces(read_trace(a), read_trace(b))
        if divergence is not None:
            return fail(out_dir, {
                "what": f"production vs oracle decision divergence: {a.name}",
                "divergence": dataclasses.asdict(divergence),
                "describe": divergence.describe(),
            })
    print(f"OK: production engine matches rebuild oracle ({len(oracle_files)} traces)")
    print("nightly invariant-oracle sweep: all green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
