"""End-to-end resilience smoke: chaos, checkpoint, resume, verify.

The CI ``resilience-smoke`` job runs this script to rehearse the full
failure story on a small real sweep:

1. compute a clean **serial reference** (no resilience machinery);
2. run the same grid under **forced chaos** — one cell kills its pool
   worker on its first attempt, one poison cell raises on *every*
   attempt — with a checkpoint directory, so the run finishes partial
   (poison cell quarantined, everything else durably checkpointed);
3. **resume** with chaos off against the same directory, which restores
   every checkpointed cell and computes only what the quarantine cost;
4. assert the resumed results are **bitwise identical** (exact float
   equality) to the serial reference, that checkpoints were actually
   hit, and that the quarantine document named exactly the poison cell.

Exit code 0 means the whole chain held.  ``quarantine.json`` is left in
the checkpoint directory for CI to upload as an artifact.

The faults come from the test suite's fault layer (``tests.chaos``):
the production sweep has no chaos option, so step 2 runs inside
``tests.chaos.injecting``, which wraps the cell entry points of this
process, of the warm-pool workers it forks and of the queue workers it
spawns.

``--queue-dir DIR`` rehearses the same chain, same ``ChaosConfig``,
through the directory-queue backend (two spawned ``sweep-worker``
processes, a short lease so the killed worker's claim is noticed fast);
the queue directory is the checkpoint directory.

Usage::

    python benchmarks/perf/resilience_smoke.py [--checkpoint-dir DIR | --queue-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
for path in (REPO_ROOT / "src", REPO_ROOT):  # repro, and the tests.chaos fault layer
    if str(path) not in sys.path:  # direct-script convenience
        sys.path.insert(0, str(path))

import repro.experiments.sweep as sweep_mod
from repro.experiments.sweep import SweepPoint, run_sweep, run_sweep_outcome
from repro.resilience import RetryPolicy
from tests.chaos import ChaosConfig, injecting

#: Small enough for CI seconds, large enough for two policies x two
#: points x two seeds of real simulation.
POINTS = [
    SweepPoint("nasa", 40, 1.0, 4, "krevat", 0.0),
    SweepPoint("nasa", 40, 1.0, 4, "balancing", 0.3),
    SweepPoint("sdsc", 30, 1.0, 2, "tiebreak", 0.5),
]
SEEDS = (0, 1)

#: The cell that kills its worker once (transient crash) and the cell
#: that raises on every attempt (poison).
KILL_CELL = (0, 0)
POISON_CELL = (1, 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = parser.add_mutually_exclusive_group()
    where.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint directory (default: a fresh temp dir)",
    )
    where.add_argument(
        "--queue-dir",
        default=None,
        help="run the chain through the directory-queue backend rooted here",
    )
    args = parser.parse_args(argv)
    checkpoint_dir = Path(
        args.queue_dir
        or args.checkpoint_dir
        or tempfile.mkdtemp(prefix="resilience-smoke-")
    )
    if args.queue_dir:
        backend = dict(queue_dir=checkpoint_dir, lease_s=2.0)
    else:
        # The grid is below the parallel cutover; kills only fire in a
        # pool worker, so force the pool.
        backend = dict(checkpoint_dir=checkpoint_dir, min_cells_per_worker=0)
    policy = RetryPolicy(max_attempts=3)

    print(f"[1/3] serial reference: {len(POINTS)} points x {len(SEEDS)} seeds")
    reference = run_sweep(POINTS, SEEDS, workers=1)
    sweep_mod._result_cache.clear()

    chaos = ChaosConfig(
        kill_cells=(KILL_CELL,),
        kill_attempts=1,
        raise_cells=(POISON_CELL,),
        raise_attempts=99,
    )
    print(
        f"[2/3] chaos run: kill {KILL_CELL} (transient), "
        f"poison {POISON_CELL}; checkpoints -> {checkpoint_dir}"
    )
    with tempfile.TemporaryDirectory(prefix="resilience-smoke-chaos-") as state:
        with injecting(chaos, POINTS, SEEDS, state):
            chaotic = run_sweep_outcome(
                POINTS, SEEDS, workers=2, retry=policy, **backend
            )
    print(f"      {chaotic.stats.summary_line()}")
    quarantined = {(e.point_index, e.seed_index) for e in chaotic.quarantined}
    if quarantined != {POISON_CELL}:
        print(f"FAIL: expected quarantine {{{POISON_CELL}}}, got {quarantined}")
        return 1
    if chaotic.complete:
        print("FAIL: chaos run reported complete despite a poison cell")
        return 1
    if not (checkpoint_dir / "quarantine.json").is_file():
        print("FAIL: quarantine.json was not written")
        return 1

    sweep_mod._result_cache.clear()
    print("[3/3] resume with chaos off against the same checkpoint dir")
    resumed = run_sweep_outcome(POINTS, SEEDS, workers=2, retry=policy, **backend)
    print(f"      {resumed.stats.summary_line()}")

    n_cells = len(POINTS) * len(SEEDS)
    failures = []
    if resumed.results != reference:
        failures.append(
            "resumed results are not bitwise-identical to the serial reference"
        )
    if not resumed.complete:
        failures.append("resumed run did not complete")
    if resumed.stats.checkpoint_hits != n_cells - 1:
        failures.append(
            f"expected {n_cells - 1} checkpoint hits, "
            f"got {resumed.stats.checkpoint_hits}"
        )
    if resumed.stats.cells_computed != 1:
        failures.append(
            f"expected exactly the quarantined cell recomputed, "
            f"got {resumed.stats.cells_computed}"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(
        "OK: killed/poisoned sweep resumed bitwise-identical to serial "
        f"({n_cells} cells, {resumed.stats.checkpoint_hits} restored)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
