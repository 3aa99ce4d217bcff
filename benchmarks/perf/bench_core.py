"""Core perf-trajectory harness: microbenches + serial-vs-parallel sweep.

Times the scheduler's hot kernels (PlacementIndex build, MFP queries,
candidate scoring on the production index, the shadow-time engine),
the three partition finders, and one end-to-end sweep executed serially
and in parallel.  Results land in ``BENCH_core.json`` at the repo root so subsequent PRs
have a machine-readable perf trajectory to regress against.

Record schema (one object per benchmark)::

    {"bench": str, "wall_s": float, "cells_per_s": float,
     "workers": int, "git_rev": str}

``git_rev`` is the checkout's short ``HEAD``, suffixed ``+dirty`` when
tracked files differ from it: the records then time uncommitted work.
Outside a git checkout (a ``git archive`` export) it is ``unknown``.

``cells_per_s`` is operations/second for microbenches and simulation
cells/second for the sweep benches; ``wall_s`` is the best-of-repeats
wall time of one measured batch.  Sweep records carry an extra
``mode`` key recording how the executor actually ran the cells
(``serial``/``parallel``/``warm``/``queue``), and their ``workers``
field is the executor's *actual* ``stats.workers_used`` — 1 whenever
the auto-serial cutover refused the pool — never the requested count.
Index benches carry an ``index`` key naming the class they time: the
production ``PlacementIndex`` or the test-only ``ReferencePlacementIndex``.
The records are a trajectory, not gates: speed is gated end to end by
the ``benchmarks/e2e`` workloads.
``trace_to_file`` carries a ``ratio`` key: its wall time over
``trace_off``'s, the same simulation untraced, measured in alternation —
what the decision trace costs (ROADMAP aim 4).
``job_log_pipeline`` (first, so the process peak is its own) carries
jobs/s per stage (generate, ``write_swf``, ``read_swf``,
``fit_to_machine``) of one generated NASA log, 100k jobs (10k at smoke
scale), the rate of the one-pass synthetic ``job_log`` that draws,
scales (``c = 0.5``) and fits the same log as ``job_log_jobs_per_s``,
and ``vm_hwm_mb``, this process's ``VmHWM`` after it.
``serve_request_stages`` splits the in-process request of the serve
benches' overload fixture into ``decode_us``, ``handle_us`` and
``encode_us`` per request beside ``request_us``, the whole loop: the
serve layer's time budget (ROADMAP aim 1).
The last record, ``src_loc``, is not a timing: its ``lines`` key counts
the non-blank, non-comment lines under ``src/repro`` so the ledger
tracks code size next to speed (ROADMAP aim 2).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_core.py [--scale smoke|default]
                                                        [--out PATH] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
for path in (REPO_ROOT / "src", REPO_ROOT):  # repro, and the tests.oracles references
    if str(path) not in sys.path:  # direct-script convenience
        sys.path.insert(0, str(path))

import numpy as np

from repro.allocation.mfp import IndexCache, PlacementIndex
from repro.allocation import FastFinder, NaiveFinder, POPFinder, PartitionFinder
from repro.core.backfill import ShadowTimeEngine
from repro.core.jobstate import JobState
from repro.experiments import parallel as parallel_mod
from repro.experiments import pool as pool_mod
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import SweepPoint, run_sweep_outcome
from repro.failures.synthetic import generate_failures
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.torus import Torus
from repro.workloads.job import Job
from tests.oracles import ReferencePlacementIndex

D = BGL_SUPERNODE_DIMS

#: Head sizes the shadow benches query per pass (mixed cheap/expensive).
SHADOW_SIZES = (8, 16, 32, 64, 128)
#: Sizes the finder benches enumerate per pass.
FINDER_SIZES = (4, 8, 16, 32)
#: Sizes the candidate-scoring benches score per pass.
SCORING_SIZES = (4, 8, 16, 32)
#: Sizes the index-maintenance benches query after every mutation.
INDEX_UPDATE_SIZES = (4, 8, 16)
#: The index class each index bench times, recorded as its ``index`` key.
INDEX_CLASS = {
    "placement_index_build": PlacementIndex,
    "mfp_excluding": ReferencePlacementIndex,
    "scored_candidates_batch": PlacementIndex,
    "choose_partition_forced": PlacementIndex,
    "choose_partition_scored": PlacementIndex,
    "index_incremental_update": PlacementIndex,
    "index_rebuild_oracle": ReferencePlacementIndex,
    "index_apply_refresh": PlacementIndex,
}


@dataclass(frozen=True)
class Scale:
    """Iteration counts for one harness scale."""

    micro_number: int       # ops per measured batch
    repeats: int            # batches; best wall time wins
    sweep_points: int       # points in the end-to-end sweep grid
    sweep_seeds: int
    sweep_jobs: int         # jobs per simulation cell
    master_failures: int    # master failure-log size for the sweep
    log_jobs: int           # jobs in the generated log of job_log_pipeline


SCALES = {
    "smoke": Scale(
        micro_number=30,
        repeats=2,
        sweep_points=4,
        # Two seeds keep even the smoke grid (8 cells) above the bench's
        # lowered cutover, so sweep_parallel really runs mode=warm.
        sweep_seeds=2,
        sweep_jobs=25,
        master_failures=64,
        log_jobs=10_000,
    ),
    "default": Scale(
        micro_number=200,
        repeats=3,
        sweep_points=8,
        sweep_seeds=2,
        sweep_jobs=120,
        master_failures=1024,
        log_jobs=100_000,
    ),
}


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def tree_dirty() -> bool | None:
    """Whether tracked files differ from ``HEAD`` (``git describe --dirty``);
    ``None`` outside a git checkout, where nothing says."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(status.strip())


def rev_stamp() -> str:
    """The records' ``git_rev``: ``HEAD``, ``+dirty`` when tracked files
    differ from it, ``unknown`` outside a git checkout."""
    dirty = tree_dirty()
    if dirty is None:
        return "unknown"
    return git_rev() + ("+dirty" if dirty else "")


def src_loc() -> int:
    """Non-blank, non-comment lines of Python under ``src/repro``."""
    return sum(
        1
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )


def best_of(fn, repeats: int) -> float:
    """Best wall time of ``repeats`` runs of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# fixtures shared by the microbenches
# ----------------------------------------------------------------------

def loaded_torus(fill: float = 0.5, seed: int = 0) -> Torus:
    torus = Torus(D)
    rng = np.random.default_rng(seed)
    job_id = 0
    # Allocate real partitions (shadow replay needs the allocation map).
    from tests.oracles.random_state import random_partition

    while torus.free_count > (1.0 - fill) * D.volume:
        part = random_partition(D, rng)
        if torus.is_free(part):
            torus.allocate(job_id, part)
            job_id += 1
    return torus


def running_states(torus: Torus) -> list[JobState]:
    states = []
    for i, (job_id, partition) in enumerate(torus.allocations()):
        js = JobState(Job(job_id, 0.0, partition.size, 100.0, 100.0))
        js.dispatch(0.0, 100.0, 50.0 + 25.0 * i)
        states.append(js)
    return states


# ----------------------------------------------------------------------
# benchmark bodies
# ----------------------------------------------------------------------

def bench_placement_index_build(scale: Scale):
    """A production index built on a half-loaded torus: a zero tensor
    plus one sync that patches every allocation in."""
    torus = loaded_torus()
    n = scale.micro_number * 10

    def run():
        for _ in range(n):
            PlacementIndex(torus)

    return run, n


def bench_mfp_excluding(scale: Scale):
    """The reference's scalar early-exit walk, one candidate at a time."""
    torus = loaded_torus(0.3)
    index = ReferencePlacementIndex(torus)
    candidates = index.candidates(8)[:16]
    index.mfp_size()
    n = scale.micro_number * 10

    def run():
        for _ in range(n):
            for p in candidates:
                index.mfp_excluding(p)

    return run, n * len(candidates)


def bench_scored_candidates_batch(scale: Scale):
    """Full candidate scoring as production runs it: the bit-mask
    kernel of a :class:`PlacementIndex`.

    A fresh index per pass: scores are cached per size, so reusing one
    index would time the first iteration only.  The lightly loaded
    fixture maximises the candidate count — the post-drain machine
    states where scoring dominates a scheduler pass.
    """
    torus = loaded_torus(0.2, seed=3)
    n = scale.micro_number

    def run():
        for _ in range(n):
            index = PlacementIndex(torus)
            for size in SCORING_SIZES:
                index.batch_mfp_losses(size)

    return run, n * len(SCORING_SIZES)


def _bench_choose_partition(scale: Scale, torus: Torus, size: int):
    """One balancing (a=0.1) placement decision per op, as the engine
    asks it: a new prediction window per decision and per-state caches
    dropped first (``_refresh``, what a repair that patched leaves; a
    sync with nothing to patch keeps them)."""
    from repro.core.policies import BalancingPolicy
    from repro.prediction import BalancingPredictor

    policy = BalancingPolicy(
        BalancingPredictor(generate_failures(D, 1024, 1e6, seed=1), 0.1)
    )
    index = PlacementIndex(torus)
    state = JobState(Job(0, 0.0, size, 3600.0, 3600.0))
    n = scale.micro_number * 10

    def run():
        for i in range(n):
            now = 1000.0 * i
            policy.begin_pass(now)
            index._refresh()
            policy.choose_partition(index, state, now)

    return run, n


def bench_choose_partition_forced(scale: Scale):
    """A full-machine job on an empty torus: one candidate, so the
    decision runs neither the scoring kernel nor the predictor."""
    return _bench_choose_partition(scale, Torus(D), D.volume)


def bench_choose_partition_scored(scale: Scale):
    """A size-8 job on a half-loaded torus: a real choice, scored."""
    return _bench_choose_partition(scale, loaded_torus(0.5), 8)


def bench_shadow_time_engine(scale: Scale):
    torus = loaded_torus()
    running = running_states(torus)
    n = scale.micro_number
    # Wired as ``Simulator.__init__`` wires it: the engine replays on
    # the scheduler pass's own (already repaired) index.
    index_cache = IndexCache(torus)
    index_cache.get()

    def run():
        # Fresh engine per pass: measures the release replay + the
        # per-pass cache exactly as one scheduler pass would see them.
        for _ in range(n):
            engine = ShadowTimeEngine(torus, index_cache=index_cache)
            for size in SHADOW_SIZES:
                engine.shadow_time(running, size, 0.0)
                engine.shadow_time(running, size, 10.0)  # cache hit

    return run, n * 2 * len(SHADOW_SIZES)


def bench_migration_plan(scale: Scale):
    """Compaction planning on a fragmented machine: ~20 small running
    jobs scattered over the 4x4x8 torus, a 32-node head."""
    from repro.core.migration import plan_compaction
    from tests.oracles.random_state import random_partition

    torus = Torus(D)
    rng = np.random.default_rng(5)
    while torus.n_jobs < 20:
        part = random_partition(D, rng)
        if part.size <= 6 and torus.is_free(part):
            torus.allocate(torus.n_jobs, part)
    running = running_states(torus)
    head = JobState(Job(10_000, 0.0, 32, 100.0, 100.0))
    live = IndexCache(torus)
    if plan_compaction(live, running, head) is None:
        raise AssertionError("migration_plan fixture must be plannable")
    n = scale.micro_number

    def run():
        for _ in range(n):
            plan_compaction(live, running, head)

    return run, n


def bench_backfill_walk_deep_queue(scale: Scale):
    """One scheduler pass over a deep queue in which nothing fits: 120
    waiting jobs of 8 distinct sizes behind a head, 16 nodes free."""
    from repro.core.policies import KrevatPolicy
    from repro.core.simulator import Simulator
    from repro.failures.events import FailureLog
    from repro.workloads.job import Workload

    sizes = (24, 32, 40, 48, 64, 80, 96, 128)
    jobs = [Job(0, 0.0, 112, 1e6, 1e6)] + [
        Job(i, 1.0, sizes[i % len(sizes)], 100.0, 100.0) for i in range(1, 121)
    ]
    sim = Simulator(
        Workload("deep_queue", D.volume, tuple(jobs)),
        FailureLog(D.volume),
        KrevatPolicy(),
    )
    sim.pump(horizon=2.0)
    if len(sim.wait) != 120:
        raise AssertionError("backfill_walk_deep_queue fixture must keep 120 waiting")
    n = scale.micro_number * 10

    def run():
        for _ in range(n):
            sim._schedule_pass(2.0)

    return run, n


def _bench_finder(finder: PartitionFinder, scale: Scale):
    torus = loaded_torus(0.4, seed=2)
    n = scale.micro_number

    def run():
        for _ in range(n):
            for size in FINDER_SIZES:
                finder.find_free(torus, size)

    return run, n * len(FINDER_SIZES)


def _bench_index_update(scale: Scale, incremental: bool):
    """Index maintenance across a mutation churn, patch vs rebuild.

    Each step allocates or frees one box, brings the index up to date
    (a sync of one :class:`PlacementIndex`, or a from-scratch
    :class:`ReferencePlacementIndex` build), and then performs the
    queries one scheduler pass issues — ``mfp_size`` plus batch losses
    for a few sizes.  The query half is the point: a bare rebuild is
    cheap, but it discards every lazily derived grid and placement
    integral and scores with the scalar walk.
    """
    torus = loaded_torus(0.3, seed=5)
    part = PlacementIndex(torus).candidate_batch(8).partition(0)
    index = PlacementIndex(torus) if incremental else None
    n = scale.micro_number
    job_id = 10**6

    def run():
        for _ in range(n):
            for mutate in (
                lambda: torus.allocate(job_id, part),
                lambda: torus.release(job_id),
            ):
                mutate()
                if index is not None:
                    index.sync(torus)
                    idx = index
                else:
                    idx = ReferencePlacementIndex(torus)
                idx.mfp_size()
                for size in INDEX_UPDATE_SIZES:
                    idx.batch_mfp_losses(size)

    return run, 2 * n


def bench_index_apply_refresh(scale: Scale):
    """Index maintenance and nothing else: allocate a box, sync the
    index, free it, sync again — no query in between.

    ``index_incremental_update`` asks ``mfp_size`` and batch losses for
    several sizes after every mutation, so scoring owns that record;
    this one moves only with ``sync`` / ``_refresh``.
    """
    torus = loaded_torus(0.3)
    part = PlacementIndex(torus).candidate_batch(8).partition(0)
    index = PlacementIndex(torus)
    n = scale.micro_number * 10
    job_id = 10**6

    def run():
        for _ in range(n):
            torus.allocate(job_id, part)
            index.sync(torus)
            torus.release(job_id)
            index.sync(torus)

    return run, 2 * n


def bench_master_log_generate(scale: Scale):
    """One full-size (8 192-event) master failure log on the BG/L dims,
    as every sweep seed draws once per process (logs/s)."""

    def run():
        generate_failures(D, 8192, 1e6, seed=1)

    return run, 1


def vm_hwm_mib() -> float:
    """This process's peak resident set (``VmHWM``), MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    return int(kib) / 1024


def job_log_pipeline(scale: Scale) -> dict[str, float]:
    """One generated NASA log of ``scale.log_jobs`` jobs through generate
    -> ``write_swf`` -> ``read_swf`` -> ``fit_to_machine``, the path a
    replayed trace file takes (ROADMAP item 4), then the same log built
    by ``job_log`` at half load: seconds per stage."""
    import tempfile

    from repro.workloads import (
        fit_to_machine, generate_workload, job_log, read_swf, site_model, write_swf,
    )  # fmt: skip

    clock = time.perf_counter
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.swf"
        t0 = clock()
        log = generate_workload(site_model("nasa"), scale.log_jobs, seed=0)
        t1 = clock()
        write_swf(log, path)
        t2 = clock()
        log = read_swf(path)
        t3 = clock()
        log = fit_to_machine(log, D)
        t4 = clock()
    if len(log) != scale.log_jobs:
        raise AssertionError(f"{len(log)} of {scale.log_jobs} generated jobs read back")
    del log  # so ``vm_hwm_mb`` stays the peak of one log, not two
    t5 = clock()
    job_log("nasa", scale.log_jobs, 0, 0.5, D)
    t6 = clock()
    return {"generate": t1 - t0, "write_swf": t2 - t1, "read_swf": t3 - t2,
            "fit_to_machine": t4 - t3, "job_log": t6 - t5}  # fmt: skip


def trace_simulations(scale: Scale):
    """``(untraced, traced)`` runs of one 150-job SDSC balancing (a=0.1)
    simulation with one failure per job, ``n`` per pass: the same
    simulation with no recorder, and with the decision recorder
    streaming to a temp file (what ``bgl-sim run --trace`` does).  Their
    wall-time ratio is the decision trace's cost at this scale."""
    import tempfile

    from repro.api import SimulationSetup
    from repro.core.policies.registry import make_policy
    from repro.core.simulator import Simulator
    from repro.obs.trace import TraceRecorder

    setup = SimulationSetup(
        site="sdsc", n_jobs=150, n_failures=150, policy="balancing", parameter=0.1
    )
    workload = setup.build_workload()
    failures = setup.build_failures(workload)
    n = max(1, scale.micro_number // 10)

    def simulate(recorder=None):
        # A fresh policy per run (its predictor caches are per run),
        # seeded as ``SimulationSetup.build_inputs`` seeds it.
        policy = make_policy(
            setup.policy, failure_log=failures, parameter=setup.parameter,
            seed=setup.seed + 2,
        )
        Simulator(workload, failures, policy, setup.config, recorder=recorder).run()

    def untraced():
        for _ in range(n):
            simulate()

    def traced():
        for _ in range(n):
            with tempfile.TemporaryFile("w", encoding="utf-8") as sink:
                simulate(TraceRecorder(sink=sink))

    return untraced, traced, n


#: Serve-bench overload fixture: size-64 jobs against a 32-job engine
#: cap, logical clock.  Caps fill almost immediately, so the bench
#: measures the sustained submission path — admission bookkeeping plus
#: the bounded-queue reject fast path (the regime the e2e
#: ``serve_overload`` workload gates through the real socket).  Size-64
#: jobs keep the simulator passes cheap; a machine packed with tiny jobs
#: would time compaction planning instead of the service.
SERVE_BENCH_JOB_SIZE = 64
SERVE_BENCH_ENGINE_CAP = 32
SERVE_BENCH_TENANT_CAP = 64


def _serve_engine():
    from repro.api import SimulationSetup
    from repro.serve.engine import ServeEngine

    return ServeEngine.from_setup(
        SimulationSetup(site="sdsc", n_jobs=10, seed=0),
        clock="logical",
        tenant_cap=SERVE_BENCH_TENANT_CAP,
        engine_cap=SERVE_BENCH_ENGINE_CAP,
    )


def _serve_messages(n: int) -> list[dict]:
    return [
        {
            "op": "submit",
            "id": i,
            "size": SERVE_BENCH_JOB_SIZE,
            "runtime": 1e6,
        }
        for i in range(n)
    ]


def bench_serve_inproc(scale: Scale):
    """Submission throughput straight into the engine (no transport)."""
    from repro.serve.client import InprocClient

    n = scale.micro_number * 100
    messages = _serve_messages(n)

    def run():
        client = InprocClient(_serve_engine())
        client.request_many(messages)

    return run, n


def serve_request_stages(scale: Scale) -> tuple[dict[str, float], int]:
    """Microseconds per request of each stage of the in-process request
    path on the overload fixture: ``decode`` (``decode_line`` of the
    request line), ``handle`` (``ServeEngine.handle``) and ``encode``
    (the answer line), each timed over the whole batch, and ``request``,
    the three in one loop.  The stages should sum to ``request``; each
    figure is the best of ``scale.repeats``, every pass on a fresh
    engine, built outside the timed region."""
    from repro.serve.protocol import decode_line, encode

    n = scale.micro_number * 100
    lines = [encode(m).rstrip(b"\n") for m in _serve_messages(n)]
    best = dict.fromkeys(("decode", "handle", "encode", "request"), float("inf"))

    def timed(stage, fn):
        start = time.perf_counter()
        result = fn()
        best[stage] = min(best[stage], time.perf_counter() - start)
        return result

    for _ in range(scale.repeats):
        messages = timed("decode", lambda: [decode_line(line) for line in lines])
        handle = _serve_engine().handle
        answers = timed("handle", lambda: [handle(m) for m in messages])
        timed("encode", lambda: [encode(a) for a in answers])
        handle = _serve_engine().handle
        timed("request", lambda: [encode(handle(decode_line(line))) for line in lines])
    return {stage: wall * 1e6 / n for stage, wall in best.items()}, n


def bench_serve_tcp(scale: Scale):
    """Submission throughput over the asyncio TCP server, pipelined.

    Each pass stands up a fresh service thread, replays the overload
    fixture with 64 requests in flight, and shuts the server down; the
    spin-up is inside the timed region but is amortised over thousands
    of submissions.
    """
    import tempfile
    import threading

    from repro.serve.client import SocketClient
    from repro.serve.service import run_service

    n = scale.micro_number * 50
    messages = _serve_messages(n)
    depth = 64

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            ready = Path(tmp) / "ready"
            engine = _serve_engine()
            thread = threading.Thread(
                target=run_service,
                args=(engine,),
                kwargs={"ready_file": ready},
                daemon=True,
            )
            thread.start()
            while not ready.exists():
                time.sleep(0.005)
            with SocketClient.connect(ready.read_text().strip()) as client:
                for i in range(0, n, depth):
                    client.request_many(messages[i : i + depth])
                client.shutdown()
            thread.join(timeout=30.0)

    return run, n


def _sweep_grid(scale: Scale) -> tuple[list[SweepPoint], tuple[int, ...]]:
    points = [
        SweepPoint("sdsc", scale.sweep_jobs, 1.0, 2 * i, "balancing", 0.1)
        for i in range(scale.sweep_points)
    ]
    return points, tuple(range(scale.sweep_seeds))


def _clear_sweep_caches() -> None:
    sweep_mod._result_cache.clear()
    sweep_mod._workload_cache.clear()
    sweep_mod._master_log_cache.clear()


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------

def run_benchmarks(scale_name: str, workers: int, out_path: Path) -> list[dict]:
    scale = SCALES[scale_name]
    rev = rev_stamp()
    records: list[dict] = []

    def record(
        bench: str, wall_s: float, ops: int, n_workers: int = 1, **extra
    ) -> None:
        records.append(
            {
                "bench": bench,
                "wall_s": round(wall_s, 6),
                "cells_per_s": round(ops / wall_s, 3) if wall_s > 0 else None,
                "workers": n_workers,
                "git_rev": rev,
                **extra,
            }
        )
        suffix = "".join(f"  {k}={v}" for k, v in extra.items())
        print(
            f"  {bench:<24} wall={wall_s:9.4f}s  "
            f"rate={ops / wall_s if wall_s > 0 else float('inf'):12.1f}/s  "
            f"workers={n_workers}{suffix}"
        )

    print(f"bench_core [{scale_name}] rev={rev}")
    # First, so that this process's VmHWM is the job log's and not a
    # later bench's.
    stages = job_log_pipeline(scale)
    record(
        "job_log_pipeline", sum(stages.values()), scale.log_jobs, jobs=scale.log_jobs,
        **{f"{k}_jobs_per_s": round(scale.log_jobs / v) for k, v in stages.items()},
        vm_hwm_mb=round(vm_hwm_mib(), 1),
    )  # fmt: skip
    micro = [
        ("placement_index_build", bench_placement_index_build),
        ("mfp_excluding", bench_mfp_excluding),
        ("scored_candidates_batch", bench_scored_candidates_batch),
        ("choose_partition_forced", bench_choose_partition_forced),
        ("choose_partition_scored", bench_choose_partition_scored),
        ("shadow_time_engine", bench_shadow_time_engine),
        ("migration_plan", bench_migration_plan),
        ("backfill_walk_deep_queue", bench_backfill_walk_deep_queue),
        ("finder_naive", lambda s: _bench_finder(NaiveFinder(), s)),
        ("finder_pop", lambda s: _bench_finder(POPFinder(), s)),
        ("finder_fast", lambda s: _bench_finder(FastFinder(), s)),
        ("index_incremental_update", lambda s: _bench_index_update(s, True)),
        ("index_rebuild_oracle", lambda s: _bench_index_update(s, False)),
        ("index_apply_refresh", bench_index_apply_refresh),
        ("master_log_generate", bench_master_log_generate),
    ]
    for name, factory in micro:
        run, ops = factory(scale)
        index = INDEX_CLASS.get(name)
        extra = {"index": index.__name__} if index else {}
        record(name, best_of(run, scale.repeats), ops, **extra)

    # The decision trace's cost: one simulation untraced and traced to a
    # file, in alternation so host drift falls on both alike.
    untraced, traced, ops = trace_simulations(scale)
    off = on = float("inf")
    for _ in range(scale.repeats):
        off = min(off, best_of(untraced, 1))
        on = min(on, best_of(traced, 1))
    record("trace_off", off, ops)
    record("trace_to_file", on, ops, ratio=round(on / off, 3))

    # Service submission path: in-process and over the TCP transport,
    # both on the overload fixture.
    for name, factory in (
        ("serve_inproc_submit", bench_serve_inproc),
        ("serve_tcp_submit", bench_serve_tcp),
    ):
        run, ops = factory(scale)
        record(name, best_of(run, scale.repeats), ops)
    stages, ops = serve_request_stages(scale)
    record(
        "serve_request_stages", stages["request"] * ops / 1e6, ops,
        **{f"{stage}_us": round(us, 3) for stage, us in stages.items()},
    )  # fmt: skip

    # End-to-end sweep, serial then warm-pool parallel, equivalence-
    # checked.  ``workers`` in each record is the executor's actual
    # stats.workers_used (1 when the cutover refused the pool), and
    # ``mode`` is what really ran — never the requested configuration.
    points, seeds = _sweep_grid(scale)
    n_cells = len(points) * len(seeds)
    sweep_mod.MASTER_FAILURE_COUNT = scale.master_failures
    _clear_sweep_caches()
    start = time.perf_counter()
    serial_outcome = run_sweep_outcome(points, seeds, workers=1)
    record(
        "sweep_serial",
        time.perf_counter() - start,
        n_cells,
        n_workers=serial_outcome.stats.workers_used,
        mode=serial_outcome.stats.mode,
    )
    serial = serial_outcome.results

    # The parallel bench is the warm-pool large-grid fixture: the
    # cutover is lowered so the grid genuinely exercises the pool even
    # at smoke scale, and the
    # pool is pre-spawned so the record measures the steady state a
    # figure regeneration (many sweeps, one pool) actually sees.
    parallel_workers = max(2, workers)
    pool_mod.get_warm_pool().ensure(parallel_workers)
    _clear_sweep_caches()
    start = time.perf_counter()
    parallel_outcome = run_sweep_outcome(
        points, seeds, workers=parallel_workers, min_cells_per_worker=2
    )
    record(
        "sweep_parallel",
        time.perf_counter() - start,
        n_cells,
        n_workers=parallel_outcome.stats.workers_used,
        mode=parallel_outcome.stats.mode,
        chunk_size=parallel_outcome.stats.chunk_size,
        pool_reused=parallel_outcome.stats.pool_reused,
    )
    parallel = parallel_outcome.results
    pool_mod.shutdown_warm_pool()
    if serial != parallel:
        raise AssertionError(
            "serial and parallel sweeps disagree — equivalence broken"
        )
    print("  serial/parallel results identical: ok")

    records.append(
        {
            "bench": "src_loc",
            "wall_s": 0.0,
            "cells_per_s": None,
            "workers": 1,
            "git_rev": rev,
            "lines": src_loc(),
        }
    )
    print(f"  {'src_loc':<24} lines={records[-1]['lines']}")

    out_path.write_text(json.dumps(records, indent=2) + "\n")
    print(f"wrote {out_path} ({len(records)} benchmarks)")
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="output path (default: BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size for the parallel sweep bench (default: cores-1, min 2)",
    )
    args = parser.parse_args(argv)
    workers = (
        args.workers
        if args.workers is not None
        else parallel_mod.default_workers()
    )
    run_benchmarks(args.scale, workers, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
