"""Deterministic fault injection for the sweep stack.

The paper's machines fail; this package makes *our own experiment
pipeline* fail on demand so the resilience machinery can be tested the
same way the schedulers are — deterministically.  It lives beside the
tests, and the production sweep has no option, parameter or record
field that reaches it.  A :class:`ChaosConfig` (default: everything
off) schedules four fault kinds against named ``(point_index,
seed_index)`` cells or seeded rates:

* **kill** — ``os._exit`` inside a pool or queue worker, breaking the
  process pool exactly the way an OOM-kill or segfault does;
* **raise** — an in-cell :class:`ChaosError`, modelling a poison cell
  (always) or a transient fault (first attempts only);
* **delay** — a sleep before the cell body, inside its
  ``cell_timeout``, for timeout and interrupt-timing tests;
* **corrupt** — damage the cell's just-written checkpoint file, so
  resume paths must prove they verify before trusting.

:func:`injecting` runs a block under one config bound to one grid (a
:class:`ChaosPlan`).  Every backend's ``pool.run_cell`` builds a cell
through the module attribute ``repro.experiments.sweep.cell_inputs``
inside the cell's timeout, so the plan wraps that one function:

* in-process, and in warm-pool workers — the pool is shut down on
  entry and on exit, so its workers fork after the wrap and none
  outlives the block;
* in queue workers — ``repro.experiments.queue.spawn_worker_process``
  is rebound to ``python -m tests.chaos``, which installs the plan from
  its file and then runs the ``sweep-worker`` command.

The cell is found from ``(point, seed)`` in the plan's grid; the
attempt from one ``O_EXCL`` marker file per attempt in the plan's state
directory, so attempts count across processes.  Kills fire only in a
process other than the one that entered the block: after a sweep
degrades to in-process execution a killer cell runs clean.  Checkpoint
corruption wraps ``CellStore.put``, so it strikes whoever writes the
cell.

Determinism contract: every decision is a pure function of the config,
the cell id and the attempt number (rates hash through SHA-256, never
``random``), so a chaos run is exactly reproducible regardless of
worker scheduling.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import logging
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import repro
import repro.experiments.pool as pool_mod
import repro.experiments.queue as queue_mod
import repro.experiments.sweep as sweep_mod
from repro.errors import ReproError, ResilienceError
from repro.experiments.sweep import SweepPoint
from repro.records import atomic_write_json, from_plain, read_json, to_plain
from repro.resilience import CellStore

logger = logging.getLogger(__name__)

#: Exit status used for injected worker kills; distinctive so pool
#: breakage caused by chaos is recognisable in test failures.
KILL_EXIT_CODE = 86

#: The plan file :func:`injecting` writes in its state directory.
PLAN_FILE = "plan.json"

CellId = tuple[int, int]


def _unit_hash(*parts: Any) -> float:
    """Deterministic uniform in ``[0, 1)`` from hashable parts.

    ``hash()`` is salted per process, so this goes through SHA-256 of a
    stable string — identical across processes, platforms and runs.
    """
    text = ":".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class ChaosError(ReproError):
    """A failure injected by a :class:`ChaosConfig` ``raise`` fault."""


@dataclass(frozen=True)
class ChaosConfig:
    """What to break, where, and how often.  Everything defaults off.

    ``*_cells`` name explicit ``(point_index, seed_index)`` targets;
    ``kill_rate``/``raise_rate`` hit a seeded pseudo-random subset of
    first attempts instead.  ``kill_attempts``/``raise_attempts`` bound
    how many attempts of a targeted cell are hit — an attempt count at
    or above :attr:`RetryPolicy.max_attempts` makes a *poison* cell.
    """

    seed: int = 0
    kill_cells: tuple[CellId, ...] = ()
    kill_attempts: int = 1
    kill_rate: float = 0.0
    raise_cells: tuple[CellId, ...] = ()
    raise_attempts: int = 1
    raise_rate: float = 0.0
    delay_cells: tuple[CellId, ...] = ()
    delay_s: float = 0.01
    corrupt_cells: tuple[CellId, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_rate <= 1.0 or not 0.0 <= self.raise_rate <= 1.0:
            raise ResilienceError("chaos rates must be in [0, 1]")
        if self.kill_attempts < 1 or self.raise_attempts < 1:
            raise ResilienceError("chaos attempt counts must be >= 1")
        if self.delay_s < 0:
            raise ResilienceError("delay_s must be >= 0")

    # ------------------------------------------------------------------
    def should_kill(self, cell: CellId, attempt: int) -> bool:
        if tuple(cell) in self.kill_cells and attempt < self.kill_attempts:
            return True
        # Rates only strike first attempts, so retries always converge.
        return (
            self.kill_rate > 0.0
            and attempt == 0
            and _unit_hash(self.seed, "kill", tuple(cell)) < self.kill_rate
        )

    def should_raise(self, cell: CellId, attempt: int) -> bool:
        if tuple(cell) in self.raise_cells and attempt < self.raise_attempts:
            return True
        return (
            self.raise_rate > 0.0
            and attempt == 0
            and _unit_hash(self.seed, "raise", tuple(cell)) < self.raise_rate
        )

    def delay_for(self, cell: CellId) -> float:
        return self.delay_s if tuple(cell) in self.delay_cells else 0.0

    def should_corrupt(self, cell: CellId) -> bool:
        return tuple(cell) in self.corrupt_cells


@dataclass(frozen=True)
class ChaosPlan:
    """A config bound to one grid: what every process of a sweep under
    :func:`injecting` decides by, and what a queue worker loads from
    the plan file.  ``home_pid`` is the process that entered the block;
    kills never fire there."""

    config: ChaosConfig
    points: tuple[SweepPoint, ...]
    seeds: tuple[int, ...]
    state_dir: str
    home_pid: int

    def cell(self, point: SweepPoint, seed: int) -> CellId:
        """The ``(point_index, seed_index)`` of one cell of the grid."""
        return self.points.index(point), self.seeds.index(seed)

    def attempt(self, cell: CellId) -> int:
        """This execution's attempt number of ``cell``.

        One marker file per attempt, created with ``O_EXCL``: the first
        number whose marker this process creates is its own, so
        concurrent processes never share one.
        """
        n = 0
        while True:
            marker = Path(self.state_dir, f"attempt-{cell[0]}-{cell[1]}-{n}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                n += 1
            else:
                return n


def load_plan(path: str | Path) -> ChaosPlan:
    """The plan :func:`injecting` filed at ``path``."""
    return from_plain(ChaosPlan, read_json(path))


def corrupt_checkpoint(path: os.PathLike | str, chaos: ChaosConfig, cell: CellId) -> None:
    """Deterministically damage a checkpoint file in place.

    Half the cells (by seeded hash) get truncated — the crash-mid-write
    shape — and half get a byte overwritten — the bit-rot shape.  Both
    must be detected by :meth:`CellStore.get` and recomputed.
    """
    data = bytearray(open(path, "rb").read())
    u = _unit_hash(chaos.seed, "corrupt", tuple(cell))
    if not data:
        return
    if u < 0.5:
        data = data[: max(1, len(data) // 2)]
    else:
        # Damage the trailing checksum region: always either a checksum
        # mismatch or a JSON syntax error, never silently benign.
        offset = len(data) - 1 - (int(u * 1000) % min(40, len(data)))
        data[offset] ^= 0x5A
    with open(path, "wb") as handle:
        handle.write(data)
    logger.debug("chaos corrupted checkpoint for cell %s", cell)


def install(plan: ChaosPlan) -> Callable[[], None]:
    """Wrap ``sweep.cell_inputs`` and ``CellStore.put`` in this process
    with ``plan``'s faults; returns the function that unwraps them."""
    real_inputs, real_put = sweep_mod.cell_inputs, CellStore.put
    config = plan.config

    @functools.wraps(real_inputs)
    def cell_inputs(point, seed, *args, **kwargs):
        cell = plan.cell(point, seed)
        attempt = plan.attempt(cell)
        delay = config.delay_for(cell)
        if delay > 0.0:
            time.sleep(delay)
        if config.should_kill(cell, attempt):
            if os.getpid() != plan.home_pid:
                os._exit(KILL_EXIT_CODE)
            logger.debug("chaos kill of cell %s skipped (in-process)", cell)
        if config.should_raise(cell, attempt):
            raise ChaosError(f"chaos: injected failure in cell {cell} attempt {attempt}")
        return real_inputs(point, seed, *args, **kwargs)

    @functools.wraps(real_put)
    def put(store, key, report, *, point_index=None, seed=None):
        path = real_put(store, key, report, point_index=point_index, seed=seed)
        cell = (point_index, plan.seeds.index(seed))
        if config.should_corrupt(cell):
            corrupt_checkpoint(path, config, cell)
        return path

    sweep_mod.cell_inputs, CellStore.put = cell_inputs, put

    def uninstall() -> None:
        sweep_mod.cell_inputs, CellStore.put = real_inputs, real_put

    return uninstall


def spawn_worker_process(
    plan_file: str | Path, queue_dir: str | Path, lease_s: float
) -> subprocess.Popen:
    """``queue.spawn_worker_process`` under a plan: the same
    ``sweep-worker`` command, run by ``python -m tests.chaos`` once it
    has installed the plan."""
    cmd = [
        sys.executable, "-m", "tests.chaos", str(plan_file),
        "--queue-dir", str(queue_dir), "--lease-s", str(lease_s),
    ]
    env = dict(os.environ)
    roots = [
        str(Path(repro.__file__).resolve().parents[1]),  # repro
        str(Path(__file__).resolve().parents[2]),  # tests
    ]
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*roots, env.get("PYTHONPATH")])
    )
    return subprocess.Popen(cmd, env=env)


@contextlib.contextmanager
def injecting(
    config: ChaosConfig,
    points: Sequence[SweepPoint],
    seeds: Sequence[int],
    state_dir: str | Path,
) -> Iterator[ChaosPlan]:
    """Run the block's sweeps of ``points`` x ``seeds`` under ``config``.

    ``state_dir`` (created if missing) holds the plan file and the
    attempt markers; a fresh one per block starts every cell at
    attempt 0.
    """
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    plan = ChaosPlan(config, tuple(points), tuple(seeds), str(state), os.getpid())
    plan_file = state / PLAN_FILE
    atomic_write_json(plan_file, to_plain(plan))
    real_spawn = queue_mod.spawn_worker_process
    pool_mod.shutdown_warm_pool()
    uninstall = install(plan)
    queue_mod.spawn_worker_process = functools.partial(spawn_worker_process, plan_file)
    try:
        yield plan
    finally:
        queue_mod.spawn_worker_process = real_spawn
        uninstall()
        pool_mod.shutdown_warm_pool()
