"""Deterministic chaos injection for the sweep stack.

The paper's machines fail; this module makes *our own experiment
pipeline* fail on demand so the resilience machinery can be tested the
same way the schedulers are — deterministically.  A
:class:`ChaosConfig` (default: everything off) schedules four fault
kinds against named ``(point_index, seed_index)`` cells or seeded rates:

* **kill** — ``os._exit`` inside a pool worker, breaking the process
  pool exactly the way an OOM-kill or segfault does;
* **raise** — an in-cell :class:`~repro.errors.ChaosError`, modelling a
  poison cell (always) or a transient fault (first attempts only);
* **delay** — a sleep before the cell body, for timeout and
  interrupt-timing tests;
* **corrupt** — damage the cell's just-written checkpoint file, so
  resume paths must prove they verify before trusting.

Determinism contract: every decision is a pure function of the config,
the cell id and the attempt number (rates hash through SHA-256, never
``random``), so a chaos run is exactly reproducible regardless of
worker scheduling.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import ChaosError, ResilienceError
from repro.obs.log import get_logger
from repro.resilience.retry import _unit_hash

logger = get_logger(__name__)

#: Exit status used for injected worker kills; distinctive so pool
#: breakage caused by chaos is recognisable in test failures.
KILL_EXIT_CODE = 86

CellId = tuple[int, int]


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

    @property
    def enabled(self) -> bool:
        return bool(
            self.kill_cells
            or self.kill_rate
            or self.raise_cells
            or self.raise_rate
            or self.delay_cells
            or self.corrupt_cells
        )

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


def inject_pre_cell(
    chaos: ChaosConfig | None, cell: CellId, attempt: int, in_worker: bool
) -> None:
    """Apply scheduled faults before one cell execution.

    Kills only fire inside pool workers (``in_worker``): after the
    executor degrades to in-process execution a killer cell runs clean —
    which is precisely the degradation semantics the tests assert.
    """
    if chaos is None or not chaos.enabled:
        return
    delay = chaos.delay_for(cell)
    if delay > 0.0:
        time.sleep(delay)
    if chaos.should_kill(cell, attempt):
        if in_worker:
            os._exit(KILL_EXIT_CODE)
        logger.debug("chaos kill of cell %s skipped (in-process)", cell)
    if chaos.should_raise(cell, attempt):
        raise ChaosError(
            f"chaos: injected failure in cell {tuple(cell)} attempt {attempt}"
        )


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
