"""Retry policy, per-cell timeout and quarantine for resilient sweeps.

The executors in :mod:`repro.experiments.parallel` treat a cell failure
as an event to schedule around, not a reason to abort: a cell lost to a
worker crash or an in-cell exception is resubmitted after a fixed
doubling backoff, and a cell that keeps failing ("poison") is
quarantined into a structured ``quarantine.json`` so the rest of the
sweep still completes.

The backoff is a pure function of the attempt number — no wall clock,
no RNG, no per-cell term — so two runs of the same sweep wait the same
delays and resilient sweeps stay as replayable as the simulations they
run.
"""

from __future__ import annotations

import math
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import CellTimeoutError, ResilienceError
from repro.records import atomic_write_json, from_plain, read_json, to_plain

#: Version of the quarantine.json document; bump on breaking change.
QUARANTINE_SCHEMA_VERSION = 1

#: Delay before the first retry; each later one doubles it.
BACKOFF_BASE_S = 0.1
#: Longest delay between two attempts.
BACKOFF_MAX_S = 30.0


def backoff_s(attempt: int) -> float:
    """Delay after the ``attempt``-th failure (1-based):
    ``min(0.1 * 2**(attempt - 1), 30.0)`` seconds."""
    if attempt < 1:
        raise ResilienceError("attempt is 1-based")
    # The exponent is clamped: 2.0 ** 1024 overflows, and a user may
    # allow that many attempts.
    return min(BACKOFF_BASE_S * 2.0 ** min(attempt - 1, 64), BACKOFF_MAX_S)


@dataclass(frozen=True)
class RetryPolicy:
    """How the sweep executors respond to cell failures.

    Parameters
    ----------
    max_attempts:
        Total executions allowed per cell (first try included) before it
        is quarantined; the waits between them are :func:`backoff_s`.
    cell_timeout_s:
        Wall-clock budget per cell execution (``None`` = unlimited).
        Enforced with ``SIGALRM`` where available; a timed-out cell
        fails with :class:`~repro.errors.CellTimeoutError` and follows
        the ordinary retry/quarantine path.
    max_pool_rebuilds:
        Worker-pool breakages tolerated before the executor degrades to
        in-process execution for the remaining cells.
    """

    max_attempts: int = 3
    cell_timeout_s: float | None = None
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError("max_attempts must be >= 1")
        if self.cell_timeout_s is not None and not 0 < self.cell_timeout_s < math.inf:
            raise ResilienceError("cell_timeout_s must be positive and finite")
        if self.max_pool_rebuilds < 0:
            raise ResilienceError("max_pool_rebuilds must be >= 0")


@contextmanager
def cell_timeout(seconds: float | None) -> Iterator[None]:
    """Bound one cell execution to ``seconds`` of wall clock.

    Uses ``SIGALRM``/``setitimer``, so it only engages on the main
    thread of a POSIX process (true for pool workers and for in-process
    sweeps); elsewhere it is a documented no-op.  The previous handler
    and timer are always restored.
    """
    if (
        seconds is None
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_timeout(signum, frame):
        raise CellTimeoutError(f"cell exceeded its {seconds}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# quarantine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuarantineEntry:
    """One poison cell, with enough context to reproduce it."""

    point_index: int
    seed_index: int
    seed: int
    attempts: int
    error_type: str
    error: str
    key: str | None = None


@dataclass(frozen=True)
class _Document:
    """``quarantine.json`` as written."""

    schema: int
    entries: tuple[QuarantineEntry, ...]


class Quarantine:
    """Ordered collection of poison cells for one sweep run."""

    def __init__(self) -> None:
        self.entries: list[QuarantineEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: QuarantineEntry) -> None:
        self.entries.append(entry)

    def cells(self) -> set[tuple[int, int]]:
        return {(e.point_index, e.seed_index) for e in self.entries}

    def write(self, path: str | Path) -> Path:
        """Write ``quarantine.json`` atomically and durably (written
        even when empty, so tooling can rely on its existence after a
        checkpointed sweep)."""
        entries = sorted(self.entries, key=lambda e: (e.point_index, e.seed_index))
        document = _Document(QUARANTINE_SCHEMA_VERSION, tuple(entries))
        return atomic_write_json(path, to_plain(document))

    @classmethod
    def load(cls, path: str | Path) -> "Quarantine":
        """Inverse of :meth:`write`."""
        try:
            document = from_plain(_Document, read_json(path))
        except ValueError as exc:
            raise ResilienceError(f"{path}: not a quarantine document: {exc}") from exc
        if document.schema != QUARANTINE_SCHEMA_VERSION:
            raise ResilienceError(f"unsupported quarantine schema {document.schema!r}")
        quarantine = cls()
        quarantine.entries = list(document.entries)
        return quarantine
