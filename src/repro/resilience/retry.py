"""Retry policy, per-cell timeout and quarantine for resilient sweeps.

The executors in :mod:`repro.experiments.parallel` treat a cell failure
as an event to schedule around, not a reason to abort: a cell lost to a
worker crash or an in-cell exception is resubmitted under an
exponential-backoff schedule, and a cell that keeps failing ("poison")
is quarantined into a structured ``quarantine.json`` so the rest of the
sweep still completes.

Everything here is deterministic by construction: backoff jitter is a
pure hash of ``(jitter_seed, cell, attempt)`` — two runs of the same
sweep produce the same schedule, and no wall clock or global RNG is
consulted — which keeps resilient sweeps as replayable as the
simulations they run.
"""

from __future__ import annotations

import hashlib
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.errors import CellTimeoutError, ResilienceError
from repro.records import atomic_write_json, from_plain, read_json, to_plain

#: Version of the quarantine.json document; bump on breaking change.
QUARANTINE_SCHEMA_VERSION = 1


def _unit_hash(*parts: Any) -> float:
    """Deterministic uniform in ``[0, 1)`` from hashable parts.

    ``hash()`` is salted per process, so this goes through SHA-256 of a
    stable string — identical across processes, platforms and runs.
    """
    text = ":".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the sweep executors respond to cell failures.

    Parameters
    ----------
    max_attempts:
        Total executions allowed per cell (first try included) before it
        is quarantined.
    base_delay_s / backoff_factor / max_delay_s:
        Delay before retry *k* (1-based) is
        ``min(base * factor**(k-1), max_delay)``, then jittered.
    jitter_fraction:
        Each delay is scaled by ``1 + jitter_fraction * u`` with ``u``
        a *deterministic* uniform in ``[-1, 1)`` seeded from
        ``(jitter_seed, cell, attempt)`` — decorrelates retry storms
        across cells without sacrificing replayability.
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
    base_delay_s: float = 0.1
    backoff_factor: float = 2.0
    max_delay_s: float = 30.0
    jitter_fraction: float = 0.1
    jitter_seed: int = 0
    cell_timeout_s: float | None = None
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ResilienceError("retry delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ResilienceError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ResilienceError("jitter_fraction must be in [0, 1)")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ResilienceError("cell_timeout_s must be positive")
        if self.max_pool_rebuilds < 0:
            raise ResilienceError("max_pool_rebuilds must be >= 0")

    # ------------------------------------------------------------------
    def backoff_s(self, cell: tuple[int, int], attempt: int) -> float:
        """Delay before resubmitting ``cell`` after its ``attempt``-th
        failure (1-based).  Pure function of its arguments."""
        if attempt < 1:
            raise ResilienceError("attempt is 1-based")
        raw = min(
            self.base_delay_s * self.backoff_factor ** (attempt - 1),
            self.max_delay_s,
        )
        if raw <= 0.0 or self.jitter_fraction == 0.0:
            return raw
        u = _unit_hash(self.jitter_seed, tuple(cell), attempt)
        return raw * (1.0 + self.jitter_fraction * (2.0 * u - 1.0))

    def schedule(self, cell: tuple[int, int]) -> list[float]:
        """The full backoff schedule one cell could experience."""
        return [self.backoff_s(cell, k) for k in range(1, self.max_attempts)]


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
