"""Result types for resilient sweep execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.resilience.retry import QuarantineEntry

if TYPE_CHECKING:  # pragma: no cover - type-only cycle
    from repro.experiments.sweep import SweepResult


@dataclass
class SweepRunStats:
    """What the resilience machinery did during one sweep.

    Checkpoint counters mirror the :class:`CellStore` instance counters;
    retry counters separate *in-cell failures* (the cell itself raised)
    from *resubmits* (the cell was lost when its worker pool broke).
    ``mode`` records how the cells were actually run — ``"warm"``
    (the persistent warm pool), ``"queue"`` (the directory-backed
    multi-host queue), ``"serial"`` (in-process, whether by request,
    platform limits, or the small-sweep parallel cutover) or
    ``"cached"`` (every cell restored/memoised, nothing executed).  A
    warm or queue run whose workers kept dying finishes in-process with
    ``degraded`` set; for the queue a resubmit is a cell lost with the
    whole local fleet and a retry covers an expired lease as well as an
    in-cell failure.
    ``workers_used`` is the worker count the chosen mode employed (1
    for serial), ``chunk_size`` the cells-per-task of the fan-out (1
    whenever a retry policy is in force, so failures stay attributable)
    and ``pool_reused`` whether the warm pool was already up — benches
    record them so a run's regime is auditable.
    """

    checkpoint_hits: int = 0
    checkpoint_misses: int = 0
    checkpoint_corrupt: int = 0
    cells_computed: int = 0
    retries: int = 0
    resubmits: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    quarantined: int = 0
    mode: str = ""
    workers_used: int = 1
    chunk_size: int = 0
    pool_reused: bool = False

    def summary_line(self) -> str:
        parts = [
            f"mode={self.mode or 'unknown'}",
            f"workers={self.workers_used}",
            f"cells computed={self.cells_computed}",
            f"checkpoint hits={self.checkpoint_hits}"
            f" misses={self.checkpoint_misses}"
            f" corrupt={self.checkpoint_corrupt}",
            f"retries={self.retries} resubmits={self.resubmits}",
            f"pool rebuilds={self.pool_rebuilds}",
        ]
        if self.degraded:
            parts.append("degraded to in-process")
        if self.quarantined:
            parts.append(f"quarantined={self.quarantined}")
        return "; ".join(parts)


@dataclass(frozen=True)
class ResilientSweepOutcome:
    """Everything a resilient sweep produced.

    ``results`` aligns with the input points; an entry is ``None`` only
    when *every* seed of that point was quarantined.  A point with some
    quarantined seeds averages over the surviving ones (its
    ``n_seeds`` says how many).
    """

    results: "list[SweepResult | None]"
    quarantined: tuple[QuarantineEntry, ...] = ()
    stats: SweepRunStats = field(default_factory=SweepRunStats)

    @property
    def complete(self) -> bool:
        """True when no cell was lost to quarantine."""
        return not self.quarantined and all(r is not None for r in self.results)


def incomplete_points(
    outcome: ResilientSweepOutcome, seeds: Sequence[int]
) -> list[int]:
    """Indices of points missing at least one seed's cell."""
    short = {
        i
        for i, r in enumerate(outcome.results)
        if r is None or r.n_seeds < len(seeds)
    }
    return sorted(short)
