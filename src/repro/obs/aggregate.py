"""Cross-process aggregation of sweep observability.

A parallel sweep runs its ``(point, seed)`` cells in worker processes;
each worker hands back the cell's metrics registry itself (it pickles
over the fork pool) and, when tracing is enabled, its buffered trace
lines — already encoded NDJSON — in a :class:`CellObs` payload that
rides back to the parent next to the cell's report; the parent merges
the registry and writes the lines verbatim.

The parent buffers payloads in a :class:`SweepObsCollector` as they
arrive — in whatever order cells complete — and merges them in
:meth:`~SweepObsCollector.finalize` in sorted ``(point, seed)`` order,
so ``workers=N`` produces the same aggregated metrics and the same
per-cell trace files as ``workers=1`` (wall-clock timers excepted; they
are segregated by :meth:`MetricsRegistry.to_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ExperimentError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import write_lines


@dataclass(frozen=True)
class CellObs:
    """Observability payload of one simulation cell (picklable)."""

    #: The cell simulator's registry, or None when the cell ran
    #: without profiling.
    metrics: MetricsRegistry | None
    #: The cell recorder's buffered trace lines (newline-terminated
    #: NDJSON, :attr:`~repro.obs.trace.TraceRecorder.lines`), or None
    #: when the cell ran untraced.
    trace_records: list[str] | None


def trace_filename(point_index: int, seed_index: int) -> str:
    """Canonical per-cell trace filename inside a sweep trace dir."""
    return f"trace_p{point_index:04d}_s{seed_index:04d}.ndjson"


class SweepObsCollector:
    """Parent-side deterministic merge of per-cell observability.

    Parameters
    ----------
    trace_dir:
        Directory to write per-cell NDJSON trace files into (created on
        demand); None discards trace records and keeps only metrics.
    """

    def __init__(self, trace_dir: str | Path | None = None) -> None:
        self.metrics = MetricsRegistry()
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.trace_paths: list[Path] = []
        self.n_cells = 0
        self._pending: dict[tuple[int, int], CellObs] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    def add_cell(self, point_index: int, seed_index: int, obs: CellObs) -> None:
        """Buffer one cell's payload (any arrival order)."""
        if self._finalized:
            raise ExperimentError("collector already finalized")
        key = (point_index, seed_index)
        if key in self._pending:
            raise ExperimentError(f"duplicate observability payload for cell {key}")
        self._pending[key] = obs

    def finalize(self) -> None:
        """Merge buffered cells in sorted cell order; idempotent."""
        if self._finalized:
            return
        self._finalized = True
        if self.trace_dir is not None and any(
            obs.trace_records is not None for obs in self._pending.values()
        ):
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        for key in sorted(self._pending):
            obs = self._pending[key]
            self.n_cells += 1
            if obs.metrics is not None:
                self.metrics.merge(obs.metrics)
            if obs.trace_records is not None and self.trace_dir is not None:
                path = self.trace_dir / trace_filename(*key)
                write_lines(obs.trace_records, path)
                self.trace_paths.append(path)
        self._pending.clear()
