"""Decision-trace recorders and NDJSON I/O.

:class:`TraceRecorder` buffers records in memory (the sweep engine ships
them between processes) or streams them straight to a text sink; either
way the on-disk form is newline-delimited JSON with compact separators
and sorted keys, so identical runs produce byte-identical files.  There
is one encode path: :func:`repro.records.canonical_json` serialises
every record, streamed by :meth:`TraceRecorder.emit` or written later by
:func:`write_trace`, and it refuses non-finite numbers (``NaN`` and
``Infinity`` are not RFC 8259 JSON), so every line a recorder writes is
parseable by a strict reader.  :func:`iter_trace` reads lines back
through the one line decoder, :func:`repro.records.parse_json_line`.

:class:`NullRecorder` is the default wired into the simulator: a
singleton whose :meth:`~NullRecorder.emit` is a no-op ``pass``.  Callers
that build nontrivial record payloads guard on ``recorder.enabled`` so
the untraced path pays one attribute read per decision site, nothing
more.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any, Iterator

from repro.errors import SimulationError
from repro.obs.schema import TRACE_SCHEMA_VERSION
from repro.records import canonical_json as _encode, parse_json_line


class TraceRecorder:
    """Collects schema-versioned decision records for one simulation.

    Parameters
    ----------
    sink:
        Optional text stream; when given, records are written through as
        NDJSON lines instead of being buffered (``records`` is then
        unavailable).
    """

    __slots__ = ("_records", "_sink", "_seq")

    enabled = True

    def __init__(self, sink: IO[str] | None = None) -> None:
        self._records: list[dict[str, Any]] | None = [] if sink is None else None
        self._sink = sink
        self._seq = 0

    # ------------------------------------------------------------------
    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Record one decision at simulation time ``t``."""
        record = {"kind": kind, "t": float(t), "seq": self._seq, **fields}
        self._seq += 1
        if self._sink is not None:
            self._sink.write(_encode(record) + "\n")
        else:
            self._records.append(record)

    def header(self, **fields: Any) -> None:
        """Emit the stream header (must be the first record)."""
        if self._seq != 0:
            raise SimulationError("trace header must be the first record")
        self.emit("header", 0.0, schema=TRACE_SCHEMA_VERSION, **fields)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._seq

    @property
    def records(self) -> list[dict[str, Any]]:
        """The buffered records (in-memory recorders only)."""
        if self._records is None:
            raise SimulationError(
                "recorder streams to a sink; records are not buffered"
            )
        return self._records

    def write(self, path: str | Path) -> Path:
        """Write the buffered records to ``path`` as NDJSON."""
        path = Path(path)
        write_trace(self.records, path)
        return path


class NullRecorder:
    """Disabled recorder: every operation is a no-op.

    ``enabled`` is False so decision sites skip building record payloads
    entirely; the shared :data:`NULL_RECORDER` singleton keeps the
    untraced simulator allocation-free.
    """

    __slots__ = ()

    enabled = False

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        pass

    def header(self, **fields: Any) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Shared no-op recorder instance (stateless, safe to share globally).
NULL_RECORDER = NullRecorder()


# ----------------------------------------------------------------------
# NDJSON I/O
# ----------------------------------------------------------------------

def write_trace(records: list[dict[str, Any]], path: str | Path) -> None:
    """Write ``records`` to ``path`` as newline-delimited JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(_encode(record) + "\n")


def iter_trace(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield records from an NDJSON trace file, skipping blank lines.

    A line that is not UTF-8, not JSON or not a JSON object raises
    :class:`SimulationError` naming the file and line.
    """
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
                record = parse_json_line(line.decode("utf-8"))
            except ValueError as exc:
                raise SimulationError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise SimulationError(f"{path}:{lineno}: not a JSON object")
            yield record


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read a whole NDJSON trace file into memory."""
    return list(iter_trace(path))
