"""Decision-trace recorders and NDJSON I/O.

:class:`TraceRecorder` streams records straight to a text sink or
buffers them in memory (the sweep engine ships them between processes);
either way it holds each record as its encoded NDJSON line — compact
separators, sorted keys — so identical runs produce byte-identical files
and a buffered recorder writes its lines verbatim.  Every line passes
through :meth:`TraceRecorder.emit`, in one of two forms:

* **positional** — ``emit(kind, t, *values)`` for the six kinds the
  engine writes on every decision (``arrival``, ``finish``, ``failure``,
  ``dispatch``, ``backfill``, ``candidates``).  Each has one line
  function: a literal ``%`` template with its keys already in sorted
  order, ints written with ``%d``, floats with ``float.__repr__`` and
  ``None`` as ``null``.  These are the one decided exception to
  :func:`repro.records.canonical_json` encoding every line, and the test
  suite holds them byte-equal to it;
* **keyword** — ``emit(kind, t, **fields)``, the
  :func:`~repro.records.canonical_json` path, for the header, the rarer
  kinds (``migration``, ``checkpoint``, ``cancel``) and any caller
  outside the engine.

Both forms refuse non-finite numbers with ``ValueError`` (``NaN`` and
``Infinity`` are not RFC 8259 JSON) before anything is written or
buffered, so every line a recorder holds is parseable by a strict
reader.  :func:`iter_trace` and :attr:`TraceRecorder.records` read lines
back through the one line decoder, :func:`repro.records.parse_json_line`.

:class:`NullRecorder` is the default wired into the simulator: a
singleton whose :meth:`~NullRecorder.emit` is a no-op ``pass``.  Callers
that build nontrivial record payloads guard on ``recorder.enabled`` so
the untraced path pays one attribute read per decision site, nothing
more.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

from repro.errors import SimulationError
from repro.obs.schema import TRACE_SCHEMA_VERSION
from repro.records import canonical_json as _encode, json_string, parse_json_line

_INF = math.inf
_repr = float.__repr__  # ``%r`` of an ``np.float64`` is ``np.float64(...)``


def _real(x: float) -> str:
    """A float slot's text: what :func:`canonical_json` writes, or its
    ``ValueError`` for a non-finite value."""
    if -_INF < x < _INF:
        return _repr(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


# Each line function takes the record's ``seq``, the text of its time
# ``t`` (formatted once per distinct time by ``emit``) and its values.
def _arrival_line(seq: int, t: str, job: int, size: int) -> str:
    return '{"job":%d,"kind":"arrival","seq":%d,"size":%d,"t":%s}\n' % (job, seq, size, t)


def _finish_line(seq: int, t: str, job: int) -> str:
    return '{"job":%d,"kind":"finish","seq":%d,"t":%s}\n' % (job, seq, t)


def _failure_line(seq: int, t: str, node: int, killed_job: int | None) -> str:
    return '{"killed_job":%s,"kind":"failure","node":%d,"seq":%d,"t":%s}\n' % (
        "null" if killed_job is None else "%d" % killed_job, node, seq, t
    )


def _dispatch_line(
    seq: int, t: str, job: int, size: int, base: tuple, shape: tuple,
    via: str, wall: float, est_finish: float,
) -> str:
    return (
        '{"base":[%d,%d,%d],"est_finish":%s,"job":%d,"kind":"dispatch","seq":%d,'
        '"shape":[%d,%d,%d],"size":%d,"t":%s,"via":%s,"wall":%s}\n'
    ) % (
        *base, _real(est_finish), job, seq, *shape, size, t, json_string(via), _real(wall),
    )


def _backfill_line(
    seq: int, t: str, job: int, head_job: int, shadow: float | None, est_wall: float
) -> str:
    return (
        '{"est_wall":%s,"head_job":%d,"job":%d,"kind":"backfill","seq":%d,'
        '"shadow":%s,"t":%s}\n'
    ) % (_real(est_wall), head_job, job, seq, "null" if shadow is None else _real(shadow), t)


def _candidates_line(
    seq: int, t: str, job: int, size: int, policy: str, n_candidates: int,
    considered: str, truncated: bool, chosen: Any,
) -> str:
    """``considered`` is the column table's JSON text; ``chosen`` the
    :class:`~repro.geometry.partition.Partition` placed."""
    return (
        '{"chosen":{"base":[%d,%d,%d],"shape":[%d,%d,%d]},"considered":%s,"job":%d,'
        '"kind":"candidates","n_candidates":%d,"policy":%s,"seq":%d,"size":%d,'
        '"t":%s,"truncated":%s}\n'
    ) % (
        *chosen.base, *chosen.shape, considered, job, n_candidates,
        json_string(policy), seq, size, t, "true" if truncated else "false",
    )


#: The positional form's line function per kind; its parameters after
#: ``seq`` and ``t`` are the values ``emit`` takes, in order.
_LINES = {
    "arrival": _arrival_line,
    "finish": _finish_line,
    "failure": _failure_line,
    "dispatch": _dispatch_line,
    "backfill": _backfill_line,
    "candidates": _candidates_line,
}


class TraceRecorder:
    """Collects schema-versioned decision records for one simulation.

    Parameters
    ----------
    sink:
        Optional text stream; when given, record lines are written
        through to it instead of being buffered (``lines`` and
        ``records`` are then unavailable).
    """

    __slots__ = ("_lines", "_sink", "_seq", "_t", "_t_text")

    enabled = True

    def __init__(self, sink: IO[str] | None = None) -> None:
        self._lines: list[str] | None = [] if sink is None else None
        self._sink = sink
        self._seq = 0
        # The last positional record's time and its text: the records of
        # one event batch share their ``now``, so it is formatted once.
        self._t: Any = None
        self._t_text = ""

    # ------------------------------------------------------------------
    def emit(self, kind: str, t: float, *values: Any, **fields: Any) -> None:
        """Record one decision at simulation time ``t``: positional
        ``values`` for a kind with a line function, keyword ``fields``
        otherwise (the module docstring has both forms)."""
        seq = self._seq
        if values:
            if fields:
                raise TypeError("emit takes positional values or keyword fields, not both")
            if t is not self._t:
                self._t_text = _real(float(t))
                self._t = t
            line = _LINES[kind](seq, self._t_text, *values)
        else:
            line = _encode({"kind": kind, "t": float(t), "seq": seq, **fields}) + "\n"
        self._seq = seq + 1
        if self._sink is not None:
            self._sink.write(line)
        else:
            self._lines.append(line)

    def header(self, **fields: Any) -> None:
        """Emit the stream header (must be the first record)."""
        if self._seq != 0:
            raise SimulationError("trace header must be the first record")
        self.emit("header", 0.0, schema=TRACE_SCHEMA_VERSION, **fields)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._seq

    @property
    def lines(self) -> list[str]:
        """The buffered NDJSON lines, newline-terminated (in-memory
        recorders only)."""
        if self._lines is None:
            raise SimulationError(
                "recorder streams to a sink; records are not buffered"
            )
        return self._lines

    @property
    def records(self) -> list[dict[str, Any]]:
        """The buffered records, decoded from :attr:`lines`."""
        return [parse_json_line(line) for line in self.lines]

    def write(self, path: str | Path) -> Path:
        """Write the buffered lines to ``path`` verbatim."""
        path = Path(path)
        write_lines(self.lines, path)
        return path


class NullRecorder:
    """Disabled recorder: every operation is a no-op.

    ``enabled`` is False so decision sites skip building record payloads
    entirely; the shared :data:`NULL_RECORDER` singleton keeps the
    untraced simulator allocation-free.
    """

    __slots__ = ()

    enabled = False

    def emit(self, kind: str, t: float, *values: Any, **fields: Any) -> None:
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

def write_lines(lines: Iterable[str], path: str | Path) -> None:
    """Write newline-terminated NDJSON ``lines`` to ``path`` verbatim."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def write_trace(records: list[dict[str, Any]], path: str | Path) -> None:
    """Write ``records`` to ``path`` as newline-delimited JSON."""
    write_lines((_encode(record) + "\n" for record in records), path)


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
