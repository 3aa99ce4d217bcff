"""Decision-trace record schema.

A trace is newline-delimited JSON: one header record followed by one
record per scheduler decision, in simulation order.  Every record
carries the common envelope

``kind``
    Record type (see :data:`KIND_FIELDS`).
``t``
    Simulation time of the decision (seconds).  *Never* wall-clock time:
    identical-seed runs must produce byte-identical traces so
    ``repro trace diff`` can localise divergence.
``seq``
    0-based position in the stream, dense and strictly increasing.

plus the kind-specific required fields below.  Extra fields are allowed
(the schema is open for forward compatibility); missing required fields,
unknown kinds, broken sequencing or a wrong header version are not.
"""

from __future__ import annotations

from typing import Any, Iterable

#: Version embedded in every trace header; bump on breaking change.
TRACE_SCHEMA_VERSION = 3

#: Common envelope present on every record.
COMMON_FIELDS = frozenset({"kind", "t", "seq"})

#: Required kind-specific fields per record kind.
KIND_FIELDS: dict[str, frozenset[str]] = {
    # Stream header: run identity and machine geometry.
    "header": frozenset({"schema", "policy", "workload", "dims", "seed"}),
    # A job joined the wait queue.
    "arrival": frozenset({"job", "size"}),
    # One placement decision's candidate enumeration.  ``considered`` is
    # a column table of equal-length lists, ``base`` and ``shape`` plus
    # the scoring inputs the policy computed for those partitions:
    # ``l_mfp`` (and balancing's ``p_f``, tie-break's
    # ``predicted_failure``).  A forced choice (``n_candidates == 1``) is
    # placed unscored, so it has no ``l_mfp`` / ``p_f`` column.  A
    # decision exists only where a candidate does: ``n_candidates >= 1``
    # and ``chosen`` is never null.  That a waiting job's size did not
    # fit is not recorded — it follows from the dispatch / finish /
    # failure / migration / cancel records.
    "candidates": frozenset(
        {"job", "size", "policy", "n_candidates", "considered", "truncated", "chosen"}
    ),
    # A job started on a partition.
    "dispatch": frozenset({"job", "size", "base", "shape", "via", "wall"}),
    # A waiting job was promoted past the queue head, with the
    # shadow-time inputs that justified it.  ``shadow`` is null under
    # ``BackfillMode.AGGRESSIVE``, which has no shadow (never
    # ``Infinity``: the recorder refuses non-finite numbers).
    "backfill": frozenset({"job", "head_job", "shadow", "est_wall"}),
    # A committed compaction episode.
    "migration": frozenset({"head_job", "moved_jobs", "n_placements"}),
    # A node failure; ``killed_job`` is null when the node was idle.
    "failure": frozenset({"node", "killed_job"}),
    # A killed job resumed from checkpointed progress.
    "checkpoint": frozenset({"job", "saved_before", "saved_after"}),
    # A job completed.
    "finish": frozenset({"job"}),
    # A job was withdrawn (online service only); ``caught`` says where
    # the cancellation found it: pending, waiting or running.
    "cancel": frozenset({"job", "caught"}),
}

#: Kinds that represent scheduler *decisions* (what ``trace diff``
#: compares); the header is run metadata, not a decision.
DECISION_KINDS = frozenset(KIND_FIELDS) - {"header"}


def validate_record(record: Any, seq: int | None = None) -> list[str]:
    """Validate one trace record; returns a list of problems (empty = ok)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    kind = record.get("kind")
    if kind not in KIND_FIELDS:
        return [f"unknown record kind {kind!r}"]
    missing = (COMMON_FIELDS | KIND_FIELDS[kind]) - record.keys()
    if missing:
        errors.append(f"{kind} record missing fields: {sorted(missing)}")
    t = record.get("t")
    if "t" in record and not isinstance(t, (int, float)):
        errors.append(f"{kind} record has non-numeric t: {t!r}")
    if "seq" in record:
        if not isinstance(record["seq"], int):
            errors.append(f"{kind} record has non-integer seq: {record['seq']!r}")
        elif seq is not None and record["seq"] != seq:
            errors.append(
                f"{kind} record has seq {record['seq']}, expected {seq}"
            )
    if kind == "candidates":  # absent fields are reported as missing above
        n = record.get("n_candidates", 1)
        if not isinstance(n, int) or n < 1:
            errors.append(f"candidates record has n_candidates {n!r}, expected >= 1")
        if record.get("chosen", {}) is None:
            errors.append("candidates record has a null chosen")
        if "considered" in record:
            errors.extend(_table_errors(record["considered"], n))
    if kind == "header" and record.get("schema") != TRACE_SCHEMA_VERSION:
        errors.append(
            f"unsupported trace schema {record.get('schema')!r} "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    return errors


def _table_errors(considered: Any, n_candidates: Any) -> list[str]:
    """Problems with a ``candidates`` record's ``considered`` table."""
    if not isinstance(considered, dict) or not all(
        isinstance(column, list) for column in considered.values()
    ):
        return ["candidates record's considered is not an object of lists"]
    errors = []
    missing = {"base", "shape"} - considered.keys()
    if missing:
        errors.append(f"candidates record's considered lacks {sorted(missing)}")
    lengths = {len(column) for column in considered.values()}
    if len(lengths) > 1:
        errors.append(
            f"candidates record's considered has columns of lengths {sorted(lengths)}"
        )
    elif lengths and isinstance(n_candidates, int) and lengths.pop() > n_candidates:
        errors.append("candidates record considers more than n_candidates")
    return errors


def validate_stream(records: Iterable[Any]) -> list[str]:
    """Validate a whole trace stream.

    Checks every record individually, plus stream-level invariants: the
    stream opens with exactly one header, ``seq`` is dense from 0, and
    simulation time never runs backwards across decision records.
    """
    errors: list[str] = []
    last_t: float | None = None
    n = 0
    for i, record in enumerate(records):
        n += 1
        for problem in validate_record(record, seq=i):
            errors.append(f"record {i}: {problem}")
        if not isinstance(record, dict):
            continue
        kind = record.get("kind")
        if i == 0 and kind != "header":
            errors.append(f"record 0: stream must open with a header, got {kind!r}")
        if i > 0 and kind == "header":
            errors.append(f"record {i}: duplicate header mid-stream")
        if kind in DECISION_KINDS and isinstance(record.get("t"), (int, float)):
            t = float(record["t"])
            if last_t is not None and t < last_t:
                errors.append(
                    f"record {i}: simulation time ran backwards "
                    f"({t} after {last_t})"
                )
            last_t = t
    if n == 0:
        errors.append("empty trace: no records at all")
    return errors
