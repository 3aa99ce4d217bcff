"""Wire protocol: newline-delimited JSON requests and responses.

One request per line, one response per line, in order — clients may
pipeline any number of requests before reading.  Every request carries
an ``op``; every response carries ``ok``.  A backpressure reject is a
well-formed response (``ok=false, rejected=true, retry_after=<s>``),
not a transport error: the connection stays open and the client is
expected to back off and resubmit.

Numbers are finite.  Python's parser reads ``NaN``, ``Infinity`` and
``1e999``, so a ``submit`` whose ``runtime``, ``estimate`` or
``arrival`` is not finite is refused as a protocol error, and so is a
``runtime`` or ``estimate`` that is not positive.  Every line
this module writes is RFC 8259 JSON: one strict encoder raises on a
non-finite number instead of writing it, and ``stats`` reports
``"watermark": null`` while the arrival watermark is not finite (before
the first submission, and once the stream is drained).

Requests
--------
``{"op": "submit", "id": 7, "size": 4, "runtime": 120.0,
   "arrival": 3600.0, "estimate": 150.0, "tenant": "alice"}``
    ``arrival``/``estimate``/``tenant`` are optional (``arrival`` is
    required when the service runs the *trace* clock).
``{"op": "cancel", "id": 7}`` · ``{"op": "status", "id": 7}``
``{"op": "stats"}`` · ``{"op": "ping"}``
``{"op": "drain"}``
    Close the arrival stream, run the engine dry and return the final
    schedule report.
``{"op": "shutdown"}``
    Drain, then stop the server.
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import ProtocolError

# The one codec: the encoder is compact, key-sorted (identical sessions
# produce byte-identical transcripts) and strict — a NaN or infinity
# anywhere in a message raises ``ValueError`` instead of reaching the
# wire as a token RFC 8259 parsers refuse.
from repro.records import canonical_json as _ENCODE, json_string, parse_json_line

#: Protocol revision; servers echo it from ``ping`` and ``stats``.
PROTOCOL_VERSION = 1

#: Hard cap on one request line — oversized lines are a protocol error,
#: never an unbounded buffer.
MAX_LINE_BYTES = 1 << 16

#: Cap a client puts on one *response* line.  A ``drain`` response
#: carries the whole schedule report (~200 B per job), so this is sized
#: for a full report of a few hundred thousand jobs rather than for a
#: request; it still bounds what a misbehaving server can make a client
#: buffer.
MAX_RESPONSE_BYTES = 1 << 26

#: Known operations and the fields each requires beyond ``op``.
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "submit": ("id", "size", "runtime"),
    "cancel": ("id",),
    "status": ("id",),
    "stats": (),
    "ping": (),
    "drain": (),
    "shutdown": (),
}

#: A full-queue refusal with its request's id, as :func:`canonical_json`
#: writes it: the line an overloaded service writes most.
_REFUSAL_LINE = '{"error":%s,"id":%d,"ok":false,"rejected":true,"retry_after":%r}\n'


def refusal(tenant: str, retry_after: float) -> dict[str, Any]:
    """The answer to a submit ``tenant``'s full queue turns away
    (``ServeEngine.handle`` adds the id)."""
    error = f"tenant {tenant!r} queue is full"
    return {"ok": False, "rejected": True, "retry_after": round(retry_after, 6), "error": error}


def encode(message: dict[str, Any]) -> bytes:
    """One message as a compact NDJSON line: a :func:`refusal` with its
    id (those five keys, of those types, a finite ``retry_after``) from
    one template, anything else by :func:`canonical_json`, to the same bytes."""
    if type(message) is dict and message.get("rejected") is True and len(message) == 5:
        error, job_id, retry = message.get("error"), message.get("id"), message.get("retry_after")
        if (
            message.get("ok") is False and type(error) is str and type(job_id) is int
            and type(retry) is float and -math.inf < retry < math.inf
        ):
            return (_REFUSAL_LINE % (json_string(error), job_id, retry)).encode()
    return (_ENCODE(message) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError` with a
    message safe to echo back to the client."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"request line exceeds {MAX_LINE_BYTES} bytes"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    try:
        message = parse_json_line(line)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, or an integer literal past the int/str
        # digit limit; RecursionError: brackets nested too deep to parse.
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_request(message: dict[str, Any]) -> str:
    """Check ``op`` and its required fields; returns the op name.

    A type test asks for the exact type the JSON parser makes first
    (``type(v) is int``), then for the ``isinstance`` verdict it always
    gave: a subclass passes where it passed, a ``bool`` is no number."""
    op = message.get("op")
    if type(op) is not str and not isinstance(op, str):
        raise ProtocolError("request has no 'op' field")
    required = REQUIRED_FIELDS.get(op)
    if required is None:
        known = ", ".join(sorted(REQUIRED_FIELDS))
        raise ProtocolError(f"unknown op {op!r}; known ops: {known}")
    for name in required:
        if name not in message:
            raise ProtocolError(f"op {op!r} requires field {name!r}")
    if "id" in message:
        job_id = message["id"]
        if type(job_id) is not int and not _is_int(job_id) or job_id < 0:
            raise ProtocolError(
                f"'id' must be a non-negative integer, got {job_id!r}"
            )
    if op == "submit":
        size = message["size"]
        if type(size) is not int and not _is_int(size) or size < 1:
            raise ProtocolError(f"'size' must be a positive integer, got {size!r}")
        for name in ("runtime", "estimate", "arrival"):
            if name not in message:
                continue
            value = message[name]
            kind = type(value)
            if kind is not float and kind is not int and not (
                isinstance(value, float) or _is_int(value)
            ):
                raise ProtocolError(f"{name!r} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond float range
                finite = False
            if not finite:
                raise ProtocolError(f"{name!r} must be finite, got {value!r}")
            # Durations are positive, so the wire cannot reach the
            # ``Job`` default -1 that stands for "no estimate".
            if value <= 0 and name != "arrival":
                raise ProtocolError(f"{name!r} must be positive, got {value!r}")
        tenant = message.get("tenant", "")
        if type(tenant) is not str and not isinstance(tenant, str):
            raise ProtocolError("'tenant' must be a string")
    return op


def error_response(exc: Exception, **extra: Any) -> dict[str, Any]:
    """A well-formed error payload from any exception."""
    return {"ok": False, "error": str(exc), **extra}
