"""The record layer: how a dataclass becomes bytes, and bytes a file.

Three decisions, each made here and nowhere else:

* **The dataclass is the schema** — :func:`to_plain` / :func:`from_plain`
  map a dataclass to JSON-able primitives and back from its own fields
  and type hints (nested dataclasses, ``Enum`` by value, ``tuple[...]``,
  ``X | None``): a new field enters every key, task record and round
  trip by being declared.  Anything but the declared shape is refused.
* **One JSON codec, built once** — :func:`canonical_json`, the one
  encoder: sorted keys, compact, strict (``NaN``/``Infinity`` raise).
  Equal values give equal bytes, which cell keys, payload checksums,
  trace files and service transcripts all rest on.  It is one C encoder
  made at import, not a ``JSONEncoder`` that builds one per call.
  :func:`parse_json_line`, the one line decoder, calls the C scanner
  directly and hands anything but a bare value to ``json.loads``, so
  every answer and every error is the stdlib's.  Wire lines and trace
  lines go through these two, with two decided exceptions, each held
  byte-equal to :func:`canonical_json` by the test suite: the decision
  recorder's per-kind line functions (:mod:`repro.obs.trace`) format the
  six records the engine writes on every decision from ``%`` templates,
  and the service's ``encode`` (:mod:`repro.serve.protocol`) formats a
  full-queue refusal, the line an overloaded service writes most, from
  one.  Both take their string literals from :func:`json_string`.
* **A durable write** — :func:`atomic_write_text` (and
  :func:`atomic_write_json` on top of it) never lets a reader (or a
  power cut) see a partial file; :func:`read_json` answers ``None`` for
  every way a file can be unusable.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import json
import os
import types
import typing
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ReproError

#: Prefix of in-flight temp files; :func:`record_files` skips these.
TMP_PREFIX = ".tmp-"

# The arguments ``JSONEncoder.iterencode`` passes (3.10 to 3.13), but made
# once.  ``markers=None`` leaves no per-call state, so threads share it;
# a cyclic value raises ``RecursionError``.
_ENCODER = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",",
    True, False, False,
)


def canonical_json(obj: Any) -> str:
    """``obj`` as sorted, compact, strict JSON text."""
    return "".join(_ENCODER(obj, 0))


#: One string as a JSON literal, exactly as :func:`canonical_json` writes it.
json_string = encode_basestring_ascii


_SCAN = json.JSONDecoder().scan_once


def parse_json_line(text: str) -> Any:
    """The value of one NDJSON line (its newline optional), exactly as
    ``json.loads(text)`` gives it or raises.

    The scanner alone reads a value and its trailing JSON whitespace;
    leading padding, trailing data and every error go to ``json.loads``
    itself (a second parse), so its messages stand.
    """
    try:
        obj, end = _SCAN(text, 0)
    except Exception:  # StopIteration, ValueError, RecursionError
        return json.loads(text)
    if end == len(text) or not text[end:].strip(" \t\n\r"):
        return obj
    return json.loads(text)


def pretty_json(obj: Any) -> str:
    """Human-facing exports (``load --output``, ``serve --metrics-file``)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def to_plain(obj: Any) -> Any:
    """``obj`` as JSON-able primitives; inverse of :func:`from_plain`."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [to_plain(item) for item in obj]
    return obj


def from_plain(tp: Any, data: Any) -> Any:
    """Rebuild a value of type ``tp`` from :func:`to_plain` output.

    Raises ``ValueError`` naming the first thing that does not fit —
    including a dataclass's own ``__post_init__`` refusing the values.
    """
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        # ``X | None`` is the only union a record holds.
        (tp,) = (arm for arm in typing.get_args(tp) if arm is not type(None))
        return None if data is None else from_plain(tp, data)
    if origin is tuple:
        args = typing.get_args(tp)
        if isinstance(data, list) and args[-1] is Ellipsis:
            args = args[:1] * len(data)
        if not isinstance(data, list) or len(data) != len(args):
            raise ValueError(f"expected {tp}, got {data!r}")
        return tuple(from_plain(arg, item) for arg, item in zip(args, data))
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        names = {f.name for f in dataclasses.fields(tp)}
        if not isinstance(data, dict) or set(data) != names:
            raise ValueError(
                f"{tp.__name__} record must have exactly the keys {sorted(names)}"
            )
        try:
            return tp(**{name: from_plain(hints[name], data[name]) for name in names})
        except (ReproError, TypeError) as exc:
            raise ValueError(f"{tp.__name__} refuses the record: {exc}") from exc
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return tp(data)
    # JSON has one number type: a float field may hold an int (and comes
    # back as one, so re-encoding gives the same bytes); nothing is a bool
    # but a bool.
    accepted = {float: (int, float), int: int, bool: bool, str: str}.get(tp)
    if accepted is None:
        raise TypeError(f"records cannot hold a field of type {tp}")
    if not isinstance(data, accepted) or (isinstance(data, bool) and tp is not bool):
        raise ValueError(f"expected {tp.__name__}, got {data!r}")
    return data


def read_json(path: str | Path) -> Any:
    """The JSON value in ``path``; ``None`` when it vanished, is
    truncated, is not UTF-8 or does not parse."""
    try:
        return json.loads(Path(path).read_bytes())
    except (OSError, ValueError, RecursionError):
        return None


def record_files(directory: str | Path) -> Iterator[Path]:
    """The ``.json`` records of one directory in sorted name order,
    in-flight temp files skipped; none if it cannot be listed."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return
    for name in names:
        if name.endswith(".json") and not name.startswith(TMP_PREFIX):
            yield Path(directory, name)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path``, all or nothing.

    Temp file in the same directory, flushed and fsynced *before* the
    rename, directory fsynced after: a reader sees the old file or the
    new one, and after a power cut the name never points at empty data.
    A failure or an interrupt at any point removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f"{TMP_PREFIX}{path.stem}-{os.getpid()}{path.suffix}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        # SIGINT lands as KeyboardInterrupt between bytecodes, so this
        # cleanup runs: no stray temp files after an interrupt.
        tmp.unlink(missing_ok=True)
        raise
    with contextlib.suppress(OSError):  # platform without directory fds
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return path


def atomic_write_json(path: str | Path, obj: Any) -> Path:
    """Write ``obj`` to ``path`` as canonical JSON, all or nothing
    (:func:`atomic_write_text`)."""
    return atomic_write_text(path, canonical_json(obj))
