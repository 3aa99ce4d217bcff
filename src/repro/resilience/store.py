"""Durable checkpoint store for completed sweep cells.

A sweep is a grid of independent ``(SweepPoint, seed)`` cells, each a
deterministic function of its inputs.  :class:`CellStore` persists every
completed cell's :class:`~repro.metrics.report.SimulationReport` to its
own JSON file so a killed sweep resumes exactly where it stopped: the
restored reports round-trip losslessly (Python float ``repr`` is
shortest-round-trip), so a resumed sweep's :class:`SweepResult` values
are bitwise-identical to an uninterrupted run's.

Three properties carry the design:

* **Content-addressed keys** — :func:`cell_key` hashes the point, the
  seed and the failure model as their dataclasses declare them, so any
  change to an input that could change the report — a new config field
  included, with no edit here — changes the key, and a stale checkpoint
  directory can never poison a different sweep.  Only the config fields
  ``SimulationConfig`` itself marks observational are hashed at their
  defaults: the report is bit-identical either way, so toggling them
  between runs still hits the cache.
* **Atomic writes** — every cell goes through
  :func:`repro.records.atomic_write_json`.  A reader never observes a
  partial cell file; an interrupt leaves no ``.tmp-`` file, and readers
  ignore one a power cut left.
* **Verified reads** — every file carries a schema version, its own key
  and a SHA-256 checksum of the canonical payload.  Truncated, garbled
  or tampered files (and files renamed to the wrong key) are *detected
  and treated as misses* — the cell is recomputed, never trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ResilienceError
from repro.metrics.report import SimulationReport
from repro.metrics.serialize import SCHEMA_VERSION as REPORT_SCHEMA_VERSION
from repro.metrics.serialize import report_from_dict, report_to_dict
from repro.obs.log import get_logger
from repro.records import (
    TMP_PREFIX,
    atomic_write_json,
    canonical_json,
    read_json,
    record_files,
    to_plain,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.experiments.sweep import SweepPoint
    from repro.failures.synthetic import BurstFailureModel

logger = get_logger(__name__)

#: Version of the on-disk cell envelope and of the key material; bump on
#: breaking change.  Old checkpoints are recomputed, not migrated —
#: cells are cheap relative to the cost of a wrong migration.  (2: key
#: material is ``to_plain`` of the point and model.  3: the config lost
#: an observational field, which every point's ``to_plain`` carried.)
CHECKPOINT_SCHEMA_VERSION = 3


def _digest(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def cell_key(point: "SweepPoint", seed: int, model: "BurstFailureModel") -> str:
    """Content hash identifying one ``(point, seed)`` cell's inputs.

    Includes both schema versions: a serialisation change invalidates
    old checkpoints instead of restoring them wrongly.
    """
    config = point.config
    defaults = {
        f.name: f.default
        for f in dataclasses.fields(config)
        if f.metadata.get("observational")
    }
    behavioural = dataclasses.replace(
        point, config=dataclasses.replace(config, **defaults)
    )
    return _digest({
        "checkpoint_schema": CHECKPOINT_SCHEMA_VERSION,
        "report_schema": REPORT_SCHEMA_VERSION,
        "point": to_plain(behavioural),
        "seed": seed,
        "model": to_plain(model),
    })


def quarantine_path(root: str | Path) -> Path:
    """Where a sweep checkpointing under ``root`` writes its poison cells."""
    return Path(root) / "quarantine.json"


class CellStore:
    """One checkpoint directory of completed sweep cells.

    Layout::

        <root>/cells/<64-hex-key>.json   one file per completed cell
        <root>/quarantine.json           poison cells (see retry module)

    Instance counters (``hits``/``misses``/``corrupt``) track the
    store's resume behaviour for the run; ``SweepRunStats`` is filled
    from them.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        try:
            self.cells_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ResilienceError(
                f"cannot create checkpoint directory {self.root}: {exc}"
            ) from exc
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    @property
    def quarantine_path(self) -> Path:
        return quarantine_path(self.root)

    def path_for(self, key: str) -> Path:
        return self.cells_dir / f"{key}.json"

    def has(self, key: str) -> bool:
        """Cheap existence probe (no verification, no counter traffic).

        Queue workers use this to skip cells another worker already
        completed; the driver still reads every result through the
        verified :meth:`get`, so a corrupt file can only cost a
        recomputation, never poison a result.
        """
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in record_files(self.cells_dir))

    def keys(self) -> list[str]:
        """Keys of every (not necessarily valid) stored cell."""
        return [path.stem for path in record_files(self.cells_dir)]

    # ------------------------------------------------------------------
    def get(self, key: str) -> SimulationReport | None:
        """Restore one cell; ``None`` on miss *or* any integrity failure.

        A corrupted checkpoint (truncated file, garbled JSON, checksum
        or key mismatch, unknown schema) is logged, counted and treated
        as a miss — the caller recomputes the cell.
        """
        path = self.path_for(key)
        envelope = read_json(path)
        if envelope is None and not path.exists():
            self.misses += 1
            return None
        if not isinstance(envelope, dict):
            return self._reject(key, "not a JSON object (truncated or garbled)")
        if envelope.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            return self._reject(
                key, f"unsupported schema {envelope.get('schema')!r}"
            )
        if envelope.get("key") != key:
            return self._reject(
                key, f"key mismatch (file claims {envelope.get('key')!r})"
            )
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            return self._reject(key, "missing report payload")
        try:
            if envelope.get("payload_sha256") != _digest(payload):
                return self._reject(key, "payload checksum mismatch")
            report = report_from_dict(payload)
        except Exception as exc:  # non-finite number, unrestorable payload
            return self._reject(key, f"payload does not restore ({exc})")
        self.hits += 1
        return report

    def _reject(self, key: str, reason: str) -> None:
        self.corrupt += 1
        self.misses += 1
        logger.warning(
            "checkpoint cell %s rejected: %s; recomputing", key[:12], reason
        )
        return None

    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        report: SimulationReport,
        *,
        point_index: int | None = None,
        seed: int | None = None,
    ) -> Path:
        """Persist one completed cell atomically.

        ``point_index``/``seed`` are human-facing annotations only; they
        are deliberately outside the checksum (integrity covers the
        payload a resume would trust).
        """
        payload = report_to_dict(report)
        envelope = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "point_index": point_index,
            "seed": seed,
            "payload": payload,
            "payload_sha256": _digest(payload),
        }
        return atomic_write_json(self.path_for(key), envelope)

    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Integrity-check every stored cell; one message per problem.

        Used by the interrupt tests (and available for manual forensic
        checks): after a SIGINT there must be nothing but complete,
        checksummed cell files in the directory.
        """
        problems: list[str] = []
        for path in sorted(self.cells_dir.iterdir()):
            if path.name.startswith(TMP_PREFIX):
                problems.append(f"{path.name}: leftover temp file")
                continue
            # A forensic scan must not skew the run's resume counters.
            before = (self.hits, self.misses, self.corrupt)
            restored = self.get(path.stem)
            self.hits, self.misses, self.corrupt = before
            if restored is None:
                problems.append(f"{path.name}: fails integrity check")
        return problems
