"""Durable checkpoint store for completed sweep cells.

A sweep is a grid of independent ``(SweepPoint, seed)`` cells, each a
deterministic function of its inputs.  :class:`CellStore` persists every
completed cell's :class:`~repro.metrics.report.SimulationReport` to its
own JSON file so a killed sweep resumes exactly where it stopped: the
restored reports round-trip losslessly (Python float ``repr`` is
shortest-round-trip), so a resumed sweep's :class:`SweepResult` values
are bitwise-identical to an uninterrupted run's.

Three properties carry the design:

* **Content-addressed keys** — :func:`cell_key` hashes a canonical
  description of the point (including every *behavioural*
  ``SimulationConfig`` field), the seed and the failure model.  Any
  change to an input that could change the report changes the key, so a
  stale checkpoint directory can never poison a different sweep.
  The three observational flags (``trace``/``profile``/
  ``check_invariants``) are excluded: the report is bit-identical
  either way, so toggling them between runs still hits the cache.
  Every other config field is in the key — there are no engine toggles
  to carve out.
* **Atomic writes** — each cell is written to a temp file in the same
  directory, flushed, fsynced and ``os.replace``d into place (and the
  directory fsynced).  A reader never observes a partial cell file; an
  interrupt between write and rename leaves at most a ``.tmp-`` file,
  which is removed on the error path and ignored by readers.
* **Verified reads** — every file carries a schema version, its own key
  and a SHA-256 checksum of the canonical payload.  Truncated, garbled
  or tampered files (and files renamed to the wrong key) are *detected
  and treated as misses* — the cell is recomputed, never trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import ResilienceError
from repro.metrics.report import SimulationReport
from repro.metrics.serialize import report_from_dict, report_to_dict
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.experiments.sweep import SweepPoint
    from repro.failures.synthetic import BurstFailureModel

logger = get_logger(__name__)

#: Version of the on-disk cell envelope; bump on breaking change.  Old
#: checkpoints are recomputed, not migrated — cells are cheap relative
#: to the cost of a wrong migration.
CHECKPOINT_SCHEMA_VERSION = 1

#: Prefix of in-flight temp files inside the cells directory; readers
#: skip these and :meth:`CellStore.validate` reports leftovers.
TMP_PREFIX = ".tmp-"


def _canonical_json(data: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _payload_digest(payload: dict[str, Any]) -> str:
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def describe_point(point: "SweepPoint") -> dict[str, Any]:
    """Canonical JSON-able description of a sweep point.

    Covers every field that feeds the simulation, including the nested
    :class:`SimulationConfig` — every field but the observational
    flags (``trace``, ``profile``, ``check_invariants``), excluded
    because the report is bit-identical with them on or off.
    """
    config = point.config
    return {
        "site": point.site,
        "n_jobs": point.n_jobs,
        "load_scale": point.load_scale,
        "n_failures": point.n_failures,
        "policy": point.policy,
        "parameter": point.parameter,
        "pf_rule": point.pf_rule.name,
        "config": {
            "dims": list(config.dims.as_tuple()),
            "backfill": config.backfill.value,
            "migration": config.migration,
            "migration_cost_s": config.migration_cost_s,
            "gamma": config.gamma,
            "slowdown_rule": config.slowdown_rule.value,
            "checkpoint": {
                "mode": config.checkpoint.mode.value,
                "interval_s": config.checkpoint.interval_s,
                "overhead_s": config.checkpoint.overhead_s,
                "hit_probability": config.checkpoint.hit_probability,
            },
            "seed": config.seed,
            "max_events": config.max_events,
        },
    }


def describe_model(model: "BurstFailureModel") -> dict[str, Any]:
    """Canonical description of the failure model."""
    return dataclasses.asdict(model)


def point_from_dict(data: dict[str, Any]) -> "SweepPoint":
    """Reconstruct a :class:`SweepPoint` from :func:`describe_point` output.

    The inverse covers exactly the fields the description carries; the
    observational config flags (``trace``/``profile``/
    ``check_invariants``) come back as defaults — by the store's own
    contract the report is bit-identical regardless, which is what lets
    queue workers rebuild a cell from its task record and still land a
    checkpoint the driver merges bitwise with serial.
    """
    from repro.checkpoint.model import CheckpointConfig, CheckpointMode
    from repro.core.config import BackfillMode, SimulationConfig
    from repro.experiments.sweep import SweepPoint
    from repro.geometry.coords import TorusDims
    from repro.metrics.timing import BoundedSlowdownRule
    from repro.prediction.base import PartitionFailureRule

    try:
        cfg = data["config"]
        config = SimulationConfig(
            dims=TorusDims(*cfg["dims"]),
            backfill=BackfillMode(cfg["backfill"]),
            migration=cfg["migration"],
            migration_cost_s=cfg["migration_cost_s"],
            gamma=cfg["gamma"],
            slowdown_rule=BoundedSlowdownRule(cfg["slowdown_rule"]),
            checkpoint=CheckpointConfig(
                mode=CheckpointMode(cfg["checkpoint"]["mode"]),
                interval_s=cfg["checkpoint"]["interval_s"],
                overhead_s=cfg["checkpoint"]["overhead_s"],
                hit_probability=cfg["checkpoint"]["hit_probability"],
            ),
            seed=cfg["seed"],
            max_events=cfg["max_events"],
        )
        return SweepPoint(
            site=data["site"],
            n_jobs=data["n_jobs"],
            load_scale=data["load_scale"],
            n_failures=data["n_failures"],
            policy=data["policy"],
            parameter=data["parameter"],
            pf_rule=PartitionFailureRule[data["pf_rule"]],
            config=config,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ResilienceError(
            f"cannot reconstruct sweep point from record: {exc}"
        ) from exc


def model_from_dict(data: dict[str, Any]) -> "BurstFailureModel":
    """Reconstruct a failure model from :func:`describe_model` output."""
    from repro.failures.synthetic import BurstFailureModel

    try:
        return BurstFailureModel(**data)
    except TypeError as exc:
        raise ResilienceError(
            f"cannot reconstruct failure model from record: {exc}"
        ) from exc


def cell_key(point: "SweepPoint", seed: int, model: "BurstFailureModel") -> str:
    """Content hash identifying one ``(point, seed)`` cell's inputs.

    Includes the report schema version: a serialisation change
    invalidates old checkpoints instead of restoring them wrongly.
    """
    from repro.metrics.serialize import SCHEMA_VERSION as REPORT_SCHEMA_VERSION

    material = {
        "checkpoint_schema": CHECKPOINT_SCHEMA_VERSION,
        "report_schema": REPORT_SCHEMA_VERSION,
        "point": describe_point(point),
        "seed": seed,
        "model": describe_model(model),
    }
    return hashlib.sha256(_canonical_json(material).encode("utf-8")).hexdigest()


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
        return sum(1 for _ in self._cell_files())

    def keys(self) -> list[str]:
        """Keys of every (not necessarily valid) stored cell."""
        return sorted(path.stem for path in self._cell_files())

    def _cell_files(self) -> Iterator[Path]:
        for path in self.cells_dir.iterdir():
            if path.suffix == ".json" and not path.name.startswith(TMP_PREFIX):
                yield path

    # ------------------------------------------------------------------
    def get(self, key: str) -> SimulationReport | None:
        """Restore one cell; ``None`` on miss *or* any integrity failure.

        A corrupted checkpoint (truncated file, garbled JSON, checksum
        or key mismatch, unknown schema) is logged, counted and treated
        as a miss — the caller recomputes the cell.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            return self._reject(key, f"unreadable ({exc})")
        except UnicodeDecodeError:
            return self._reject(key, "not valid UTF-8 (garbled)")
        try:
            envelope = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return self._reject(key, "not valid JSON (truncated or garbled)")
        if not isinstance(envelope, dict):
            return self._reject(key, "envelope is not an object")
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
        if envelope.get("payload_sha256") != _payload_digest(payload):
            return self._reject(key, "payload checksum mismatch")
        try:
            report = report_from_dict(payload)
        except Exception as exc:  # schema'd but unrestorable payload
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
            "payload_sha256": _payload_digest(payload),
        }
        path = self.path_for(key)
        tmp = self.cells_dir / f"{TMP_PREFIX}{key}-{os.getpid()}.json"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            # SIGINT lands as KeyboardInterrupt between bytecodes, so
            # this cleanup runs: no stray temp files after an interrupt.
            tmp.unlink(missing_ok=True)
            raise
        self._fsync_dir()
        return path

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.cells_dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

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
