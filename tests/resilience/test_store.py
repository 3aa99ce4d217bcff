"""CellStore durability and verification contract.

The properties a resumable sweep leans on:

* a stored cell restores to a report whose canonical serialisation is
  byte-identical to the original's (exact float round-trip);
* any damaged file — truncated at *any* byte, or with *any* byte
  changed — is detected and treated as a miss, never trusted and never
  an exception;
* the key is a pure content hash of the cell's behavioural inputs:
  changing any simulation input changes it, toggling observational
  flags does not.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from repro.core.config import SimulationConfig
from repro.errors import ResilienceError
from repro.core.simulator import Simulator
from repro.experiments.sweep import SweepPoint, cell_inputs
from repro.failures.synthetic import BurstFailureModel
from repro.metrics.serialize import report_to_dict
from repro.resilience import CellStore, cell_key
from repro.resilience.store import TMP_PREFIX

POINT = SweepPoint("nasa", 12, 1.0, 2, "balancing", 0.3)
MODEL = BurstFailureModel()


@pytest.fixture(scope="module")
def report():
    """One real simulated report (module-scoped: cells are not free)."""
    return Simulator(*cell_inputs(POINT, 0, MODEL, with_obs=False)).run()


class TestRoundTrip:
    def test_put_get_exact(self, tmp_path, report):
        store = CellStore(tmp_path)
        key = cell_key(POINT, 0, MODEL)
        store.put(key, report, point_index=0, seed=0)
        restored = store.get(key)
        assert restored is not None
        # Canonical-dict equality is exact float equality: JSON float
        # round-trip via repr is lossless.
        assert report_to_dict(restored) == report_to_dict(report)
        assert store.hits == 1 and store.corrupt == 0

    def test_missing_key_is_miss(self, tmp_path):
        store = CellStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.misses == 1 and store.corrupt == 0

    def test_put_leaves_no_temp_files(self, tmp_path, report):
        store = CellStore(tmp_path)
        store.put(cell_key(POINT, 0, MODEL), report)
        leftovers = [
            p for p in store.cells_dir.iterdir()
            if p.name.startswith(TMP_PREFIX)
        ]
        assert leftovers == []
        assert store.validate() == []

    def test_len_and_keys(self, tmp_path, report):
        store = CellStore(tmp_path)
        keys = {cell_key(POINT, seed, MODEL) for seed in (0, 1, 2)}
        for key in keys:
            store.put(key, report)
        assert len(store) == 3
        assert set(store.keys()) == keys


class TestCorruptionDetection:
    """Damaged checkpoints are misses, never exceptions, never trusted."""

    @given(data=st.data())
    def test_truncation_detected(self, tmp_path_factory, report, data):
        tmp_path = tmp_path_factory.mktemp("trunc")
        store = CellStore(tmp_path)
        key = cell_key(POINT, 0, MODEL)
        path = store.put(key, report)
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        restored = store.get(key)
        # A truncation can never restore (the trailing checksum field is
        # gone), so the only acceptable outcome is a detected miss.
        assert restored is None
        assert store.corrupt >= 1

    @given(data=st.data())
    def test_byte_flip_never_trusted_wrongly(
        self, tmp_path_factory, report, data
    ):
        tmp_path = tmp_path_factory.mktemp("flip")
        store = CellStore(tmp_path)
        key = cell_key(POINT, 0, MODEL)
        path = store.put(key, report)
        raw = bytearray(path.read_bytes())
        i = data.draw(st.integers(0, len(raw) - 1), label="index")
        flip = data.draw(st.integers(1, 255), label="xor")
        raw[i] ^= flip
        path.write_bytes(bytes(raw))
        restored = store.get(key)
        # Either the damage is detected (miss) or it only touched
        # non-semantic bytes (whitespace-free JSON has none, but the
        # un-checksummed annotations exist) and the restored payload is
        # still byte-identical to the original.
        if restored is not None:
            assert report_to_dict(restored) == report_to_dict(report)

    def test_wrong_key_rename_rejected(self, tmp_path, report):
        store = CellStore(tmp_path)
        key = cell_key(POINT, 0, MODEL)
        other = cell_key(POINT, 1, MODEL)
        path = store.put(key, report)
        path.rename(store.path_for(other))
        assert store.get(other) is None
        assert store.corrupt == 1

    def test_unknown_schema_rejected(self, tmp_path, report):
        store = CellStore(tmp_path)
        key = cell_key(POINT, 0, MODEL)
        path = store.put(key, report)
        envelope = json.loads(path.read_text())
        envelope["schema"] = 999
        path.write_text(json.dumps(envelope))
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_schema_1_cell_is_a_counted_miss_never_restored(self, tmp_path, report):
        """A cell file exactly as the pre-schema-2 store wrote it — valid
        checksum and all — is recomputed, not migrated."""
        store = CellStore(tmp_path)
        key = cell_key(POINT, 0, MODEL)
        payload = report_to_dict(report)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        store.path_for(key).write_text(json.dumps({
            "schema": 1, "key": key, "point_index": 0, "seed": 0,
            "payload": payload,
            "payload_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        }))
        assert store.get(key) is None
        assert (store.hits, store.misses, store.corrupt) == (0, 1, 1)
        assert store.validate() == [f"{key}.json: fails integrity check"]

    def test_non_finite_number_is_a_miss_not_an_exception(self, tmp_path, report):
        """``1e999`` parses to infinity; the strict digest must reject
        the file, not raise out of ``get``."""
        store = CellStore(tmp_path)
        key = cell_key(POINT, 0, MODEL)
        path = store.put(key, report)
        text = path.read_text().replace('"n_failures":2', '"n_failures":1e999')
        assert text != path.read_text()
        path.write_text(text)
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_tampered_payload_fails_checksum(self, tmp_path, report):
        store = CellStore(tmp_path)
        key = cell_key(POINT, 0, MODEL)
        path = store.put(key, report)
        envelope = json.loads(path.read_text())
        envelope["payload"]["timing"]["avg_wait"] = 0.0
        path.write_text(json.dumps(envelope))
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_validate_reports_problems_without_skewing_counters(
        self, tmp_path, report
    ):
        store = CellStore(tmp_path)
        good = cell_key(POINT, 0, MODEL)
        bad = cell_key(POINT, 1, MODEL)
        store.put(good, report)
        store.put(bad, report)
        store.path_for(bad).write_text("{ truncated")
        (store.cells_dir / f"{TMP_PREFIX}stray.json").write_text("x")
        problems = store.validate()
        assert len(problems) == 2
        assert any("temp file" in p for p in problems)
        assert any(f"{bad}.json" in p for p in problems)
        assert (store.hits, store.misses, store.corrupt) == (0, 0, 0)

    def test_unwritable_root_raises_resilience_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(ResilienceError):
            CellStore(blocker / "store")


class TestCellKey:
    def test_stable_and_hex(self):
        a = cell_key(POINT, 0, MODEL)
        assert a == cell_key(POINT, 0, MODEL)
        assert len(a) == 64 and int(a, 16) >= 0

    @pytest.mark.parametrize(
        "variant",
        [
            dataclasses.replace(POINT, n_jobs=13),
            dataclasses.replace(POINT, parameter=0.31),
            dataclasses.replace(POINT, policy="krevat"),
            dataclasses.replace(
                POINT, config=SimulationConfig(migration=False)
            ),
        ],
    )
    def test_behavioural_inputs_change_key(self, variant):
        assert cell_key(variant, 0, MODEL) != cell_key(POINT, 0, MODEL)

    def test_seed_and_model_change_key(self):
        assert cell_key(POINT, 1, MODEL) != cell_key(POINT, 0, MODEL)
        bursty = BurstFailureModel(burst_size_p=0.9)
        assert cell_key(POINT, 0, bursty) != cell_key(POINT, 0, MODEL)

    def test_observational_flags_do_not_change_key(self):
        base = cell_key(POINT, 0, MODEL)
        for flags in (
            dict(trace=True),
            dict(profile=True),
            dict(check_invariants=True),
            dict(trace=True, profile=True, check_invariants=True),
        ):
            toggled = dataclasses.replace(
                POINT, config=SimulationConfig(**flags)
            )
            assert cell_key(toggled, 0, MODEL) == base

    @pytest.mark.parametrize(
        "field", dataclasses.fields(SimulationConfig), ids=lambda f: f.name
    )
    def test_every_config_field_is_classified(self, field):
        """The dataclass is the schema: a ``SimulationConfig`` field is in
        the cell key by being declared, and out of it only by carrying
        the ``observational`` mark — a new field cannot silently stay
        out of the key."""
        config = dataclasses.replace(
            POINT.config, **{field.name: _perturbed(getattr(POINT.config, field.name))}
        )
        changed = cell_key(dataclasses.replace(POINT, config=config), 0, MODEL)
        if field.metadata.get("observational"):
            assert changed == cell_key(POINT, 0, MODEL)
        else:
            assert changed != cell_key(POINT, 0, MODEL)

    def test_three_fields_are_marked_observational(self):
        marked = {
            f.name
            for f in dataclasses.fields(SimulationConfig)
            if f.metadata.get("observational")
        }
        assert marked == {"trace", "profile", "check_invariants"}


def _perturbed(value):
    """A different valid value of the same type, for any config field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{first: _perturbed(getattr(value, first))})
    return value + 1
