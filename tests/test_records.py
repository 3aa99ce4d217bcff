"""The record layer (:mod:`repro.records`): codec, encoder, durable write.

* the codec round-trips every dataclass a record holds, from the
  dataclass's own declaration — and refuses anything else whole;
* there is one encoder object, and the trace recorder and the wire
  protocol hold *it*, not a copy;
* every durable record (cell, queue task, ``quarantine.json``) is
  fsynced before its rename and its directory after.
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.experiments.sweep as sweep_mod
from repro.core.simulator import Simulator
from repro.checkpoint.model import CheckpointConfig, CheckpointMode
from repro.core.config import BackfillMode, SimulationConfig
from repro.experiments.queue import QueueTask, WorkQueue
from repro.experiments.sweep import SweepPoint
from repro.failures.synthetic import BurstFailureModel
from repro.geometry.coords import TorusDims
from repro.metrics.timing import BoundedSlowdownRule
from repro.prediction.base import PartitionFailureRule
from repro.records import (
    TMP_PREFIX,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
    from_plain,
    read_json,
    to_plain,
)
from repro.resilience import (
    CellStore,
    ChaosConfig,
    Quarantine,
    QuarantineEntry,
    cell_key,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-9, max_value=1e12)
non_negative = st.floats(min_value=0.0, max_value=1e12)
unit = st.floats(min_value=0.0, max_value=1.0)
counts = st.integers(min_value=1, max_value=10**9)
cell_ids = st.lists(
    st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=4
).map(tuple)

configs = st.builds(
    SimulationConfig,
    dims=st.builds(TorusDims, *[st.integers(1, 8)] * 3),
    backfill=st.sampled_from(BackfillMode),
    migration=st.booleans(),
    migration_cost_s=non_negative,
    gamma=positive,
    slowdown_rule=st.sampled_from(BoundedSlowdownRule),
    checkpoint=st.builds(
        CheckpointConfig,
        mode=st.sampled_from(CheckpointMode),
        interval_s=positive,
        overhead_s=non_negative,
        hit_probability=unit,
    ),
    seed=st.integers(),
    trace=st.booleans(),
    profile=st.booleans(),
    max_events=counts,
)
points = st.builds(
    SweepPoint,
    site=st.text(max_size=8),
    n_jobs=counts,
    load_scale=finite,
    n_failures=st.integers(0, 10**6),
    policy=st.text(max_size=8),
    parameter=finite,
    pf_rule=st.sampled_from(PartitionFailureRule),
    config=configs,
)
models = st.builds(
    BurstFailureModel,
    mean_burst_interarrival_s=positive,
    burst_size_p=st.floats(min_value=1e-6, max_value=1.0),
    locality_radius=st.integers(0, 9),
    burst_window_s=non_negative,
)
chaos_configs = st.builds(
    ChaosConfig,
    seed=st.integers(),
    kill_cells=cell_ids,
    kill_attempts=counts,
    kill_rate=unit,
    raise_cells=cell_ids,
    raise_attempts=counts,
    raise_rate=unit,
    delay_cells=cell_ids,
    delay_s=non_negative,
    corrupt_cells=cell_ids,
)
quarantine_entries = st.builds(
    QuarantineEntry,
    point_index=st.integers(0, 999),
    seed_index=st.integers(0, 99),
    seed=st.integers(),
    attempts=counts,
    error_type=st.text(max_size=12),
    error=st.text(max_size=40),
    key=st.none() | st.text("0123456789abcdef", min_size=64, max_size=64),
)


class TestCodecRoundTrip:
    @given(x=st.one_of(points, models, chaos_configs, quarantine_entries))
    def test_through_json_text_and_back(self, x):
        plain = json.loads(canonical_json(to_plain(x)))
        restored = from_plain(type(x), plain)
        assert restored == x
        assert canonical_json(to_plain(restored)) == canonical_json(to_plain(x))

    @given(point=points, model=models, chaos=st.none() | chaos_configs)
    def test_task_record_keeps_its_call_and_its_key(self, point, model, chaos):
        call = ((3, 1), point, 7, 2, model, False, chaos, None, True, 64)
        task = QueueTask(*call)
        plain = json.loads(canonical_json(to_plain(task)))
        assert plain["cell_id"] == [3, 1] and plain["attempt"] == 2
        restored = from_plain(QueueTask, plain)
        assert restored == task
        assert restored.call == call
        assert restored.key == cell_key(point, 7, model)

    def test_an_int_in_a_float_field_comes_back_an_int(self):
        """``load_scale=1`` and ``load_scale=1.0`` are equal but encode
        differently; a worker must rebuild the bytes the key was hashed
        from, so the codec never coerces."""
        point = SweepPoint("nasa", 12, 1, 2, "krevat", 0)
        restored = from_plain(SweepPoint, json.loads(canonical_json(to_plain(point))))
        assert cell_key(restored, 0, BurstFailureModel()) == cell_key(
            point, 0, BurstFailureModel()
        )


POINT = SweepPoint("nasa", 12, 1.0, 2, "balancing", 0.3)


def _edited(path: tuple, value):
    """``to_plain(POINT)`` with the entry at ``path`` replaced (or, for
    ``value is KeyError``, removed)."""
    plain = to_plain(POINT)
    node = plain
    for name in path[:-1]:
        node = node[name]
    if value is KeyError:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return plain


class TestCodecRefusal:
    @pytest.mark.parametrize(
        "path, value",
        [
            (("surprise",), 1),
            (("config", "surprise"), 1),
            (("n_jobs",), KeyError),
            (("config", "checkpoint", "mode"), KeyError),
            (("n_jobs",), "12"),
            (("n_jobs",), True),
            (("n_jobs",), 12.5),
            (("site",), 5),
            (("config", "migration"), 1),
            (("config", "backfill"), "optimistic"),
            (("pf_rule",), "MAX"),  # the name; records hold the value
            (("config", "dims"), [4, 4, 8]),
            (("config", "dims", "x"), 0),  # TorusDims' own validation
            (("config", "gamma"), -1.0),  # SimulationConfig's own
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else getattr(v, "__name__", repr(v)),
    )
    def test_one_wrong_entry_refuses_the_record_whole(self, path, value):
        with pytest.raises(ValueError):
            from_plain(SweepPoint, _edited(path, value))

    @pytest.mark.parametrize("plain", [None, [], "point", 3])
    def test_a_non_object_is_refused(self, plain):
        with pytest.raises(ValueError):
            from_plain(SweepPoint, plain)

    def test_tuples_are_checked_per_position(self):
        assert from_plain(tuple[int, str], [1, "a"]) == (1, "a")
        assert from_plain(tuple[int, ...], []) == ()
        for bad in ([1], [1, "a", 2], ["a", 1], (1, "a"), None):
            with pytest.raises(ValueError):
                from_plain(tuple[int, str], bad)

    def test_optional_is_the_only_union(self):
        assert from_plain(float | None, None) is None
        assert from_plain(float | None, 2.5) == 2.5
        with pytest.raises(ValueError):
            from_plain(float, None)


class TestDeclaredOnce:
    def test_a_new_config_field_enters_key_and_task_record_unaided(
        self, tmp_path, monkeypatch
    ):
        """Declaring a field on the config dataclass is the whole edit:
        it changes the cell key and survives the queue's task file."""

        @dataclasses.dataclass(frozen=True)
        class ConfigWithKnob(SimulationConfig):
            knob: int = 0

        # What editing ``SimulationConfig`` in place would amount to.
        monkeypatch.setattr(sweep_mod, "SimulationConfig", ConfigWithKnob)
        model = BurstFailureModel()
        base = dataclasses.replace(POINT, config=ConfigWithKnob())
        turned = dataclasses.replace(POINT, config=ConfigWithKnob(knob=7))
        assert cell_key(turned, 0, model) != cell_key(base, 0, model)
        # Still out of the key: the inherited observational marks.
        traced = dataclasses.replace(POINT, config=ConfigWithKnob(knob=7, trace=True))
        assert cell_key(traced, 0, model) == cell_key(turned, 0, model)

        queue = WorkQueue(tmp_path)
        queue.put(QueueTask((0, 0), traced, 0, 0, model, False, None, None, True, 64))
        point = queue.claim().point
        assert point == traced and point.config.knob == 7


#: Every code point, lone surrogates and control characters included.
any_text = st.text(
    st.characters(min_codepoint=0, max_codepoint=0x10FFFF, categories=None)
)
json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | finite
    | finite.map(np.float64)
    | st.sampled_from([-0.0, 1e16, 5e-324, 2**64, -(2**64) - 1])
    | any_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(any_text, children, max_size=4),
    max_leaves=24,
)
#: Encoded after each refusal: a failed call must leave nothing behind.
_AFTER = {"z": [1, 2.5, None, True], "a": "\u00e9\x01", "m": -0.0}


def _dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


class TestCanonicalEncoder:
    def test_sorted_compact_and_strict(self):
        assert canonical_json({"b": [1, 2.5], "a": None}) == '{"a":null,"b":[1,2.5]}'
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                canonical_json({"x": bad})

    def test_trace_and_wire_hold_the_encoder_itself(self):
        import repro.obs.trace as trace_mod
        import repro.serve.protocol as protocol_mod

        assert trace_mod._encode is canonical_json
        assert protocol_mod._ENCODE is canonical_json

    @given(json_trees)
    def test_the_prebuilt_encoder_writes_what_json_dumps_writes(self, value):
        assert canonical_json(value) == _dumps(value)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (float("nan"), ValueError),
            (float("inf"), ValueError),
            ({"x": [float("-inf")]}, ValueError),
            ({1, 2}, TypeError),
            ({"x": np.int64(3)}, TypeError),
        ],
    )
    def test_refusals_carry_the_stdlib_message_and_leave_no_state(
        self, bad, error
    ):
        with pytest.raises(error) as ours:
            canonical_json(bad)
        with pytest.raises(error) as stdlib:
            _dumps(bad)
        assert str(ours.value) == str(stdlib.value)
        assert canonical_json(_AFTER) == _dumps(_AFTER)

    def test_a_cyclic_value_raises_and_leaves_no_state(self):
        cyclic: list = [1]
        cyclic.append(cyclic)
        # The prebuilt C encoder keeps no markers, so it recurses out.
        with pytest.raises(RecursionError):
            canonical_json(cyclic)
        assert canonical_json(_AFTER) == _dumps(_AFTER)


class TestDurableWrite:
    @pytest.fixture
    def syscalls(self, monkeypatch):
        """Every ``os.fsync`` / ``os.replace`` as ``(call, what)``."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            calls.append(("fsync", "dir" if is_dir else "file"))
            return real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.basename(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return calls

    def test_cell_task_and_quarantine_fsync_before_rename_and_dir_after(
        self, tmp_path, syscalls
    ):
        model = BurstFailureModel()
        report = Simulator(*sweep_mod.cell_inputs(POINT, 0, model, with_obs=False)).run()
        key = cell_key(POINT, 0, model)
        queue = WorkQueue(tmp_path)
        task = QueueTask((0, 0), POINT, 0, 0, model, False, None, None, True, 64)
        for write, name in (
            (lambda: CellStore(tmp_path).put(key, report), f"{key}.json"),
            (lambda: queue.put(task), f"{key}.json"),
            (lambda: Quarantine().write(tmp_path / "quarantine.json"), "quarantine.json"),
        ):
            del syscalls[:]
            write()
            assert syscalls == [("fsync", "file"), ("replace", name), ("fsync", "dir")]

    def test_interrupt_removes_the_temp_file(self, tmp_path, monkeypatch):
        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_json(tmp_path / "record.json", {"a": 1})
        assert list(tmp_path.iterdir()) == []

    def test_unencodable_value_leaves_nothing_behind(self, tmp_path):
        (tmp_path / "record.json").write_text('{"old":true}')
        with pytest.raises(ValueError):
            atomic_write_json(tmp_path / "record.json", {"x": float("nan")})
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]
        assert read_json(tmp_path / "record.json") == {"old": True}

    def test_failed_text_write_leaves_neither_target_nor_temp(self, tmp_path, monkeypatch):
        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "ready", "127.0.0.1:4000\n")
        assert list(tmp_path.iterdir()) == []

    def test_text_write_is_what_a_reader_reads(self, tmp_path):
        path = atomic_write_text(tmp_path / "ready", "127.0.0.1:4000\n")
        assert path.read_text(encoding="utf-8") == "127.0.0.1:4000\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ready"]

    def test_temp_name_is_one_directory_scans_skip(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(os, "replace", lambda src, dst: seen.append(src))
        atomic_write_json(tmp_path / "record.json", {})
        (tmp,) = seen
        assert tmp.parent == tmp_path and tmp.name.startswith(TMP_PREFIX)

    @pytest.mark.parametrize(
        "content",
        [None, b"", b'{"a": 1', b'{"a": "\xff"}', b"not json", b"[" * 100_000],
        ids=["vanished", "empty", "truncated", "not-utf8", "not-json", "too-deep"],
    )
    def test_reader_answers_none_for_every_unusable_file(self, tmp_path, content):
        path = tmp_path / "record.json"
        if content is not None:
            path.write_bytes(content)
        assert read_json(path) is None

    def test_reader_round_trips_the_writer(self, tmp_path):
        value = {"b": [1, 2.5, None], "a": {"nested": "é"}}
        assert read_json(atomic_write_json(tmp_path / "r.json", value)) == value
