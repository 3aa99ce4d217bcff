"""Tests for trace recorders, NDJSON I/O and schema validation."""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import SimulationError
from repro.obs.schema import (
    DECISION_KINDS,
    TRACE_SCHEMA_VERSION,
    validate_record,
    validate_stream,
)
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    iter_trace,
    read_trace,
    write_trace,
)


class TestTraceRecorder:
    def test_buffered_records(self):
        rec = TraceRecorder()
        rec.header(policy="balancing", workload="w", dims=[8, 4, 2], seed=0)
        rec.emit("arrival", 1.5, job=0, size=4)
        assert len(rec) == 2
        assert rec.records[0]["kind"] == "header"
        assert rec.records[0]["schema"] == TRACE_SCHEMA_VERSION
        assert rec.records[1] == {
            "kind": "arrival", "t": 1.5, "seq": 1, "job": 0, "size": 4,
        }

    def test_seq_is_dense(self):
        rec = TraceRecorder()
        for i in range(5):
            rec.emit("arrival", float(i), job=i, size=1)
        assert [r["seq"] for r in rec.records] == list(range(5))

    def test_header_must_be_first(self):
        rec = TraceRecorder()
        rec.emit("arrival", 0.0, job=0, size=1)
        with pytest.raises(SimulationError, match="first"):
            rec.header(policy="p")

    def test_sink_streaming(self):
        sink = io.StringIO()
        rec = TraceRecorder(sink=sink)
        rec.emit("arrival", 0.0, job=0, size=1)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1
        assert '"kind":"arrival"' in lines[0]
        with pytest.raises(SimulationError, match="sink"):
            rec.records

    def test_integer_time_is_written_as_a_float(self):
        sink = io.StringIO()
        TraceRecorder(sink=sink).emit("finish", 3, job=1)
        assert '"t":3.0}' in sink.getvalue()

    def test_enabled_flags(self):
        assert TraceRecorder().enabled is True
        assert NULL_RECORDER.enabled is False

    def test_null_recorder_is_noop(self):
        rec = NullRecorder()
        rec.header(policy="x")
        rec.emit("arrival", 0.0, job=0, size=1)
        assert len(rec) == 0


class TestStrictJson:
    """``NaN``/``Infinity`` are not RFC 8259 JSON: the recorder raises
    rather than write a line a strict parser rejects."""

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_sink_refuses_non_finite_numbers(self, bad):
        sink = io.StringIO()
        rec = TraceRecorder(sink=sink)
        with pytest.raises(ValueError):
            rec.emit("backfill", 0.0, job=1, head_job=0, shadow=bad, est_wall=1.0)
        assert sink.getvalue() == ""

    def test_buffered_emit_refuses_non_finite_numbers(self, tmp_path):
        """A buffered recorder encodes at ``emit`` as a sink does, so the
        refusal comes there and nothing is buffered or written."""
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            rec.emit("backfill", 0.0, job=1, head_job=0, shadow=float("inf"), est_wall=1.0)
        assert len(rec) == 0 and rec.lines == []
        assert rec.write(tmp_path / "t.ndjson").read_bytes() == b""


class TestNdjsonIO:
    def test_round_trip(self, tmp_path):
        rec = TraceRecorder()
        rec.header(policy="p", workload="w", dims=[2, 2, 2], seed=1)
        rec.emit("dispatch", 3.0, job=1, size=8, base=[0, 0, 0],
                 shape=[2, 2, 2], via="fcfs", wall=60.0)
        path = rec.write(tmp_path / "t.ndjson")
        assert read_trace(path) == rec.records

    def test_byte_identical_encoding(self, tmp_path):
        records = [{"kind": "arrival", "t": 0.0, "seq": 0, "job": 3, "size": 2}]
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_trace(records, a)
        write_trace(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"kind":"arrival","t":0.0,"seq":0}\n\n\n')
        assert len(read_trace(path)) == 1

    def test_bad_json_pinpointed(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"kind":"arrival","t":0.0,"seq":0}\nnot-json\n')
        with pytest.raises(SimulationError, match=r"bad\.ndjson:2"):
            list(iter_trace(path))


def json_loads_iter_trace(path):
    """``iter_trace`` as it was over ``json.loads``: the reference the
    scanner-first reader must match record for record, message for
    message."""
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                raise SimulationError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise SimulationError(f"{path}:{lineno}: not a JSON object")
            yield record


def read_outcome(reader, path):
    try:
        return "records", repr(list(reader(path)))
    except (SimulationError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


_GOOD = b'{"kind":"arrival","seq":0,"size":2,"t":0.0,"x":[-0.0,1e16,"\\u00e9"]}'
TRACE_LINES = [
    _GOOD,
    b"  " + _GOOD + b"\t",
    _GOOD + b"\r",
    _GOOD + _GOOD,
    _GOOD + b" x",
    _GOOD[:-1],
    _GOOD[:20],
    b'{"kind":',
    b'{"kind":"\xff"}',
    b'{"kind":"\xe2\x82',
    b"\xef\xbb\xbf" + _GOOD,
    b'{"t":NaN,"u":Infinity,"v":-Infinity}',
    b'{"seq":' + b"7" * 5000 + b"}",
    b"[" * 30_000 + b"]" * 30_000,
    b"[1,2]",
    b"not-json",
]


class TestLineDecoderEquivalence:
    @pytest.mark.parametrize("line", TRACE_LINES, ids=range(len(TRACE_LINES)))
    @pytest.mark.parametrize("newline", [b"\n", b""], ids=["terminated", "last"])
    def test_iter_trace_reads_what_json_loads_read(self, tmp_path, line, newline):
        path = tmp_path / "t.ndjson"
        path.write_bytes(_GOOD + b"\n" + line + newline)
        assert read_outcome(iter_trace, path) == read_outcome(
            json_loads_iter_trace, path
        )


class TestSchema:
    def test_valid_record(self):
        assert validate_record(
            {"kind": "arrival", "t": 0.0, "seq": 0, "job": 1, "size": 2}
        ) == []

    def test_unknown_kind(self):
        errors = validate_record({"kind": "nope", "t": 0.0, "seq": 0})
        assert any("kind" in e for e in errors)

    def test_missing_required_field(self):
        errors = validate_record(
            {"kind": "arrival", "t": 0.0, "seq": 0, "job": 1}
        )
        assert any("size" in e for e in errors)

    CANDIDATES = {
        "kind": "candidates", "t": 2.0, "seq": 3, "job": 1, "size": 8,
        "policy": "krevat", "n_candidates": 2, "truncated": False,
        "considered": {
            "base": [[0, 0, 0], [2, 0, 0]], "shape": [[2, 2, 2], [2, 2, 2]],
            "l_mfp": [0, 8],
        },
        "chosen": {"base": [0, 0, 0], "shape": [2, 2, 2]},
    }

    def test_candidates_record_is_a_decision(self):
        assert validate_record(self.CANDIDATES) == []
        for field in ("chosen", "truncated"):
            record = {k: v for k, v in self.CANDIDATES.items() if k != field}
            assert any(field in e for e in validate_record(record))

    def test_forced_choice_record_has_no_score_column(self):
        forced = {
            **self.CANDIDATES, "n_candidates": 1,
            "considered": {"base": [[0, 0, 0]], "shape": [[2, 2, 2]]},
        }
        assert validate_record(forced) == []

    def test_ragged_table_refused(self):
        considered = {**self.CANDIDATES["considered"], "l_mfp": [0]}
        errors = validate_record({**self.CANDIDATES, "considered": considered})
        assert errors == [
            "candidates record's considered has columns of lengths [1, 2]"
        ]

    def test_list_form_table_refused(self):
        """A schema-2 ``considered`` (one object per candidate)."""
        rows = [{"base": [0, 0, 0], "shape": [2, 2, 2], "l_mfp": 0}]
        errors = validate_record({**self.CANDIDATES, "considered": rows})
        assert errors == ["candidates record's considered is not an object of lists"]

    def test_table_needs_base_and_shape(self):
        considered = {"l_mfp": [0, 8], "shape": [[2, 2, 2], [2, 2, 2]]}
        errors = validate_record({**self.CANDIDATES, "considered": considered})
        assert errors == ["candidates record's considered lacks ['base']"]

    def test_table_longer_than_the_batch_refused(self):
        errors = validate_record({**self.CANDIDATES, "n_candidates": 1})
        assert errors == ["candidates record considers more than n_candidates"]

    @pytest.mark.parametrize("n_candidates", [0, -1, None, 1.5])
    def test_candidates_without_a_candidate_refused(self, n_candidates):
        errors = validate_record({**self.CANDIDATES, "n_candidates": n_candidates})
        assert any("n_candidates" in e for e in errors)

    def test_candidates_with_null_chosen_refused(self):
        errors = validate_record({**self.CANDIDATES, "chosen": None})
        assert any("null chosen" in e for e in errors)

    def test_schema_1_header_refused(self):
        errors = validate_record(
            {"kind": "header", "t": 0.0, "seq": 0, "schema": 1, "policy": "p",
             "workload": "w", "dims": [2, 2, 2], "seed": 0}
        )
        assert errors == ["unsupported trace schema 1 (expected 3)"]

    def test_schema_2_header_refused(self):
        errors = validate_record(
            {"kind": "header", "t": 0.0, "seq": 0, "schema": 2, "policy": "p",
             "workload": "w", "dims": [2, 2, 2], "seed": 0}
        )
        assert errors == ["unsupported trace schema 2 (expected 3)"]

    def test_decision_kinds_exclude_header(self):
        assert "header" not in DECISION_KINDS

    def test_stream_requires_header(self):
        errors = validate_stream(
            [{"kind": "arrival", "t": 0.0, "seq": 0, "job": 1, "size": 2}]
        )
        assert any("header" in e for e in errors)

    def test_stream_checks_seq_density(self):
        stream = [
            {"kind": "header", "t": 0.0, "seq": 0,
             "schema": TRACE_SCHEMA_VERSION, "policy": "p", "workload": "w",
             "dims": [2, 2, 2], "seed": 0},
            {"kind": "arrival", "t": 0.0, "seq": 5, "job": 1, "size": 2},
        ]
        errors = validate_stream(stream)
        assert any("seq" in e for e in errors)

    def test_stream_checks_time_monotonicity(self):
        stream = [
            {"kind": "header", "t": 0.0, "seq": 0,
             "schema": TRACE_SCHEMA_VERSION, "policy": "p", "workload": "w",
             "dims": [2, 2, 2], "seed": 0},
            {"kind": "arrival", "t": 10.0, "seq": 1, "job": 1, "size": 2},
            {"kind": "arrival", "t": 5.0, "seq": 2, "job": 2, "size": 2},
        ]
        errors = validate_stream(stream)
        assert any("time" in e or "decreas" in e for e in errors)

    def test_empty_stream_invalid(self):
        assert validate_stream([]) != []
