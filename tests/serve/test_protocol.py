"""NDJSON wire protocol: framing, validation, and error envelopes."""

from __future__ import annotations

import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError, ServeError
from repro.geometry.torus import MAX_JOB_ID
from repro.records import canonical_json
from repro.serve import protocol
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode,
    error_response,
    refusal,
    validate_request,
)


class TestFraming:
    def test_encode_is_newline_terminated_compact_json(self):
        raw = encode({"op": "ping", "id": 3})
        assert raw.endswith(b"\n")
        assert b" " not in raw.rstrip(b"\n")
        assert json.loads(raw) == {"op": "ping", "id": 3}

    def test_encode_sorts_keys_deterministically(self):
        a = encode({"b": 1, "a": 2})
        b = encode({"a": 2, "b": 1})
        assert a == b

    def test_encode_bytes_are_compact_sorted_json_dumps(self):
        """The shared encoder writes what ``json.dumps`` wrote before it."""
        for msg in (
            {"ok": True, "queued": 0, "id": 7},
            {"ok": False, "rejected": True, "retry_after": 0.064,
             "error": "tenant 't\u00e9' queue is full", "id": 3},
            {"ok": True, "tenants": {"b": {"weight": 1.0}, "a": {"depth": 2}},
             "watermark": None, "values": [1, 2.5, 1e-7, 1e22]},
        ):
            expected = json.dumps(msg, sort_keys=True, separators=(",", ":"))
            assert encode(msg) == expected.encode("utf-8") + b"\n"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_encode_refuses_non_finite_numbers(self, value):
        """``Infinity`` / ``NaN`` are not RFC 8259 JSON: raise, never write."""
        with pytest.raises(ValueError):
            encode({"ok": True, "stats": {"watermark": value}})

    def test_round_trip(self):
        msg = {"op": "submit", "id": 1, "size": 4, "runtime": 60.0}
        assert decode_line(encode(msg)) == msg

    def test_decode_accepts_str_and_bytes(self):
        assert decode_line('{"op":"ping"}') == {"op": "ping"}
        assert decode_line(b'{"op":"ping"}\n') == {"op": "ping"}

    def test_oversize_line_rejected(self):
        blob = b'{"op":"' + b"x" * MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_line(blob)

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"{nope")

    def test_integer_past_the_digit_limit_rejected(self):
        """``json.loads`` raises a bare ``ValueError`` on it."""
        line = b'{"op":"status","id":' + b"9" * 5000 + b"}"
        with pytest.raises(ProtocolError, match="not valid JSON.*4300 digits"):
            decode_line(line)

    def test_brackets_nested_past_the_recursion_limit_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON.*recursion"):
            decode_line(b"[" * 30_000)

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_line(b"[1,2,3]")

    def test_bad_utf8_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b'\xff\xfe{"op":"ping"}')


def json_loads_decode_line(line):
    """``decode_line`` as it was over ``json.loads``: the reference the
    scanner-first decoder must match value for value, message for message."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def outcome(decode, line):
    """What ``decode`` makes of ``line``: the value's repr (``NaN`` and
    ``-0.0`` compare by it) or the refusal's message."""
    try:
        return "value", repr(decode(line))
    except ProtocolError as exc:
        return "refused", str(exc)


CANONICAL = encode(
    {"op": "submit", "id": 7, "size": 4, "runtime": 120.0, "arrival": 0.5,
     "estimate": 1e16, "tenant": "t\u00e9\u4e2d\U0001f600", "x": [None, True, -0.0]}
).rstrip(b"\n")
DECODER_LINES = [
    CANONICAL,
    CANONICAL + b"\n",
    b'{"op":"ping"}',
    b"{}",
    b'{"a":"\\u00e9\\ud800\\n","b":{"c":[1,2.5e-3,-4E+2]}}',
    # padded
    b" " + CANONICAL,
    CANONICAL + b" ",
    b"\t" + CANONICAL + b"\n\n",
    CANONICAL + b"\r",
    CANONICAL + b"\r\n",
    b"\r" + CANONICAL,
    # trailing data
    CANONICAL + CANONICAL,
    CANONICAL + b" x",
    CANONICAL + b"\nx",
    CANONICAL + b"\n" + CANONICAL,
    b'{"op":"ping"}]',
    # truncated
    CANONICAL[:-1],
    CANONICAL[: len(CANONICAL) // 2],
    CANONICAL[: len(CANONICAL) // 2] + b"\n",
    b'{"op":',
    b'{"op":\n',
    b"{",
    b"",
    b"\n",
    b'{"op":"pi',
    # not UTF-8, and a byte-order mark
    b'{"op":"\xff"}',
    b'{"op":"\xe2\x82"}',
    b'{"op":"\xe2\x82',
    b"\xef\xbb\xbf" + CANONICAL,
    # the parser's non-standard constants
    b'{"runtime":NaN}',
    b'{"runtime":Infinity,"arrival":-Infinity}',
    b'{"runtime":1e999}',
    b'{"runtime":nan}',
    # an int past the 4300-digit limit, and one just inside it
    b'{"op":"status","id":' + b"9" * 5000 + b"}",
    b'{"op":"status","id":' + b"9" * 4300 + b"}",
    # nesting past the recursion limit
    b"[" * 30_000 + b"]" * 30_000,
    b'{"a":' * 30_000 + b"1" + b"}" * 30_000,
    b"[" * 30_000,
    # not an object
    b"[1,2,3]",
    b'"op"',
    b"3",
    b"null",
    # duplicate keys: the last wins
    b'{"op":"ping","op":"stats"}',
]


class TestDecoderEquivalence:
    """The scanner-first ``decode_line`` against ``json.loads``."""

    @pytest.mark.parametrize("line", DECODER_LINES, ids=range(len(DECODER_LINES)))
    def test_every_line_decodes_or_is_refused_as_json_loads_did(self, line):
        assert outcome(decode_line, line) == outcome(json_loads_decode_line, line)
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return
        assert outcome(decode_line, text) == outcome(json_loads_decode_line, text)

    @settings(max_examples=300)
    @given(
        st.binary(max_size=40)
        | st.sampled_from(DECODER_LINES[:5]).flatmap(
            lambda line: st.tuples(st.binary(max_size=3), st.binary(max_size=3)).map(
                lambda pad: pad[0] + line + pad[1]
            )
        )
    )
    def test_arbitrary_bytes_decode_as_json_loads_did(self, line):
        assert outcome(decode_line, line) == outcome(json_loads_decode_line, line)


class TestValidation:
    def test_known_ops_pass(self):
        assert validate_request({"op": "ping"}) == "ping"
        assert (
            validate_request({"op": "submit", "id": 1, "size": 2, "runtime": 1.0})
            == "submit"
        )
        assert validate_request({"op": "cancel", "id": 1}) == "cancel"
        assert validate_request({"op": "drain"}) == "drain"

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError, match="op"):
            validate_request({"id": 1})

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "explode"})

    def test_missing_required_field_named(self):
        with pytest.raises(ProtocolError, match="runtime"):
            validate_request({"op": "submit", "id": 1, "size": 2})

    @pytest.mark.parametrize(
        "field,value",
        [("id", "seven"), ("id", True), ("size", 2.5), ("runtime", "fast")],
    )
    def test_wrong_field_types_rejected(self, field, value):
        msg = {"op": "submit", "id": 1, "size": 2, "runtime": 1.0}
        msg[field] = value
        with pytest.raises(ProtocolError, match=field):
            validate_request(msg)

    @pytest.mark.parametrize("field", ["runtime", "estimate", "arrival"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_rejected(self, field, value):
        msg = {"op": "submit", "id": 1, "size": 2, "runtime": 1.0}
        msg[field] = value
        with pytest.raises(ProtocolError, match=f"'{field}' must be finite"):
            validate_request(msg)

    @pytest.mark.parametrize(
        "number",
        ["1e999", "-1e999", "NaN", "Infinity", pytest.param("1" + "0" * 400, id="1e400-as-int")],
    )
    def test_non_finite_numbers_rejected_as_they_arrive(self, number):
        """The wire spellings Python's parser accepts, and an integer
        too large for a float (``float()`` of it would overflow)."""
        line = '{"op":"submit","id":1,"size":4,"runtime":%s,"arrival":0}' % number
        with pytest.raises(ProtocolError, match="'runtime' must be finite"):
            validate_request(decode_line(line))

    @pytest.mark.parametrize(
        "field,value",
        [("estimate", -1), ("estimate", 0), ("estimate", -2.5), ("runtime", 0),
         ("runtime", -1), ("runtime", -0.0)],
    )
    def test_non_positive_durations_rejected(self, field, value):
        msg = {"op": "submit", "id": 1, "size": 2, "runtime": 1.0}
        msg[field] = value
        with pytest.raises(ProtocolError, match=f"'{field}' must be positive"):
            validate_request(msg)

    def test_arrival_may_be_zero_or_negative(self):
        for arrival in (0, 0.0, -5.0):
            msg = {"op": "submit", "id": 1, "size": 2, "runtime": 1.0, "arrival": arrival}
            assert validate_request(msg) == "submit"

    def test_subclasses_get_the_isinstance_verdict(self):
        """The exact-type fast path must not change a verdict: an int or
        str subclass passes where ``isinstance`` passed it, a bool never
        counts as a number."""

        class Count(int):
            pass

        class Name(str):
            pass

        class Seconds(float):
            pass

        msg = {"op": Name("submit"), "id": Count(3), "size": Count(2),
               "runtime": Seconds(1.5), "estimate": Count(2), "tenant": Name("a")}
        assert validate_request(msg) == "submit"
        for field in ("id", "size", "runtime", "estimate", "arrival"):
            bad = {"op": "submit", "id": 1, "size": 2, "runtime": 1.0, field: False}
            with pytest.raises(ProtocolError, match=field):
                validate_request(bad)
        with pytest.raises(ProtocolError, match="non-negative"):
            validate_request({"op": "status", "id": Count(-1)})

    def test_error_response_envelope(self):
        resp = error_response(ServeError("boom"), id=4)
        assert resp["ok"] is False
        assert resp["error"] == "boom"
        assert resp["id"] == 4


def json_dumps_line(message) -> bytes:
    """The reference wire line: ``json.dumps`` as the codec is held to."""
    text = json.dumps(message, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return (text + "\n").encode()


def templated(message) -> bytes:
    """``encode(message)``, failing unless the refusal template wrote it."""
    with mock.patch.object(protocol, "_ENCODE", side_effect=AssertionError("not templated")):
        return encode(message)


def refused(tenant: str, job_id: int, retry_after: float = 0.256) -> dict:
    """A refusal as ``ServeEngine.handle`` answers it."""
    return {**refusal(tenant, retry_after), "id": job_id}


#: Tenant names whose ``repr`` and JSON escapes differ most: a quote, a
#: backslash, U+2028, non-ASCII, a lone surrogate, empty, and 10 kB.
_ODD_TENANTS = (
    'quote"d', "back\\slash", "line\u2028sep", "télé", "日本",
    json.loads('"\\ud800"'), "", "xé\"\\" * 2500,
)


class TestRefusalLine:
    """``encode`` formats a full-queue refusal from a template and sends
    everything else to ``canonical_json``: both must write the bytes
    ``json.dumps`` writes."""

    @pytest.mark.parametrize("job_id", [0, MAX_JOB_ID, 2**70])
    @pytest.mark.parametrize("tenant", _ODD_TENANTS, ids=range(len(_ODD_TENANTS)))
    def test_odd_tenants_and_ids(self, tenant, job_id):
        message = refused(tenant, job_id)
        assert templated(message) == json_dumps_line(message)
        assert json.loads(templated(message))["error"] == f"tenant {tenant!r} queue is full"

    @settings(max_examples=300, deadline=None)
    @given(
        tenant=st.text(),
        job_id=st.integers(0, 2**80),
        retry_after=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_any_refusal(self, tenant, job_id, retry_after):
        message = refused(tenant, job_id, retry_after)
        assert templated(message) == json_dumps_line(message)

    @pytest.mark.parametrize(
        "change",
        [
            {"extra": 1},
            {"retry_after": 1},
            {"id": True},
            {"id": 3.0},
            {"ok": 0},
            {"rejected": 1},
            {"error": None},
        ],
        ids=["sixth key", "int retry_after", "bool id", "float id", "int ok",
             "int rejected", "null error"],
    )
    def test_a_look_alike_goes_to_canonical_json(self, change):
        message = {**refused("t", 5), **change}
        with mock.patch.object(protocol, "_ENCODE", wraps=canonical_json) as codec:
            assert encode(message) == json_dumps_line(message)
        codec.assert_called_once_with(message)

    def test_a_missing_key_goes_to_canonical_json(self):
        message = refused("t", 5)
        del message["error"]
        message["queued"] = 0
        assert encode(message) == json_dumps_line(message)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_retry_after_raises_as_canonical_json_does(self, value):
        """``SchedulerService._answer`` turns that ``ValueError`` into an
        error line, so the template must not write the number."""
        message = {**refused("t", 5), "retry_after": value}
        with pytest.raises(ValueError) as encoded:
            encode(message)
        with pytest.raises(ValueError) as canonical:
            canonical_json(message)
        assert str(encoded.value) == str(canonical.value)
