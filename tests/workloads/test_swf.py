"""Tests for the SWF reader/writer."""

from __future__ import annotations

import io

import pytest

from repro.errors import SWFParseError
from repro.workloads.job import Job, Workload
from repro.workloads.swf import parse_swf, read_swf, write_swf

SAMPLE = """\
; Computer: Test Machine
; MaxProcs: 128
; UnixStartTime: 0
1 0 10 300 16 -1 -1 16 600 -1 1 1 1 1 1 -1 -1 -1
2 120 -1 50 8 -1 -1 -1 -1 -1 1 2 1 1 1 -1 -1 -1
3 150 5 0 4 -1 -1 4 100 -1 0 3 1 1 1 -1 -1 -1
4 180 5 75 -1 -1 -1 32 90 -1 1 4 1 1 1 -1 -1 -1
"""


class TestParse:
    def test_basic_fields(self):
        w = parse_swf(io.StringIO(SAMPLE), name="sample")
        assert w.machine_nodes == 128
        ids = [j.job_id for j in w]
        assert ids == [1, 2, 4]  # job 3 has runtime 0 -> skipped
        j1 = w[0]
        assert j1.arrival == 0.0
        assert j1.size == 16
        assert j1.runtime == 300.0
        assert j1.estimate == 600.0

    def test_allocated_fallback_when_no_request(self):
        w = parse_swf(io.StringIO(SAMPLE))
        j2 = [j for j in w if j.job_id == 2][0]
        assert j2.size == 8          # field 5 fallback
        assert j2.estimate == 50.0   # runtime fallback

    def test_requested_preferred_over_allocated(self):
        w = parse_swf(io.StringIO(SAMPLE))
        j4 = [j for j in w if j.job_id == 4][0]
        assert j4.size == 32

    def test_machine_from_jobs_when_no_header(self):
        text = "1 0 0 100 64 -1 -1 64 -1 -1 1 1 1 1 1 -1 -1 -1\n"
        w = parse_swf(io.StringIO(text))
        assert w.machine_nodes == 64

    def test_short_line_rejected(self):
        with pytest.raises(SWFParseError, match="expected >= 9"):
            parse_swf(io.StringIO("1 2 3\n"))

    @pytest.mark.parametrize(
        "line",
        [
            "1 0 -1 nan 16 -1 -1 16 600 -1 1 1 1 1 1 -1 -1 -1",
            "1 nan -1 300 16 -1 -1 16 600 -1 1 1 1 1 1 -1 -1 -1",
            "1 0 -1 inf 16 -1 -1 16 600 -1 1 1 1 1 1 -1 -1 -1",
            "1 0 -1 300 16 -1 -1 16 inf -1 1 1 1 1 1 -1 -1 -1",
        ],
        ids=["nan-runtime", "nan-submit", "inf-runtime", "inf-requested-time"],
    )
    def test_non_finite_time_rejected_with_its_line(self, line):
        with pytest.raises(SWFParseError, match="line 2: job 1"):
            parse_swf(io.StringIO("; MaxProcs: 128\n" + line + "\n"))

    def test_non_numeric_rejected(self):
        with pytest.raises(SWFParseError, match="non-numeric"):
            parse_swf(io.StringIO("a b c d e f g h i\n"))

    def test_bad_maxprocs_header(self):
        with pytest.raises(SWFParseError, match="MaxProcs"):
            parse_swf(io.StringIO("; MaxProcs: lots\n"))

    def test_blank_lines_ignored(self):
        w = parse_swf(io.StringIO("\n\n; comment\n\n"))
        assert len(w) == 0


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        original = Workload(
            "rt",
            128,
            (
                Job(1, 0.0, 16, 300.0, 600.0),
                Job(2, 120.0, 8, 50.0, 100.0),
                Job(3, 500.0, 128, 7200.0, 7200.0),
            ),
        )
        path = tmp_path / "trace.swf"
        write_swf(original, path)
        back = read_swf(path)
        assert back.machine_nodes == 128
        assert len(back) == len(original)
        for a, b in zip(original, back):
            assert a.job_id == b.job_id
            assert a.size == b.size
            assert a.arrival == pytest.approx(b.arrival)
            assert a.runtime == pytest.approx(b.runtime)
            assert a.estimate == pytest.approx(b.estimate)

    def test_write_returns_text(self):
        w = Workload("t", 64, (Job(0, 0.0, 4, 10.0),))
        text = write_swf(w)
        assert "MaxProcs: 64" in text
        assert len(text.splitlines()) == 4  # 3 headers + 1 job

    def test_written_lines_have_18_fields(self):
        w = Workload("t", 64, (Job(0, 0.0, 4, 10.0),))
        line = write_swf(w).splitlines()[-1]
        assert len(line.split()) == 18
