"""Tests for the trace toolchain (summarize / diff / validate)."""

from __future__ import annotations

from repro.obs.schema import TRACE_SCHEMA_VERSION, validate_stream
from repro.obs.tools import (
    diff_traces,
    format_summary,
    headers_differ,
    summarize_trace,
)


def header(**overrides):
    record = {
        "kind": "header", "t": 0.0, "seq": 0,
        "schema": TRACE_SCHEMA_VERSION, "policy": "balancing",
        "workload": "w", "dims": [8, 4, 2], "seed": 0,
    }
    record.update(overrides)
    return record


def make_trace():
    return [
        header(),
        {"kind": "arrival", "t": 1.0, "seq": 1, "job": 0, "size": 4},
        {"kind": "dispatch", "t": 1.0, "seq": 2, "job": 0, "size": 4,
         "base": [0, 0, 0], "shape": [1, 2, 2], "via": "fcfs", "wall": 30.0},
        {"kind": "failure", "t": 5.0, "seq": 3, "node": [1, 1, 1],
         "killed_job": 0},
        {"kind": "finish", "t": 9.0, "seq": 4, "job": 0},
    ]


class TestSummarize:
    def test_summary_contents(self):
        summary = summarize_trace(make_trace())
        assert summary["n_records"] == 5
        assert summary["kinds"]["arrival"] == 1
        assert summary["n_jobs_seen"] == 1
        assert summary["t_span"] == (1.0, 9.0)
        assert summary["job_kills"] == 1
        assert summary["header"]["policy"] == "balancing"

    def test_idle_failure_not_a_kill(self):
        trace = make_trace()
        trace[3] = dict(trace[3], killed_job=None)
        assert summarize_trace(trace)["job_kills"] == 0

    def test_format_summary_renders(self):
        text = format_summary(summarize_trace(make_trace()))
        assert "policy=balancing" in text
        assert "5 records" in text

    @staticmethod
    def candidates(seq, n):
        return {"kind": "candidates", "t": 2.0, "seq": seq, "job": seq,
                "size": 4, "policy": "balancing", "n_candidates": n,
                "considered": {"base": [[0, 0, 0]], "shape": [[1, 2, 2]]},
                "truncated": False,
                "chosen": {"base": [0, 0, 0], "shape": [1, 2, 2]}}

    def test_candidate_average_is_over_every_decision(self):
        candidates = self.candidates
        summary = summarize_trace([header(), candidates(1, 10), candidates(2, 30)])
        assert summary["avg_candidates"] == 20.0
        assert "avg_candidate_set=20.0" in format_summary(summary)

    def test_forced_decisions_counted(self):
        """A decision with one candidate was placed unscored; the summary
        counts them and their share of all decisions."""
        trace = [header(), *(self.candidates(seq, n) for seq, n in
                             enumerate([1, 5, 1, 1], start=1))]
        assert validate_stream(trace) == []
        summary = summarize_trace(trace)
        assert (summary["forced"], summary["forced_share"]) == (3, 0.75)
        assert "forced=3 (75%)" in format_summary(summary)

    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary["n_records"] == 0
        assert summary["avg_candidates"] == 0.0
        assert (summary["forced"], summary["forced_share"]) == (0, 0.0)
        assert summary["t_span"] == (None, None)
        assert "(empty)" in format_summary(summary)


class TestDiff:
    def test_identical_traces(self):
        assert diff_traces(make_trace(), make_trace()) is None

    def test_header_only_difference_is_not_divergence(self):
        a, b = make_trace(), make_trace()
        b[0] = header(seed=99)
        assert diff_traces(a, b) is None
        assert headers_differ(a, b) == ("seed",)

    def test_first_divergent_decision_pinpointed(self):
        a, b = make_trace(), make_trace()
        b[2] = dict(b[2], base=[4, 0, 0])
        divergence = diff_traces(a, b)
        assert divergence is not None
        assert divergence.index == 1  # decision stream excludes header
        assert divergence.fields == ("base",)
        assert "dispatch" in divergence.describe()

    def test_length_mismatch(self):
        a = make_trace()
        b = make_trace()[:-1]
        divergence = diff_traces(a, b)
        assert divergence is not None
        assert divergence.index == 3
        assert divergence.record_b is None
        assert "ended" in divergence.describe()

    def test_divergence_after_truncated_side(self):
        divergence = diff_traces(make_trace()[:1], make_trace())
        assert divergence.record_a is None
        assert "second" in divergence.describe()


class TestValidate:
    def test_valid_trace(self):
        assert validate_stream(make_trace()) == []

    def test_broken_trace(self):
        trace = make_trace()
        del trace[2]["via"]
        errors = validate_stream(trace)
        assert any("via" in e for e in errors)
