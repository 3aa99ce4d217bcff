"""Tests for JSON report serialisation.

A report travels as ``canonical_json(report_to_dict(r))`` (a cell's
payload, a ``drain`` answer); ``report_from_dict(json.loads(text))``
reads it back.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import quick_simulate
from repro.errors import SimulationError
from repro.metrics.serialize import SCHEMA_VERSION, report_from_dict, report_to_dict
from repro.records import canonical_json


def to_json(report) -> str:
    return canonical_json(report_to_dict(report))


def from_json(text: str):
    return report_from_dict(json.loads(text))


@pytest.fixture(scope="module")
def sample_report():
    return quick_simulate(
        site="nasa", n_jobs=25, n_failures=4, policy="balancing",
        confidence=0.5, seed=1,
    )


class TestRoundTrip:
    def test_dict_round_trip_lossless(self, sample_report):
        restored = report_from_dict(report_to_dict(sample_report))
        assert restored.policy == sample_report.policy
        assert restored.records == sample_report.records
        assert restored.timing == sample_report.timing
        assert restored.capacity == sample_report.capacity
        assert restored.parameters == sample_report.parameters

    def test_records_as_asdict_builds_them(self, sample_report):
        data = report_to_dict(sample_report)
        want = [dataclasses.asdict(r) for r in sample_report.records]
        assert data["records"] == want
        # Same keys in the same order, so the JSON text is unchanged too.
        assert [list(r) for r in data["records"]] == [list(r) for r in want]

    def test_json_round_trip(self, sample_report):
        restored = from_json(to_json(sample_report))
        assert restored.records == sample_report.records
        assert restored.counters == sample_report.counters

    def test_json_is_valid_and_versioned(self, sample_report):
        data = json.loads(to_json(sample_report))
        assert data["schema"] == SCHEMA_VERSION
        assert isinstance(data["records"], list)
        assert len(data["records"]) == 25

    def test_wrong_schema_rejected(self, sample_report):
        data = report_to_dict(sample_report)
        data["schema"] = 999
        with pytest.raises(SimulationError, match="schema"):
            report_from_dict(data)

    def test_missing_schema_rejected(self, sample_report):
        data = report_to_dict(sample_report)
        del data["schema"]
        with pytest.raises(SimulationError):
            report_from_dict(data)

    def test_export_does_not_alias_report(self, sample_report):
        data = report_to_dict(sample_report)
        data["parameters"]["site"] = "mutated"
        assert sample_report.parameters["site"] == "nasa"


class TestEmptyReport:
    """A zero-job run serialises and restores like any other."""

    @pytest.fixture(scope="class")
    def empty_report(self):
        return quick_simulate(n_jobs=0, n_failures=0, seed=3)

    def test_round_trip(self, empty_report):
        restored = from_json(to_json(empty_report))
        assert restored.records == ()
        assert restored.timing == empty_report.timing
        assert restored.capacity == empty_report.capacity
        assert restored.counters == empty_report.counters

    def test_empty_records_and_zero_averages(self, empty_report):
        data = report_to_dict(empty_report)
        assert data["records"] == []
        assert data["timing"]["n_jobs"] == 0
        assert data["timing"]["avg_wait"] == 0.0

    def test_json_stable(self, empty_report):
        # Serialisation is deterministic: same report, same bytes.
        assert to_json(empty_report) == to_json(empty_report)
