"""JSON-friendly serialisation of simulation reports.

Downstream tooling (plotters, dashboards, regression trackers) wants
reports as plain data.  :func:`report_to_dict` flattens a
:class:`~repro.metrics.report.SimulationReport` into JSON-serialisable
primitives; :func:`report_from_dict` restores it losslessly
(round-trip property-tested).
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Any

from repro.errors import SimulationError
from repro.metrics.capacity import CapacitySummary
from repro.metrics.report import Counters, SimulationReport
from repro.metrics.timing import JobRecord, TimingSummary

#: Schema version embedded in every export; bump on breaking change.
SCHEMA_VERSION = 1

#: ``JobRecord`` fields are primitives, so a record's dict is its field
#: values zipped with the names — ``dataclasses.asdict`` without the
#: recursive deep copy, for the one list that grows with the run.
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(JobRecord))
_record_values = attrgetter(*_RECORD_FIELDS)


def report_to_dict(report: SimulationReport) -> dict[str, Any]:
    """Flatten a report to JSON-serialisable primitives."""
    return {
        "schema": SCHEMA_VERSION,
        "policy": report.policy,
        "workload": report.workload,
        "n_failures": report.n_failures,
        "parameters": dict(report.parameters),
        "timing": dataclasses.asdict(report.timing),
        "capacity": dataclasses.asdict(report.capacity),
        "counters": dataclasses.asdict(report.counters),
        "records": [
            dict(zip(_RECORD_FIELDS, _record_values(r))) for r in report.records
        ],
    }


def report_from_dict(data: dict[str, Any]) -> SimulationReport:
    """Inverse of :func:`report_to_dict`."""
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise SimulationError(
            f"unsupported report schema {schema!r} (expected {SCHEMA_VERSION})"
        )
    return SimulationReport(
        policy=data["policy"],
        workload=data["workload"],
        n_failures=data["n_failures"],
        records=tuple(JobRecord(**r) for r in data["records"]),
        timing=TimingSummary(**data["timing"]),
        capacity=CapacitySummary(**data["capacity"]),
        counters=Counters(**data["counters"]),
        parameters=dict(data["parameters"]),
    )

