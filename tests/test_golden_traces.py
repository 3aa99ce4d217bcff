"""Golden-trace regression tests.

Small-scale simulation reports are pinned against text fixtures in
``tests/fixtures/`` (same spirit as the ``benchmarks/results/fig*.txt``
tables, but small enough to run in the tier-1 suite).  Any change to
scheduling behaviour — event ordering, placement scoring, capacity
accounting, RNG consumption — shows up as a readable diff.

Regenerate after an *intentional* behaviour change with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.api import SimulationSetup
from repro.core.config import SimulationConfig
from repro.metrics.report import SimulationReport

FIXTURES = Path(__file__).resolve().parent / "fixtures"

SCENARIOS = {
    "golden_nasa_krevat": SimulationSetup(
        site="nasa", n_jobs=30, n_failures=0, policy="krevat", seed=7,
    ),
    "golden_nasa_balancing": SimulationSetup(
        site="nasa", n_jobs=40, n_failures=12, policy="balancing",
        parameter=0.5, seed=7,
    ),
    "golden_sdsc_tiebreak": SimulationSetup(
        site="sdsc", n_jobs=40, n_failures=25, policy="tiebreak",
        parameter=0.9, seed=7,
        config=SimulationConfig(migration_cost_s=10.0),
    ),
}


def render(report: SimulationReport) -> str:
    """Canonical, diff-friendly text form of a report (floats rounded so
    the fixture is stable across platforms)."""
    t, c, k = report.timing, report.capacity, report.counters
    lines = [
        f"policy={report.policy} workload={report.workload} "
        f"n_failures={report.n_failures}",
        f"jobs={t.n_jobs} slowdown={t.avg_bounded_slowdown:.4f} "
        f"response={t.avg_response:.3f} wait={t.avg_wait:.3f}",
        f"util={c.utilized:.6f} unused={c.unused:.6f} lost={c.lost:.6f} "
        f"span={c.span:.3f}",
        f"kills={k.job_kills} migrations={k.migrations} "
        f"jobs_migrated={k.jobs_migrated} backfills={k.backfills} "
        f"passes={k.scheduler_passes}",
        "job size arrival start finish restarts lost_work",
    ]
    for r in report.records:
        lines.append(
            f"{r.job_id} {r.size} {r.arrival:.3f} {r.start:.3f} "
            f"{r.finish:.3f} {r.restarts} {r.lost_work:.3f}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name, checked_engine):
    rendered = render(SCENARIOS[name].run())
    assert len(checked_engine) == 1  # the run was a checked one
    path = FIXTURES / f"{name}.txt"
    if os.environ.get("GOLDEN_REGEN"):
        path.write_text(rendered, encoding="utf-8")
    expected = path.read_text(encoding="utf-8")
    assert rendered == expected, (
        f"golden trace {name} drifted; if the behaviour change is "
        f"intentional, regenerate with GOLDEN_REGEN=1 and review the diff"
    )


def test_render_is_deterministic(checked_engine):
    report = SCENARIOS["golden_nasa_krevat"].run()
    assert render(report) == render(report)
