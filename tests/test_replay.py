"""Deterministic-replay tests: same seed → identical report.

The whole experiment harness (sweeps, figure regeneration, golden
traces) silently assumes the simulator is a pure function of
``(workload, failure log, policy, config)``.  These tests make the
assumption explicit — including that attaching the oracle harness does
not perturb a single bit of the result.
"""

from __future__ import annotations

import pytest

from repro.api import SimulationSetup, quick_simulate
from repro.core.config import BackfillMode, SimulationConfig
from repro.metrics.serialize import report_to_dict
from repro.records import canonical_json
from tests.oracles import checking

SCENARIOS = [
    dict(site="nasa", n_jobs=30, n_failures=0, policy="krevat", parameter=0.0),
    dict(site="nasa", n_jobs=30, n_failures=10, policy="balancing", parameter=0.5),
    dict(site="sdsc", n_jobs=40, n_failures=20, policy="tiebreak", parameter=0.9),
]


def run(scenario: dict, seed: int = 7, **config_kw) -> str:
    setup = SimulationSetup(
        seed=seed, config=SimulationConfig(**config_kw), **scenario
    )
    return canonical_json(report_to_dict(setup.run()))


class TestReplay:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s["policy"])
    def test_same_seed_same_report(self, scenario):
        assert run(scenario) == run(scenario)

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s["policy"])
    def test_oracles_do_not_perturb(self, scenario):
        plain = run(scenario)
        with checking() as checked_sims:
            checked = run(scenario)
        (sim,) = checked_sims
        assert sim.oracles.stats()["invariant_checks"] > 0
        assert checked == plain

    def test_different_seed_different_workload(self):
        a = run(SCENARIOS[1], seed=7)
        b = run(SCENARIOS[1], seed=8)
        assert a != b  # different synthetic draw, different trace

    def test_replay_under_alternative_config(self, checked_engine):
        """Determinism holds off the default config path too."""
        kw = dict(backfill=BackfillMode.AGGRESSIVE, migration_cost_s=15.0)
        assert run(SCENARIOS[2], **kw) == run(SCENARIOS[2], **kw)

    def test_quick_simulate_replays(self):
        a = quick_simulate(site="nasa", n_jobs=25, n_failures=5, seed=11)
        b = quick_simulate(site="nasa", n_jobs=25, n_failures=5, seed=11)
        assert canonical_json(report_to_dict(a)) == canonical_json(report_to_dict(b))
