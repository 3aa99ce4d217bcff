"""Tests for SimulationConfig validation and defaults."""

from __future__ import annotations

import pytest

from repro.checkpoint.model import CheckpointConfig, CheckpointMode
from repro.core.config import BackfillMode, SimulationConfig
from repro.errors import SimulationError
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.metrics.timing import BoundedSlowdownRule


class TestDefaults:
    def test_paper_defaults(self):
        cfg = SimulationConfig()
        assert cfg.dims == BGL_SUPERNODE_DIMS
        assert cfg.backfill is BackfillMode.EASY
        assert cfg.migration is True
        assert cfg.migration_cost_s == 0.0
        assert cfg.gamma == 10.0
        assert cfg.slowdown_rule is BoundedSlowdownRule.STANDARD
        assert cfg.checkpoint.mode is CheckpointMode.NONE

    def test_frozen(self):
        cfg = SimulationConfig()
        with pytest.raises(Exception):
            cfg.migration = False  # type: ignore[misc]


class TestValidation:
    def test_negative_migration_cost(self):
        with pytest.raises(SimulationError):
            SimulationConfig(migration_cost_s=-1.0)

    def test_nonpositive_gamma(self):
        with pytest.raises(SimulationError):
            SimulationConfig(gamma=0.0)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_non_finite_migration_cost(self, cost):
        with pytest.raises(SimulationError):
            SimulationConfig(migration_cost_s=cost)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma(self, gamma):
        with pytest.raises(SimulationError):
            SimulationConfig(gamma=gamma)

    def test_max_events(self):
        with pytest.raises(SimulationError):
            SimulationConfig(max_events=0)

    def test_checkpoint_config_embedded(self):
        cfg = SimulationConfig(
            checkpoint=CheckpointConfig(mode=CheckpointMode.PERIODIC, interval_s=100.0)
        )
        assert cfg.checkpoint.periodic


class TestBackfillMode:
    def test_values(self):
        assert {m.value for m in BackfillMode} == {"none", "easy", "aggressive"}
