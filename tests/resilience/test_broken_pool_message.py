"""Fast-path BrokenProcessPool error must name the failed cells.

Regression: the original error said only that *a* worker died, leaving
the user to rerun the whole sweep blind.  It must now identify which
cells were unfinished, how many attempts they got, and point at the
retrying executor.
"""

from __future__ import annotations

import os

import pytest

import repro.experiments.sweep as sweep_mod
from repro.errors import ExperimentError
from repro.experiments.parallel import SweepExecutor
from repro.experiments.sweep import SweepPoint

from tests.resilience.conftest import needs_fork


@needs_fork
class TestBrokenPoolMessage:
    def test_names_cells_and_attempt_count(self, monkeypatch):
        monkeypatch.setattr(
            sweep_mod, "cell_inputs", lambda *a: os._exit(13)
        )
        points = [
            SweepPoint("sdsc", 10, 1.0, 2, "krevat", 0.0),
            SweepPoint("sdsc", 12, 1.0, 2, "krevat", 0.0),
        ]
        with pytest.raises(ExperimentError) as excinfo:
            SweepExecutor(workers=2, min_cells_per_worker=0).run(points, (0, 1))
        message = str(excinfo.value)
        assert "worker process died" in message
        # Every unfinished cell is named (all four died here).
        for point_index in (0, 1):
            for seed_index in (0, 1):
                assert f"(point {point_index}, seed#{seed_index})" in message
        assert "after 1 attempt" in message
        assert "0/4 cells completed" in message
        # And the message routes the user to the fix.
        assert "retry=RetryPolicy" in message

    def test_long_cell_list_elided(self, monkeypatch):
        monkeypatch.setattr(
            sweep_mod, "cell_inputs", lambda *a: os._exit(13)
        )
        points = [
            SweepPoint("sdsc", 10 + i, 1.0, 2, "krevat", 0.0)
            for i in range(6)
        ]
        with pytest.raises(ExperimentError) as excinfo:
            SweepExecutor(workers=2, min_cells_per_worker=0).run(points, (0, 1))
        message = str(excinfo.value)
        assert "more" in message  # 12 dead cells, 8 shown
