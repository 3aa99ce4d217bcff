"""Tests for sweep-level caching and environment knobs."""

from __future__ import annotations

import pytest

import repro.experiments.sweep as sweep_mod
from repro.experiments.figures import default_n_jobs, default_seeds, _horizon_s
from repro.experiments.sweep import SweepPoint, run_point, run_sweep


class TestResultCaching:
    def test_run_point_memoised(self):
        point = SweepPoint("nasa", 25, 1.0, 3, "balancing", 0.5)
        a = run_point(point, seeds=(0,))
        b = run_point(point, seeds=(0,))
        assert a is b  # cache hit, not a re-run

    def test_different_seeds_not_conflated(self):
        point = SweepPoint("nasa", 25, 1.0, 3, "balancing", 0.5)
        a = run_point(point, seeds=(0,))
        b = run_point(point, seeds=(1,))
        assert a is not b

    def test_run_sweep_returns_per_point(self):
        points = [
            SweepPoint("nasa", 25, 1.0, 0, "krevat", 0.0),
            SweepPoint("nasa", 25, 1.0, 3, "krevat", 0.0),
        ]
        results = run_sweep(points, seeds=(0,))
        assert len(results) == 2
        assert results[0].point.n_failures == 0
        assert results[1].point.n_failures == 3


    def test_caches_are_keyed_by_the_master_log_size(self, monkeypatch):
        """Neither the result memo nor the master-log cache may hand a
        run under one ``MASTER_FAILURE_COUNT`` what was built under
        another (tests and benches shrink the constant)."""
        points = [SweepPoint("sdsc", 30, 1.0, 30, "krevat", 0.0)]
        monkeypatch.setattr(sweep_mod, "MASTER_FAILURE_COUNT", 64)
        (small,) = run_sweep(points, (0,))
        monkeypatch.setattr(sweep_mod, "MASTER_FAILURE_COUNT", 8192)
        (full,) = run_sweep(points, (0,))
        assert full is not small
        sweep_mod._result_cache.clear()
        sweep_mod._workload_cache.clear()
        sweep_mod._master_log_cache.clear()
        assert run_sweep(points, (0,)) == [full]  # what a cold process gets
        assert full != small  # the point does tell the two logs apart

    def test_fig5_after_fig4_in_one_process_computes_no_cell(self, monkeypatch):
        """Figs. 4 and 5 plot two metrics of one sweep, so the memo makes
        the second free wherever both run in one process (a
        ``benchmarks/test_fig*.py`` session, a library caller)."""
        from repro.experiments.figures import run_figure

        sweep_mod._result_cache.clear()
        fig4 = run_figure("fig4", n_jobs=20, seeds=(0,), workers=1)
        computed = []
        cell_inputs = sweep_mod.cell_inputs
        monkeypatch.setattr(
            sweep_mod, "cell_inputs",
            lambda *args: computed.append(args) or cell_inputs(*args),
        )
        fig5 = run_figure("fig5", n_jobs=20, seeds=(0,), workers=1)
        assert computed == []
        assert fig5.series == fig4.series
        sweep_mod._result_cache.clear()


class TestEnvKnobs:
    def test_default_n_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIG_JOBS", "77")
        assert default_n_jobs() == 77

    def test_default_seeds(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIG_SEEDS", "3")
        assert default_seeds() == (0, 1, 2)

    def test_horizon_positive_and_scales_with_jobs(self):
        small = _horizon_s("nasa", 30, 1.0)
        large = _horizon_s("nasa", 120, 1.0)
        assert 0 < small < large
