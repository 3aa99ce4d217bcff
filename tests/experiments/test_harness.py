"""Tests for the sweep/figure experiment harness."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.figures import (
    PAPER_FAILURE_AXIS,
    PAPER_PARAMETER_AXIS,
    figure_registry,
    paper_failures_to_sim,
    run_figure,
)
from repro.experiments.format import format_figure, format_series, format_table
from repro.experiments.sweep import SweepPoint, SweepResult, run_point


class TestFailureMapping:
    def test_zero_maps_to_zero(self):
        assert paper_failures_to_sim(0, 86_400.0) == 0

    def test_full_year_is_identity(self):
        assert paper_failures_to_sim(4000, 365 * 86_400.0) == 4000

    def test_proportional(self):
        # Half a year -> half the events (ceil).
        assert paper_failures_to_sim(4000, 182.5 * 86_400.0) == 2000

    def test_small_horizons_round_up(self):
        assert paper_failures_to_sim(500, 86_400.0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            paper_failures_to_sim(-1, 1000.0)


class TestAxes:
    def test_paper_axes_match_text(self):
        assert PAPER_FAILURE_AXIS[0] == 0
        assert PAPER_FAILURE_AXIS[-1] == 4000
        assert PAPER_FAILURE_AXIS[1] - PAPER_FAILURE_AXIS[0] == 500
        assert PAPER_PARAMETER_AXIS == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_registry_covers_all_figures(self):
        assert set(figure_registry()) == {f"fig{i}" for i in range(3, 11)}

    def test_unknown_figure(self):
        with pytest.raises(ExperimentError, match="unknown figure"):
            run_figure("fig99")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_jobs=20, seeds=()), "at least one seed"),
            (dict(n_jobs=0, seeds=(0,)), "n_jobs must be >= 1"),
            (dict(n_jobs=-3, seeds=(0,)), "n_jobs must be >= 1"),
        ],
        ids=["no-seeds", "zero-jobs", "negative-jobs"],
    )
    def test_empty_values_are_refused_not_defaulted(self, kwargs, message, monkeypatch):
        """Only ``None`` means "the default": ``()`` and ``0`` used to
        run 6 seeds and 500 jobs."""
        import repro.experiments.figures as figures_mod

        monkeypatch.setattr(
            figures_mod, "run_sweep_outcome", lambda *a, **k: pytest.fail("a sweep ran")
        )
        with pytest.raises(ExperimentError, match=message):
            run_figure("fig5", **kwargs)


class TestRunPoint:
    def test_seed_averaging(self):
        point = SweepPoint("nasa", 40, 1.0, 5, "balancing", 0.5)
        result = run_point(point, seeds=(0, 1))
        assert result.n_seeds == 2
        assert result.avg_bounded_slowdown >= 1.0
        assert 0.0 <= result.utilized <= 1.0

    def test_zero_failures_no_kills(self):
        point = SweepPoint("nasa", 30, 1.0, 0, "krevat", 0.0)
        result = run_point(point, seeds=(0,))
        assert result.job_kills == 0.0

    def test_deterministic(self):
        point = SweepPoint("nasa", 30, 1.0, 4, "tiebreak", 0.5)
        a = run_point(point, seeds=(0,))
        b = run_point(point, seeds=(0,))
        assert a.avg_bounded_slowdown == b.avg_bounded_slowdown
        assert a.utilized == b.utilized

    def test_aggregation_requires_reports(self):
        point = SweepPoint("nasa", 10, 1.0, 0, "krevat", 0.0)
        with pytest.raises(ExperimentError):
            SweepResult.from_reports(point, [])


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table([[1, 2.5], [30, 0.123]], ["a", "metric"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "0.123" in lines[3]

    def test_format_series_smoke(self):
        point = SweepPoint("nasa", 20, 1.0, 0, "krevat", 0.0)
        result = run_point(point, seeds=(0,))
        text = format_series("test", [(0.0, result)], "bounded_slowdown")
        assert "slowdown" in text and "test" in text


@pytest.mark.slow
class TestFigureSmoke:
    """Tiny end-to-end figure regeneration (scaled way down)."""

    def test_fig3_shape(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIG_JOBS", "30")
        monkeypatch.setenv("REPRO_FIG_SEEDS", "1")
        import repro.experiments.figures as figures

        monkeypatch.setattr(figures, "PAPER_FAILURE_AXIS", (0, 4000))
        result = figures.run_figure("fig3")
        assert set(result.series) == {"a=0.0", "a=0.1", "a=0.9"}
        for label in result.series:
            xs = [x for x, _ in result.series[label]]
            assert xs == [0.0, 4000.0]
        assert format_figure(result)
