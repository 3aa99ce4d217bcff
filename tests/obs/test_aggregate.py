"""Tests for cross-process sweep observability aggregation."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.errors import ExperimentError
from repro.experiments.parallel import fork_available
from repro.experiments.sweep import (
    SweepPoint,
    _master_log_cache,
    _result_cache,
    _workload_cache,
    run_point,
    run_sweep,
)
from repro.obs.aggregate import CellObs, SweepObsCollector, trace_filename
from repro.obs.trace import read_trace


@pytest.fixture(autouse=True)
def clear_caches():
    _result_cache.clear()
    yield
    _result_cache.clear()
    _workload_cache.clear()
    _master_log_cache.clear()


def make_points(n=2, trace=False):
    config = SimulationConfig(trace=trace)
    return [
        SweepPoint("nasa", 25, 1.0, 2 * i, "balancing", 0.1, config=config)
        for i in range(n)
    ]


class TestCollector:
    def test_cells_merge_and_count(self):
        collector = SweepObsCollector()
        run_sweep(make_points(), seeds=(0, 1), collector=collector)
        assert collector.n_cells == 4
        metrics = collector.metrics_dict()
        assert metrics["counters"]["sim.dispatches"] > 0

    def test_metrics_dict_requires_finalize(self):
        collector = SweepObsCollector()
        with pytest.raises(ExperimentError, match="finaliz"):
            collector.metrics_dict()

    def test_duplicate_cell_rejected(self):
        collector = SweepObsCollector()
        obs = CellObs(metrics=None, trace_records=None)
        collector.add_cell(0, 0, obs)
        with pytest.raises(ExperimentError, match="duplicate"):
            collector.add_cell(0, 0, obs)

    def test_add_after_finalize_rejected(self):
        collector = SweepObsCollector()
        collector.finalize()
        with pytest.raises(ExperimentError):
            collector.add_cell(0, 0, CellObs(metrics=None, trace_records=None))

    def test_finalize_idempotent(self):
        collector = SweepObsCollector()
        run_sweep(make_points(1), seeds=(0,), collector=collector)
        first = collector.metrics_dict()
        collector.finalize()
        assert collector.metrics_dict() == first

    def test_trace_files_written(self, tmp_path):
        collector = SweepObsCollector(trace_dir=tmp_path)
        run_sweep(make_points(trace=True), seeds=(0, 1), collector=collector)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(
            trace_filename(i, s) for i in range(2) for s in range(2)
        )
        records = read_trace(tmp_path / trace_filename(0, 0))
        assert records[0]["kind"] == "header"

    def test_collector_bypasses_result_cache(self):
        points = make_points(1)
        run_sweep(points, seeds=(0,))  # warms the result cache
        collector = SweepObsCollector()
        run_sweep(points, seeds=(0,), collector=collector)
        assert collector.n_cells == 1  # cell actually re-ran


class TestSerialParallelParity:
    def test_results_identical_with_collector(self):
        points = make_points()
        baseline = run_sweep(points, seeds=(0, 1))
        _result_cache.clear()
        collector = SweepObsCollector()
        observed = run_sweep(points, seeds=(0, 1), collector=collector)
        assert observed == baseline

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_parallel_metrics_equal_serial(self, tmp_path):
        points = make_points(3, trace=True)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = SweepObsCollector(trace_dir=serial_dir)
        results_serial = run_sweep(
            points, seeds=(0, 1), workers=1, collector=serial
        )
        _result_cache.clear()
        parallel = SweepObsCollector(trace_dir=parallel_dir)
        results_parallel = run_sweep(
            points, seeds=(0, 1), workers=2, collector=parallel,
            min_cells_per_worker=0,
        )
        assert results_parallel == results_serial
        assert parallel.metrics_dict() == serial.metrics_dict()
        serial_names = sorted(p.name for p in serial_dir.iterdir())
        parallel_names = sorted(p.name for p in parallel_dir.iterdir())
        assert parallel_names == serial_names
        for name in serial_names:
            assert (parallel_dir / name).read_bytes() == (
                serial_dir / name
            ).read_bytes()

    def test_run_point_feeds_collector(self):
        """``run_point`` is a one-point ``run_sweep``: the collector gets
        both cells and is finalized on return, and the result is the
        sweep's."""
        point = make_points(1)[0]
        collector = SweepObsCollector()
        result = run_point(point, seeds=(0, 1), collector=collector)
        assert collector.n_cells == 2
        assert [result] == run_sweep([point], seeds=(0, 1))
