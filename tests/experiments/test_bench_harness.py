"""Tests for the perf-trajectory harness (``benchmarks/perf/bench_core.py``)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import repro.experiments.sweep as sweep_mod

BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "bench_core.py"
)

REQUIRED_KEYS = {"bench", "wall_s", "cells_per_s", "workers", "git_rev"}


@pytest.fixture()
def bench_core(monkeypatch):
    """Import the harness as a throwaway module and restore sweep state."""
    spec = importlib.util.spec_from_file_location("_bench_core_test", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    # Register before exec: the module defines dataclasses, whose string
    # annotations resolve through sys.modules under PEP 563.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    master = sweep_mod.MASTER_FAILURE_COUNT
    yield module
    sys.modules.pop(spec.name, None)
    # The harness rescales the master failure log and dirties the sweep
    # caches; undo both so other test modules see pristine state.
    sweep_mod.MASTER_FAILURE_COUNT = master
    sweep_mod._result_cache.clear()
    sweep_mod._workload_cache.clear()
    sweep_mod._master_log_cache.clear()


def test_smoke_scale_produces_trajectory_file(bench_core, tmp_path):
    out = tmp_path / "BENCH_core.json"
    records = bench_core.run_benchmarks("smoke", workers=2, out_path=out)
    assert out.exists()
    assert json.loads(out.read_text()) == records
    assert len(records) >= 6
    names = [r["bench"] for r in records]
    assert len(names) == len(set(names))
    assert "shadow_time_engine" in names
    # Scoring as production runs it, and index upkeep patch vs rebuild.
    assert "scored_candidates_batch" in names
    assert "index_incremental_update" in names
    assert "index_rebuild_oracle" in names
    # ... and index upkeep alone, with no query to hide it behind.
    assert "index_apply_refresh" in names
    assert "sweep_serial" in names and "sweep_parallel" in names
    for r in records:
        assert REQUIRED_KEYS <= r.keys()
        assert r["wall_s"] >= 0.0
        assert r["workers"] >= 1
    by_name = {r["bench"]: r for r in records}
    # The job-log layer: one generated log, jobs/s per stage, the peak RSS.
    log = by_name["job_log_pipeline"]
    assert names[0] == "job_log_pipeline" and log["jobs"] == 10_000
    for stage in ("generate", "write_swf", "read_swf", "fit_to_machine", "job_log"):
        assert log[f"{stage}_jobs_per_s"] > 0
    assert log["vm_hwm_mb"] > 0
    # Sweep records must carry what actually ran, not the requested
    # configuration: the serial record is pinned to one worker, and the
    # parallel record reports the executor's workers_used and mode.
    assert by_name["sweep_serial"]["workers"] == 1
    assert by_name["sweep_serial"]["mode"] == "serial"
    from repro.experiments.parallel import fork_available

    if fork_available():
        assert by_name["sweep_parallel"]["workers"] >= 2
        assert by_name["sweep_parallel"]["mode"] == "warm"
    else:
        assert by_name["sweep_parallel"]["mode"] == "serial"


def test_rev_stamp_outside_a_git_checkout(bench_core, tmp_path, monkeypatch):
    """A ``git archive`` export has no repository: the records' stamp
    is ``unknown`` instead of a ``git status`` crash (exit 128)."""
    monkeypatch.setattr(bench_core, "REPO_ROOT", tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench_core.tree_dirty() is None
    assert bench_core.git_rev() == "unknown"
    assert bench_core.rev_stamp() == "unknown"

def test_repo_trajectory_file_is_current(bench_core):
    """The committed BENCH_core.json must match the harness schema."""
    committed = BENCH_PATH.parents[2] / "BENCH_core.json"
    assert committed.exists(), "run benchmarks/perf/bench_core.py to regenerate"
    records = json.loads(committed.read_text())
    assert len(records) >= 6
    for r in records:
        assert REQUIRED_KEYS <= r.keys()
