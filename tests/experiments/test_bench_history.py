"""Tests for the end-to-end perf history (``benchmarks/perf/history.py``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "benchmarks" / "perf" / "history.py"


def history(*args: str) -> subprocess.CompletedProcess:
    """Run the script the way its docstring and CI do."""
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True
    )


def run_file(path: Path) -> Path:
    """The part of a ``benchmarks/e2e/run.py --out`` file that is read."""

    def block(ops: float) -> dict:
        medians = {"setup_s": 0.4, "ops_per_s": ops, "op_p50_ms": 9.5, "peak_rss_mb": 65.0}
        return {
            "end_to_end": {
                metric: {"median": value, "values": [value, value + 1.0]}
                for metric, value in medians.items()
            },
            "per_layer": {"allocation.index_get.self_s": 1.2},
        }

    run = {
        "seed": 3,
        "seconds": 8.0,
        "rounds": 2,
        "workloads": {"swf_replay": block(3100.0), "sim_faulty": block(1100.0)},
    }
    path.write_text(json.dumps(run))
    return path


def test_committed_history_parses():
    done = history("check")
    assert done.returncode == 0, done.stderr
    assert (REPO_ROOT / "BENCH_history.ndjson").read_text().strip()


def test_append_files_one_line_per_workload_and_never_rewrites(tmp_path):
    run = run_file(tmp_path / "run.json")
    target = tmp_path / "history.ndjson"
    for _ in range(2):
        done = history("--history", str(target), "append", str(run))
        assert done.returncode == 0, done.stderr
    lines = [json.loads(raw) for raw in target.read_text().splitlines()]
    assert [line["workload"] for line in lines] == [
        "swf_replay", "sim_faulty", "swf_replay", "sim_faulty",
    ]  # fmt: skip
    first = lines[0]
    assert (first["seed"], first["seconds"], first["rounds"]) == (3, 8.0, 2)
    assert first["ops_per_s"] == 3100.0 and first["peak_rss_mb"] == 65.0
    assert lines[1]["ops_per_s"] == 1100.0
    assert isinstance(first["rev"], str) and first["rev"]
    assert isinstance(first["dirty"], bool)
    assert first["src_loc"] > 1000
    assert history("--history", str(target), "check").returncode == 0


def test_check_names_the_bad_line(tmp_path):
    run = run_file(tmp_path / "run.json")
    target = tmp_path / "history.ndjson"
    assert history("--history", str(target), "append", str(run)).returncode == 0
    good = target.read_text()
    for bad in ('{"rev": "abc1234"}', "not json", good.splitlines()[0].replace("3100.0", '"fast"')):
        target.write_text(good + bad + "\n")
        done = history("--history", str(target), "check")
        assert done.returncode == 1
        assert f"{target}:3:" in done.stderr
