"""Smoke tests: every shipped example must run and produce its story.

Examples double as integration tests of the public API surface — they
import only from ``repro``'s public modules.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_placement_illustration(self):
        out = run_example("placement_illustration.py")
        assert "Figure 1" in out and "Figure 2" in out
        assert "L_MFP" in out and "E_loss" in out

    @pytest.mark.slow
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "krevat" in out
        assert "balancing a=0.9" in out
        assert "job kills" in out

    @pytest.mark.slow
    def test_trace_study(self):
        out = run_example("trace_study.py")
        assert "SWF" in out
        assert "no checkpoint" in out

    @pytest.mark.slow
    def test_fault_sweep_small(self):
        out = run_example("fault_sweep.py", "60")
        assert "slowdown a=0.0" in out
        assert "Expected shape" in out

    @pytest.mark.slow
    def test_predictor_study_small(self):
        out = run_example("predictor_study.py", "nasa", "60")
        assert "bal slowdown" in out
        assert "tie slowdown" in out

    @pytest.mark.slow
    def test_policy_comparison_small(self):
        out = run_example("policy_comparison.py", "nasa", "50", "5")
        assert "vs krevat" in out
        assert "kills_delta" in out and "of 6 seeds" in out
