"""Shared fixtures for the figure-regeneration benchmark suite.

``test_figures.py`` regenerates each figure of the paper's evaluation and
checks the claims table (``repro.experiments.figures``) against it; the
series and the claim verdicts are written to
``benchmarks/results/<figure>.txt`` and echoed to the terminal so a
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` run
leaves both the timing table and the data behind.

Scale with ``REPRO_FIG_JOBS`` (jobs per simulation, default 400),
``REPRO_FIG_SEEDS`` (seeds per point, default 6: the fewest at which a
claim's one-sided sign test can resolve) and ``REPRO_FIG_WORKERS``
(parallel sweep workers, default: all cores but one; parallel results
are bitwise-identical to serial).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

# The job and seed counts default in ``repro.experiments.figures`` (400
# jobs, modest so the full suite finishes in tens of minutes; raise for
# higher-fidelity regenerations).
os.environ.setdefault(
    "REPRO_FIG_WORKERS", str(max(1, (os.cpu_count() or 2) - 1))
)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_figure(results_dir, capsys):
    """Persist a figure's series and claim verdicts, and echo them."""

    def _save(result, verdicts) -> str:
        from repro.experiments.format import format_claims, format_figure

        text = format_figure(result) + "\n\n" + format_claims(verdicts)
        (results_dir / f"{result.figure}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")
        return text

    return _save
