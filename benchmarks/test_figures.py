"""Figures 3-10 of the paper's evaluation, each regenerated once under
pytest-benchmark and read through the claims table.

A figure's footer lists the invariants over every figure this module
has regenerated so far and each claim that reads this figure; a claim
that reads two figures (tie-break vs balancing, fig9 vs fig6) is
evaluated once both are at hand, so run the whole module for it.
Verdicts at this scale need not equal the smoke-scale ones that
``tests/experiments/test_claims.py`` pins, but a row recorded as
holding must not turn into its opposite here.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import evaluate_claims, figure_registry, run_figure
from repro.experiments.format import format_claims


@pytest.fixture(scope="module")
def regenerated():
    """The figures regenerated so far in this module, by name."""
    return {}


@pytest.mark.parametrize("name", figure_registry())
def test_figure(name, benchmark, save_figure, regenerated):
    regenerated[name] = benchmark.pedantic(run_figure, args=(name,), rounds=1, iterations=1)
    verdicts = [
        v for v in evaluate_claims(regenerated)
        if not v.claim.figures or name in v.claim.figures
    ]
    save_figure(regenerated[name], verdicts)
    broken = [
        v for v in verdicts
        if v.claim.smoke == "holds" and v.verdict in ("refuted", "violated")
    ]
    assert not broken, format_claims(broken)
