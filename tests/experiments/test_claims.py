"""The claims table: its verdict rule, its invariants, the verdicts it
records at smoke scale, and a planted mutant it must catch by name."""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import pytest

import repro.experiments.sweep as sweep_mod
from repro.analysis.compare import sign_count
from repro.errors import ExperimentError
from repro.experiments import figures
from repro.experiments.figures import (
    _CLAIMS,
    PAPER_FAILURE_AXIS,
    PAPER_PARAMETER_AXIS,
    FigureResult,
    evaluate_claims,
    figure_registry,
    run_figure,
)
from repro.experiments.format import format_claims
from repro.experiments.pool import shutdown_warm_pool
from repro.experiments.sweep import SweepPoint, SweepResult

#: Smoke scale: the table's recorded verdicts are measured here.
SMOKE_JOBS = 200
SMOKE_SEEDS = tuple(range(6))

POINT = SweepPoint("sdsc", 10, 1.0, 0, "balancing", 0.0)


def one_seed(slowdown=10.0, kills=1.0, utilized=0.5, unused=0.3, lost=0.2):
    return SweepResult(
        point=POINT, n_seeds=1, avg_bounded_slowdown=slowdown,
        avg_response=100.0, avg_wait=10.0, utilized=utilized,
        unused=unused, lost=lost, job_kills=kills, failures_hit_jobs=kills,
    )


def synthetic(name, cell=lambda label, x, seed: {}, n_seeds=6, axis=None):
    """Figure ``name`` over its paper axis; ``cell(label, x, seed)`` gives
    that seed's metric overrides (kills default to 0 at x=0 of Figs. 3-5)."""
    spec = figures._FIGURES[name]
    if spec.kind == "failure_rate":
        labels = [label for label, _, _ in spec.series]
        xs = axis or [float(n) for n in PAPER_FAILURE_AXIS]
    else:
        labels = [f"{site} c={c}" for site in spec.sites for c in spec.loads]
        xs = axis or list(PAPER_PARAMETER_AXIS)
    result = FigureResult(name, spec.title, "x", spec.metric)
    for label in labels:
        rows = []
        for x in xs:
            seeds = tuple(
                one_seed(**{"kills": 0.0 if x == 0 else 1.0, **cell(label, x, s)})
                for s in range(n_seeds)
            )
            rows.append((x, replace(seeds[0], n_seeds=n_seeds, per_seed=seeds)))
        result.series[label] = rows
    return result


def verdicts(*results):
    return {v.name: v for v in evaluate_claims({r.figure: r for r in results})}


class TestSignTest:
    def test_six_of_six_holds(self):
        assert sign_count([-1.0] * 6).verdict == "holds"

    def test_five_of_five_and_a_tie_holds(self):
        assert sign_count([-1.0] * 5 + [0.0]).verdict == "holds"

    def test_five_of_six_is_unresolved(self):
        assert sign_count([-1.0] * 5 + [1.0]).verdict == "unresolved"

    def test_mirror_result_is_refuted(self):
        assert sign_count([2.0] * 6).verdict == "refuted"
        assert sign_count([2.0] * 5 + [0.0]).verdict == "refuted"

    def test_ties_are_excluded(self):
        signs = sign_count([0.0, 0.0, -1.0, -1.0, -1.0, -1.0])
        assert (signs.lower, signs.higher, signs.tied) == (4, 0, 2)
        assert signs.verdict == "unresolved"  # 4/4 gives p = 1/16
        assert sign_count([0.0] * 6).verdict == "unresolved"

    def test_two_seeds_never_resolve(self):
        assert sign_count([-1.0, -1.0]).verdict == "unresolved"


class TestInvariants:
    def test_healthy_failure_figure(self):
        fig = synthetic("fig3", lambda label, x, s: {"slowdown": 10.0 + x / 100})
        found = verdicts(fig)
        for name, claim in _CLAIMS.items():
            if claim.invariant and not claim.figures:
                assert found[name].verdict == "holds", name
        assert found["failures-degrade-slowdown"].verdict == "holds"

    def test_conservation_violation_detected(self):
        fig = synthetic(
            "fig3", lambda label, x, s: {"utilized": 0.9} if s == 4 and x == 500 else {}
        )
        found = verdicts(fig)["capacity-conserved"]
        assert found.verdict == "violated"
        assert (found.signs.lower, found.signs.higher) == (5, 1)

    def test_kills_at_zero_failures_detected(self):
        fig = synthetic("fig5", lambda label, x, s: {"kills": 3.0} if s == 0 else {})
        assert verdicts(fig)["no-failures-no-kills"].verdict == "violated"

    def test_zero_kills_rule_reads_failure_axes_only(self):
        fig = synthetic("fig6", lambda label, x, s: {"kills": 3.0})
        assert verdicts(fig)["no-failures-no-kills"].verdict == "holds"

    def test_unsorted_axis_detected(self):
        fig = synthetic("fig3", axis=[4000.0, 0.0, *map(float, PAPER_FAILURE_AXIS[1:-1])])
        assert verdicts(fig)["x-axis-sorted"].verdict == "violated"

    def test_a0_cells_must_agree_across_policies(self):
        fig6 = synthetic("fig6")
        assert verdicts(fig6, synthetic("fig9"))["a0-is-krevat"].verdict == "holds"
        fig9 = synthetic("fig9", lambda label, x, s: {"lost": 0.1} if x == 0 else {})
        assert verdicts(fig6, fig9)["a0-is-krevat"].verdict == "violated"

    def test_unknown_figure_rejected(self):
        fig = synthetic("fig3")
        fig.figure = "figX"
        with pytest.raises(ExperimentError, match="registry"):
            verdicts(fig)

    def test_figure_without_series_rejected(self):
        empty = FigureResult("fig3", "t", "x", "job_kills")
        with pytest.raises(ExperimentError, match="series"):
            verdicts(empty)

    def test_seed_counts_must_agree(self):
        with pytest.raises(ExperimentError, match="seed"):
            verdicts(synthetic("fig3"), synthetic("fig4", n_seeds=5))


class TestClaims:
    def test_failures_that_do_not_degrade_flagged(self):
        fig = synthetic("fig3", lambda label, x, s: {"slowdown": 50.0 - x / 100})
        found = verdicts(fig)
        assert found["capacity-conserved"].verdict == "holds"  # not a bug
        assert found["failures-degrade-slowdown"].verdict == "refuted"

    def test_prediction_front_loaded_gains_pass(self):
        # Most of the kill reduction arrives by a=0.1 (the paper's pattern).
        kills = {"a=0.0": 6.0, "a=0.1": 3.0, "a=0.9": 2.5}
        fig = synthetic("fig3", lambda label, x, s: {"kills": kills[label] if x else 0.0})
        found = verdicts(fig)
        assert found["a0.9-adds-little"].verdict == "holds"
        assert found["a0.1-recovers-kills"].verdict == "holds"

    def test_prediction_linear_gains_flagged(self):
        kills = {"a=0.0": 6.0, "a=0.1": 5.0, "a=0.9": 1.0}
        fig = synthetic("fig3", lambda label, x, s: {"kills": kills[label] if x else 0.0})
        assert verdicts(fig)["a0.9-adds-little"].verdict == "refuted"

    def test_claims_pair_seeds_not_means(self):
        # a=0.1 is far lower on average, but only because of one seed.
        def cell(label, x, s):
            if label != "a=0.1" or not x:
                return {}
            return {"kills": -50.0 if s == 0 else 1.5}

        found = verdicts(synthetic("fig3", cell))["a0.1-recovers-kills"]
        assert (found.signs.lower, found.signs.higher) == (1, 5)
        assert found.verdict == "unresolved"

    def test_cross_figure_claim_waits_for_both_figures(self):
        fig6 = synthetic("fig6")
        assert "tiebreak-helps-less-than-balancing" not in verdicts(fig6)
        fig9 = synthetic("fig9", lambda label, x, s: {"kills": 2.0} if x else {})
        both = verdicts(fig6, fig9)["tiebreak-helps-less-than-balancing"]
        assert both.verdict == "holds"

    def test_summary_format(self):
        text = format_claims(evaluate_claims({"fig3": synthetic("fig3")}))
        assert text.startswith("claims (one-sided sign test")
        assert "holds      capacity-conserved:" in text
        assert "satisfied in 6 of 6 seeds" in text
        assert "a0.1-recovers-kills: job_kills" in text and "(smoke: holds)" in text


def test_experiments_checklist_names_every_claim():
    """EXPERIMENTS.md's checklist is keyed by claim name, one row each."""
    text = (Path(__file__).parents[2] / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text.split("## Headline claims checklist", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert len(names) == len(set(names))
    assert set(names) == set(_CLAIMS)


@pytest.fixture
def fresh_pool():
    """Workers fork after the test's monkeypatches, and no cached result
    or worker outlives them."""
    shutdown_warm_pool()
    sweep_mod._result_cache.clear()
    yield
    shutdown_warm_pool()
    sweep_mod._result_cache.clear()


@pytest.mark.slow
class TestSmokeScale:
    def test_every_verdict_matches_the_recorded_one(self, fresh_pool):
        results = {
            name: run_figure(name, n_jobs=SMOKE_JOBS, seeds=SMOKE_SEEDS, workers=2)
            for name in figure_registry()
        }
        found = evaluate_claims(results)
        assert [v.name for v in found] == list(_CLAIMS)
        changed = [v for v in found if v.verdict != v.claim.smoke]
        assert not changed, format_claims(changed)

    def test_ignoring_the_predictor_breaks_a0_1_recovers_kills(
        self, fresh_pool, monkeypatch
    ):
        """Planted mutant: every cell runs with the policy parameter
        forced to 0, so a=0.1 is a=0 and no kill is avoided."""
        cell_inputs = sweep_mod.cell_inputs
        monkeypatch.setattr(
            sweep_mod, "cell_inputs",
            lambda point, *args, **kw: cell_inputs(replace(point, parameter=0.0), *args, **kw),
        )
        fig3 = run_figure("fig3", n_jobs=SMOKE_JOBS, seeds=SMOKE_SEEDS, workers=2)
        found = verdicts(fig3)["a0.1-recovers-kills"]
        assert found.claim.smoke == "holds"
        assert found.verdict != "holds", format_claims([found])
