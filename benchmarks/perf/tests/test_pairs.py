"""The verdict of ``benchmarks/perf/pairs.py`` on synthetic medians.

Run with ``python -m pytest benchmarks/perf/tests -q`` (outside the
main suite's ``testpaths``).
"""

from __future__ import annotations

import json
import subprocess

import pytest

from benchmarks.perf import history, pairs


def test_ten_of_ten_is_faster():
    s = pairs.judge([100.0] * 10, [112.0] * 10)
    assert (s["verdict"], s["wins"], s["losses"], s["ties"]) == ("faster", 10, 0, 0)
    assert s["ratio"] == pytest.approx(1.12)
    assert s["base_iqr"] == 0.0 and s["clears_iqr"] and s["meets_claim"]


def test_four_of_four_is_not_a_claim():
    """A 4/4 run wins every pair, clears the IQR and is still no claim:
    its sign test cannot resolve (p = 1/16) and "9 of 10" needs 10."""
    s = pairs.judge([100.0] * 4, [112.0] * 4)
    assert (s["verdict"], s["wins"], s["clears_iqr"]) == ("unresolved", 4, True)
    assert not s["meets_claim"]
    nine = pairs.judge([100.0] * 9, [112.0] * 9)
    assert (nine["verdict"], nine["meets_claim"]) == ("faster", False)


@pytest.mark.parametrize("n", [10, 11, 20])
def test_a_clean_sweep_of_ten_or_more_is_a_claim(n):
    s = pairs.judge([100.0] * n, [112.0] * n)
    assert (s["verdict"], s["wins"], s["meets_claim"]) == ("faster", n, True)
    assert history.meets_claim(n, n, True) and not history.meets_claim(n, n, False)


def test_nine_of_ten_is_faster_eight_is_not():
    base = [100.0] * 10
    nine = pairs.judge(base, [101.0] * 9 + [99.0])  # p = 11/1024
    assert (nine["verdict"], nine["meets_claim"]) == ("faster", True)
    eight = pairs.judge(base, [101.0] * 8 + [99.0] * 2)  # p = 56/1024
    assert (eight["verdict"], eight["meets_claim"]) == ("unresolved", False)


def test_a_sign_test_win_below_nine_of_ten_does_not_meet_the_claim_gate():
    """15 of 20 passes the sign test (p = 0.021) but not the 9-in-10 gate."""
    s = pairs.judge([100.0] * 20, [110.0] * 15 + [99.0] * 5)
    assert (s["verdict"], s["clears_iqr"], s["meets_claim"]) == ("faster", True, False)


def test_ties_are_dropped_before_the_sign_test():
    s = pairs.judge([100.0] * 6, [101.0] * 5 + [100.0])
    assert (s["wins"], s["ties"], s["verdict"]) == (5, 1, "faster")
    assert not s["meets_claim"]  # the claim gate counts the tie as a loss
    assert pairs.judge([100.0] * 5, [101.0] * 4 + [100.0])["verdict"] == "unresolved"


def test_all_lower_is_slower():
    s = pairs.judge([100.0, 102.0, 98.0, 101.0, 99.0, 100.5], [90.0] * 6)
    assert (s["verdict"], s["losses"]) == ("slower", 6)
    assert s["ratio"] < 1 and not s["clears_iqr"] and not s["meets_claim"]


def test_an_aa_run_is_unresolved():
    """One tree on both sides: the noise alternates, so no sign wins."""
    base = [7600.0, 7450.0, 7700.0, 7520.0, 7610.0, 7390.0, 7680.0, 7540.0, 7575.0, 7490.0]
    change = [7650.0, 7400.0, 7720.0, 7480.0, 7590.0, 7420.0, 7660.0, 7560.0, 7530.0, 7515.0]
    s = pairs.judge(base, change)
    assert s["verdict"] == "unresolved"
    assert s["ratio"] == pytest.approx(1.0, abs=0.01)
    assert not s["clears_iqr"] and not s["meets_claim"]


def test_iqr_and_medians_are_the_base_quartiles():
    s = pairs.judge([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0])
    assert (s["base_median"], s["change_median"], s["base_iqr"], s["ratio"]) == (3.0, 6.0, 2.0, 2.0)
    assert s["clears_iqr"]  # 6 - 3 > 2


def test_a_gain_inside_the_base_spread_does_not_clear_it():
    s = pairs.judge([90.0, 100.0, 110.0, 95.0, 105.0, 100.0], [v + 3.0 for v in
                    [90.0, 100.0, 110.0, 95.0, 105.0, 100.0]])
    assert s["verdict"] == "faster" and not s["clears_iqr"] and not s["meets_claim"]


def test_pairs_alternate_abba():
    assert [pairs.order(k) for k in range(4)] == [
        ("base", "change"), ("change", "base"), ("base", "change"), ("change", "base"),
    ]  # fmt: skip


@pytest.mark.parametrize("base, change", [([], []), ([1.0], []), ([1.0, 2.0], [1.0])])
def test_unpaired_values_are_refused(base, change):
    with pytest.raises(ValueError):
        pairs.judge(base, change)


# ----------------------------------------------------------------------
# lower-is-better metrics (``--metric op_p50_ms``, ``setup_s``, ...)
# ----------------------------------------------------------------------
def test_an_aa_run_on_op_p50_ms_is_unresolved():
    """One tree on both sides of a latency metric: no sign wins."""
    base = [0.641, 0.652, 0.633, 0.648, 0.639, 0.660, 0.644, 0.637, 0.655, 0.646]
    change = [0.646, 0.649, 0.640, 0.643, 0.642, 0.655, 0.650, 0.634, 0.657, 0.641]
    s = pairs.judge(base, change, lower_is_better=True)
    assert s["verdict"] == "unresolved"
    assert s["ratio"] == pytest.approx(1.0, abs=0.01)
    assert not s["clears_iqr"] and not s["meets_claim"]


def test_a_lower_is_better_win_is_faster():
    base = [0.78, 0.80, 0.77, 0.79, 0.81, 0.78, 0.80, 0.79, 0.78, 0.80]
    change = [v - 0.15 for v in base]
    s = pairs.judge(base, change, lower_is_better=True)
    assert (s["verdict"], s["wins"], s["losses"]) == ("faster", 10, 0)
    assert s["ratio"] < 1 and s["clears_iqr"] and s["meets_claim"]
    # The same values judged higher-is-better are a loss in every pair.
    flipped = pairs.judge(base, change)
    assert (flipped["verdict"], flipped["losses"], flipped["meets_claim"]) == ("slower", 10, False)


def test_a_lower_is_better_gain_inside_the_base_spread_does_not_clear_it():
    base = [0.60, 0.70, 0.80, 0.65, 0.75, 0.70]
    s = pairs.judge(base, [v - 0.01 for v in base], lower_is_better=True)
    assert s["verdict"] == "faster" and not s["clears_iqr"] and not s["meets_claim"]


def test_measure_judges_the_named_metric_in_its_direction(monkeypatch, tmp_path):
    """``measure`` reads ``metric`` from each run and files it by name;
    the change is lower on ``op_p50_ms`` (a win) and on ``ops_per_s``
    (not judged here)."""
    def fake_run(tree, workload, seed, seconds, trace):
        lower = tree.name == "change"
        return {
            "end_to_end": {"ops_per_s": 90.0 if lower else 100.0,
                           "op_p50_ms": 0.5 if lower else 0.6},
            "correct": True,
            "info": {"report_sha256": "r"},
            "per_layer": {"x.calls": 1},
        }  # fmt: skip

    monkeypatch.setattr(pairs, "run_once", fake_run)
    trees = {"base": tmp_path / "base", "change": tmp_path / "change"}
    record = pairs.measure(trees, "w", 0, 8, 10, "op_p50_ms", lower_is_better=True)
    assert record["metric"] == "op_p50_ms"
    assert record["values"] == {"base": [0.6] * 10, "change": [0.5] * 10}
    assert (record["summary"]["verdict"], record["summary"]["meets_claim"]) == ("faster", True)
    # Filed as a ``pairs`` line that ``history.py check`` accepts.
    record.update(base={"rev": "a"}, change={"rev": "b", "dirty": False})
    ledger = tmp_path / "history.ndjson"
    ledger.write_text(json.dumps(history.pair_line(record)) + "\n", encoding="utf-8")
    assert history.check(ledger) == 0
    bad = dict(history.pair_line(record), metric="jobs")
    ledger.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    assert history.check(ledger) == 1


def test_an_unknown_metric_is_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["HEAD", "--worktree", "--workload", "sim_faulty", "--metric", "jobs"])
    assert exit_info.value.code == 2
    assert "--metric must be one of" in capsys.readouterr().err


def test_the_worktree_is_measured_from_an_extracted_copy(monkeypatch, tmp_path):
    """``--worktree`` hands ``measure`` a fresh extract of the working
    tree, its tracked edits included, never the repository directory."""
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "BENCHMARK.json").write_bytes((pairs.REPO_ROOT / "BENCHMARK.json").read_bytes())
    (repo / "tracked.txt").write_text("committed\n", encoding="utf-8")
    for var in ("GIT_AUTHOR_NAME", "GIT_COMMITTER_NAME"):
        monkeypatch.setenv(var, "pairs test")
    for var in ("GIT_AUTHOR_EMAIL", "GIT_COMMITTER_EMAIL"):
        monkeypatch.setenv(var, "pairs@example.invalid")
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)
    (repo / "tracked.txt").write_text("edited\n", encoding="utf-8")
    monkeypatch.setattr(pairs, "REPO_ROOT", repo)

    class Handed(Exception):
        pass

    seen = {}

    def fake_measure(trees, *args):
        seen.update(
            {side: (tree, (tree / "tracked.txt").read_text(encoding="utf-8"))
             for side, tree in trees.items()}
        )  # fmt: skip
        raise Handed

    monkeypatch.setattr(pairs, "measure", fake_measure)
    with pytest.raises(Handed):
        pairs.main(["HEAD", "--worktree", "--workload", "sim_faulty", "--pairs", "1"])
    (base, base_text), (change, change_text) = seen["base"], seen["change"]
    assert change != repo and base != repo
    assert (base_text, change_text) == ("committed\n", "edited\n")
    assert not change.exists()  # the scratch directory is removed afterwards
    assert (repo / "tracked.txt").read_text(encoding="utf-8") == "edited\n"
