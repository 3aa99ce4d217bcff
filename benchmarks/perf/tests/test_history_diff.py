"""``history.py diff REV_A REV_B`` on a synthetic ledger.

Run with ``python -m pytest benchmarks/perf/tests -q`` (outside the
main suite's ``testpaths``).
"""

from __future__ import annotations

import json

from benchmarks.perf import history


def suite(rev: str, workload: str, ops: float, rss: float = 50.0, dirty: bool = False) -> dict:
    return {
        "rev": rev, "dirty": dirty, "workload": workload, "seed": 0, "seconds": 8,
        "rounds": 5, "setup_s": 0.1, "ops_per_s": ops, "op_p50_ms": 2.0,
        "peak_rss_mb": rss, "src_loc": 100,
    }  # fmt: skip


def pairs(base: str, change: str, dirty: bool, workload: str = "w") -> dict:
    return {
        "kind": "pairs", "metric": "ops_per_s", "base_rev": base, "change_rev": change,
        "change_dirty": dirty, "workload": workload, "seed": 0, "seconds": 8, "n": 10,
        "wins": 10, "losses": 0, "ties": 0, "base_median": 100.0, "change_median": 110.0,
        "base_iqr": 2.0, "ratio": 1.1, "verdict": "faster", "clears_iqr": True,
        "meets_claim": True, "digests_equal": True, "calls_equal": True,
    }  # fmt: skip


LEDGER = [
    suite("aaaaaaa", "w", 100.0),
    suite("aaaaaaa", "w", 120.0),
    suite("aaaaaaa", "w", 110.0),
    suite("bbbbbbb", "w", 132.0, rss=51.0),
    suite("bbbbbbb", "only_b", 7.0),
    suite("ccccccc", "w", 999.0),
    pairs("aaaaaaa", "aaaaaaa", True, "claim"),       # the work that became b
    pairs("aaaaaaa", "bbbbbbb", False, "committed"),  # the two commits
    pairs("mmmmmmm", "mmmmmmm", True, "between"),     # a commit in between
    pairs("bbbbbbb", "bbbbbbb", True, "after"),       # work past b
    pairs("ccccccc", "bbbbbbb", False, "other"),      # another base
]


def table(report: list[str]) -> dict[tuple[str, str], list[str]]:
    """(workload, metric) → the row's A, B and B/A cells."""
    rows, workload = {}, None
    for line in report[1:]:
        if line.startswith("pairs lines"):
            break
        cells = line.split()
        if len(cells) == 5:
            workload = cells.pop(0)
        rows[workload, cells[0]] = cells[1:]
    return rows


def test_medians_of_each_revision_and_their_ratio():
    report = history.diff_lines(LEDGER, ["aaaaaaa", "bbbbbbb"])
    rows = table(report)
    assert set(rows) == {(w, m) for w in ("only_b", "w") for m in history.METRICS}
    assert rows["w", "ops_per_s"] == ["110.0000", "132.0000", "1.200"]
    assert rows["w", "peak_rss_mb"] == ["50.0000", "51.0000", "1.020"]
    assert rows["only_b", "ops_per_s"] == ["-", "7.0000", "-"]


def test_pairs_lines_filed_between_the_revisions():
    """The dirty tree measured on A, the two commits, and a dirty tree
    on a commit between them; not work measured past B or from another
    base."""
    report = history.diff_lines(LEDGER, ["aaaaaaa", "bbbbbbb", "mmmmmmm"])
    start = next(k for k, line in enumerate(report) if line.startswith("pairs lines"))
    assert report[start] == "pairs lines from aaaaaaa to bbbbbbb: 3"
    listed = [line.split()[0] for line in report[start + 1:]]
    assert listed == ["claim", "committed", "between"]
    assert "aaaaaaa -> aaaaaaa+dirty, 10/10 won" in report[start + 1]
    assert "meets_claim=true" in report[start + 1]
    # Without the commit in between, its line is not listed.
    assert history.diff_lines(LEDGER, ["aaaaaaa", "bbbbbbb"])[-1].split()[0] == "committed"


def test_full_hashes_match_the_abbreviated_ledger():
    full = ["aaaaaaa" + "1" * 33, "bbbbbbb" + "2" * 33]
    assert history.diff_lines(LEDGER, full) == history.diff_lines(LEDGER, ["aaaaaaa", "bbbbbbb"])


def test_cli_prints_the_report_and_refuses_unknown_revisions(tmp_path, capsys):
    ledger = tmp_path / "history.ndjson"
    ledger.write_text("".join(json.dumps(line) + "\n" for line in LEDGER), encoding="utf-8")
    assert history.main(["--history", str(ledger), "diff", "aaaaaaa", "bbbbbbb"]) == 0
    out = capsys.readouterr().out
    assert "pairs lines from aaaaaaa to bbbbbbb: 2" in out
    assert history.main(["--history", str(ledger), "diff", "0000000", "1111111"]) == 1
    assert "no lines for 0000000 or 1111111" in capsys.readouterr().err


def test_names_git_does_not_know_are_kept_as_given():
    assert history.commits_between("0000000", "1111111") == ["0000000", "1111111"]
