"""``history.py status SINCE`` on a synthetic ledger.

Run with ``python -m pytest benchmarks/perf/tests -q`` (outside the
main suite's ``testpaths``).
"""

from __future__ import annotations

import json

from benchmarks.perf import history
from benchmarks.perf.tests.test_history_diff import pairs, suite


def claim(base: str, workload: str, meets: bool = True) -> dict:
    line = pairs(base, base, True, workload)
    line["meets_claim"] = meets
    return line


LEDGER = [
    suite("aaaaaaa", "w", 100.0),                   # 1
    suite("aaaaaaa", "v", 5.0),                     # 2
    claim("0000000", "w"),                          # 3: before SINCE is named
    suite("bbbbbbb", "w", 130.0, dirty=True),       # 4: SINCE's first line
    claim("bbbbbbb", "v", meets=False),             # 5
    suite("bbbbbbb", "w", 120.0, rss=52.0),         # 6: a new block (not dirty)
    suite("bbbbbbb", "w", 140.0, rss=54.0),         # 7
    claim("bbbbbbb", "w"),                          # 8
    claim("ccccccc", "v"),                          # 9
]


def rows(report: list[str]) -> dict[str, list[str]]:
    """workload → its table cells after the workload name."""
    table = {}
    for line in report[1:]:
        if line.startswith("claims met"):
            break
        name, *cells = line.split()
        table[name] = cells
    return table


def test_latest_suite_block_per_workload():
    table = rows(history.status_lines(LEDGER, "bbbbbbb"))
    # w: lines 6-7 (the dirty line 4 is another block); v: line 2 only.
    assert table["w"] == ["bbbbbbb", "6-7", "0.1000", "130.0000", "2.0000", "53.0000", "100"]
    assert table["v"] == ["aaaaaaa", "2", "0.1000", "5.0000", "2.0000", "50.0000", "100"]


def test_claims_met_from_the_first_line_naming_the_revision():
    report = history.status_lines(LEDGER, "bbbbbbb")
    start = next(k for k, line in enumerate(report) if line.startswith("claims met"))
    assert report[start] == "claims met since bbbbbbb (meets_claim pairs lines): 2"
    # By workload: v's line 9, then w's line 8; line 3 predates SINCE and
    # line 5 does not meet the claim.
    assert [line.split()[:3] for line in report[start + 1:]] == [
        ["line", "9:", "v"], ["line", "8:", "w"],
    ]
    assert "ccccccc -> ccccccc+dirty, 10/10 won" in report[start + 1]
    assert len(history.status_lines(LEDGER, "aaaaaaa")) == 1 + 2 + 1 + 3


def test_full_hash_and_unknown_revision(tmp_path, capsys):
    full = "bbbbbbb" + "2" * 33
    assert history.status_lines(LEDGER, full) == history.status_lines(LEDGER, "bbbbbbb")
    assert history.status_lines(LEDGER, "9999999") is None
    ledger = tmp_path / "history.ndjson"
    ledger.write_text("".join(json.dumps(line) + "\n" for line in LEDGER), encoding="utf-8")
    assert history.main(["--history", str(ledger), "status", "bbbbbbb"]) == 0
    assert "claims met since bbbbbbb" in capsys.readouterr().out
    assert history.main(["--history", str(ledger), "status", "9999999"]) == 1
    assert "no line names 9999999" in capsys.readouterr().err


def test_the_committed_ledger_has_a_status():
    lines = [json.loads(raw) for raw in history.HISTORY_PATH.read_text(encoding="utf-8").splitlines()]
    report = history.status_lines(lines, lines[0]["rev"])
    assert {"sim_faulty", "sim_traced", "swf_replay"} <= set(rows(report))
