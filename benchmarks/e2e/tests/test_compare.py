"""The compare tool's verdicts, count check and exit status."""

from __future__ import annotations

import copy
import json

from benchmarks.e2e import compare
from benchmarks.e2e.contract import END_TO_END, PER_LAYER


def summary(values: list[float]) -> dict:
    from benchmarks.e2e import stats

    return {**stats.summary(values), "values": values}


def result(ops: list[float], passes: int = 100, failed_share: float = 0.0) -> dict:
    steady = {
        "setup_s": [1.0, 1.01, 0.99, 1.0, 1.0],
        "op_p50_ms": [5.0, 5.1, 4.9, 5.0, 5.0],
        "peak_rss_mb": [60.0, 60.1, 59.9, 60.0, 60.0],
    }
    per_layer = {name: 0 for name, _, _ in PER_LAYER}
    per_layer["core.simulator.scheduler_passes"] = passes
    return {
        "workloads": {
            "sim_faulty": {
                "end_to_end": {
                    "ops_per_s": summary(ops),
                    **{metric: summary(values) for metric, values in steady.items()},
                },
                "failed_share": failed_share,
                "per_layer": per_layer,
                "info": {"report_sha256": "a" * 64},
            }
        }
    }


BASE = [100.0, 101.0, 99.0, 100.5, 99.5]


def verdicts(a: dict, b: dict) -> dict[str, str]:
    rows, _ = compare.compare(a, b)
    return {row["metric"]: row["verdict"] for row in rows}


def test_same_numbers_are_ok() -> None:
    assert set(verdicts(result(BASE), result(BASE)).values()) == {"ok"}
    assert {m for m, *_ in END_TO_END} <= set(verdicts(result(BASE), result(BASE)))


def test_worse_beyond_the_bound_is_regressed() -> None:
    slower = [v * 0.7 for v in BASE]  # throughput: higher is better, bound 25 %
    assert verdicts(result(BASE), result(slower))["ops_per_s"] == "regressed"
    within = [v * 0.9 for v in BASE]
    assert verdicts(result(BASE), result(within))["ops_per_s"] == "ok"
    faster = [v * 2.0 for v in BASE]
    assert verdicts(result(BASE), result(faster))["ops_per_s"] == "ok"


def test_wide_spread_is_unresolved_unless_every_run_is_better() -> None:
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdicts(result(BASE), result(noisy))["ops_per_s"] == "unresolved"
    assert verdicts(result(noisy), result(BASE))["ops_per_s"] == "unresolved"
    noisy_but_better = [v + 100.0 for v in noisy]
    assert verdicts(result(BASE), result(noisy_but_better))["ops_per_s"] == "ok"


def test_relative_difference_has_a_as_its_base() -> None:
    rows, _ = compare.compare(result(BASE), result([v * 1.1 for v in BASE]))
    row = next(r for r in rows if r["metric"] == "ops_per_s")
    assert abs(row["diff"] - 0.1) < 1e-9


def test_counts_must_match_exactly() -> None:
    _, counts = compare.compare(result(BASE, passes=100), result(BASE, passes=101))
    differing = [c for c in counts if not c["same"]]
    assert [c["metric"] for c in differing] == ["core.simulator.scheduler_passes"]
    moved = copy.deepcopy(result(BASE))
    moved["workloads"]["sim_faulty"]["info"]["report_sha256"] = "b" * 64
    _, counts = compare.compare(result(BASE), moved)
    assert [c["metric"] for c in counts if not c["same"]] == ["report_sha256"]


def test_exit_status(tmp_path, capsys) -> None:
    paths = {}
    for name, data in {
        "a": result(BASE),
        "same": result(BASE),
        "slow": result([v * 0.5 for v in BASE]),
        "failing": result(BASE, failed_share=0.01),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    assert compare.main([str(paths["a"]), str(paths["same"])]) == 0
    assert "0 regressed" in capsys.readouterr().out
    assert compare.main([str(paths["a"]), str(paths["slow"])]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(paths["a"]), str(paths["failing"])]) == 1
