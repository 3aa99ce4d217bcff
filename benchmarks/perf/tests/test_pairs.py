"""The verdict of ``benchmarks/perf/pairs.py`` on synthetic medians.

Run with ``python -m pytest benchmarks/perf/tests -q`` (outside the
main suite's ``testpaths``).
"""

from __future__ import annotations

import pytest

from benchmarks.perf import pairs


def test_ten_of_ten_is_faster():
    s = pairs.judge([100.0] * 10, [112.0] * 10)
    assert (s["verdict"], s["wins"], s["losses"], s["ties"]) == ("faster", 10, 0, 0)
    assert s["ratio"] == pytest.approx(1.12)
    assert s["base_iqr"] == 0.0 and s["clears_iqr"] and s["meets_claim"]


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
