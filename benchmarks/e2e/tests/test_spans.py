"""The outside-in span recorder: accounting identities and clean-up."""

from __future__ import annotations

import importlib

import pytest

from benchmarks.e2e import inputs, stats
from benchmarks.e2e.spans import POINTS, SpanRecorder, layer_rows
from benchmarks.e2e.workloads import simulate


class FakeClock:
    """Advances only when told to, so durations are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_duration_minus_children() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def leaf() -> None:
        clock.tick(2.0)

    wrapped_leaf = rec.wrap("layer.leaf", leaf)

    def parent() -> None:
        clock.tick(1.0)
        wrapped_leaf()
        wrapped_leaf()
        clock.tick(0.5)

    rec.wrap("layer.parent", parent)()
    table = rec.table()
    assert table["layer.parent"] == {"calls": 1, "total_s": 5.5, "self_s": 1.5}
    assert table["layer.leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    parents = {name: parent for name, _, _, parent in rec.records}
    assert parents == {"layer.leaf": "layer.parent", "layer.parent": None}


def test_recursive_wrapper_counts_outermost_call_once() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def descend(depth: int) -> None:
        clock.tick(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = rec.wrap("layer.recursive", descend)
    wrapped(3)
    row = rec.table()["layer.recursive"]
    # Four frames of one second each: one call, inclusive time counted
    # once, self time complete.
    assert row == {"calls": 1, "total_s": 4.0, "self_s": 4.0}


def test_exception_closes_the_span_and_propagates() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def boom() -> None:
        clock.tick(1.0)
        raise KeyError("inside")

    def outer() -> None:
        clock.tick(1.0)
        rec.wrap("layer.boom", boom)()

    with pytest.raises(KeyError, match="inside"):
        rec.wrap("layer.outer", outer)()
    table = rec.table()
    assert table["layer.boom"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert table["layer.outer"] == {"calls": 1, "total_s": 2.0, "self_s": 1.0}
    assert rec._stack == []
    # The recorder still works after the failure.
    rec.wrap("layer.after", lambda: clock.tick(1.0))()
    assert rec.table()["layer.after"]["self_s"] == 1.0


def test_result_counters() -> None:
    rec = SpanRecorder(FakeClock())
    pick = rec.wrap(
        "layer.pick",
        lambda x: x,
        counters={"some": lambda r: r is not None, "size": lambda r: len(r or "")},
    )
    for value in ("ab", None, "cde"):
        pick(value)
    assert rec.counts == {"layer.pick.some": 2, "layer.pick.size": 5}


def _originals() -> list[tuple[object, str, object]]:
    found = []
    for point in POINTS:
        for module_name, path in point.targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            found.append((owner, attr, vars(owner)[attr]))
    return found


@pytest.fixture(scope="module")
def traced_simulation():
    """One small fault-heavy simulation under the real wrappers."""
    log = {"site": "sdsc", "n_jobs": 60, "load_scale": 1.0, "log_seed": 0}
    workload = inputs.frozen_workload(log)
    failures = inputs.failure_trace(workload, 60, 7)
    before = _originals()
    rec = SpanRecorder()
    with rec:
        patched = [vars(owner)[attr] for owner, attr, _ in before]
        report = rec.root("bench.root", simulate, workload, failures)
    return rec, report, before, patched


def test_every_patched_attribute_is_restored(traced_simulation) -> None:
    _, _, before, patched = traced_simulation
    for (owner, attr, original), during in zip(before, patched):
        assert during is not original, f"{owner}.{attr} was never patched"
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"


def test_layer_rows_and_unattributed_sum_to_the_root(traced_simulation) -> None:
    rec, report, _, _ = traced_simulation
    table = rec.table()
    root = table["bench.root"]
    rows = layer_rows(table)
    unattributed = rows.pop("bench")
    assert sum(rows.values()) + unattributed == pytest.approx(root["total_s"], rel=0.01)
    assert unattributed / root["total_s"] <= 0.10
    # The wrappers saw the run the report describes.
    assert table["core.simulator.submit_job"]["calls"] == 60
    assert table["core.events.pop_batch"]["calls"] == report["counters"]["scheduler_passes"]
    placed = rec.counts["core.policies.choose.placed"]
    assert 0 < placed <= table["geometry.allocate"]["calls"]
    assert table["obs.emit"]["calls"] == 0


def test_traced_run_gives_the_same_report(traced_simulation) -> None:
    _, report, _, _ = traced_simulation
    log = {"site": "sdsc", "n_jobs": 60, "load_scale": 1.0, "log_seed": 0}
    workload = inputs.frozen_workload(log)
    assert simulate(workload, inputs.failure_trace(workload, 60, 7)) == report


def test_percentile_needs_ten_samples_beyond_it() -> None:
    samples = [float(i) for i in range(1, 1001)]
    assert stats.percentile(samples, 99) == 990.0
    assert stats.percentile(samples, 50) == 500.0
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(samples[:999], 99)  # 9.99 samples beyond p99
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(samples, 99.9)  # one sample beyond p99.9
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(samples[:16], 50)
