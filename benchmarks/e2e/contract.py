"""The metrics this benchmark reports - the code's side of
``BENCHMARK.json`` (``tests/test_contract.py`` keeps the two equal).

End-to-end metrics are measured with no span wrapper installed and
every workload reports all of them; what one *op* is differs by
workload (``workloads.py``).  Per-layer metrics come from the traced
pass and have no bound.
"""

from __future__ import annotations

#: name, unit, better, bound (share of the parent's median).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

#: Span name -> the fields of it that are reported.
SPAN_FIELDS = {
    "workloads.read_swf": ("total_s", "jobs"),
    "workloads.fit_to_machine": ("total_s",),
    "core.arrivals.bind": ("total_s",),
    "core.simulator.init": ("total_s",),
    "core.simulator.submit_job": ("calls", "self_s"),
    "core.simulator.pump": ("calls", "self_s", "total_s"),
    "core.events.pop_batch": ("calls", "self_s"),
    "core.events.push": ("calls", "self_s"),
    "allocation.index_get": ("calls", "self_s"),
    "allocation.batch_mfp_losses": ("calls", "self_s"),
    "core.policies.choose": ("calls", "placed", "self_s"),
    "prediction.score": ("calls", "self_s"),
    "failures.window_query": ("calls", "self_s"),
    "core.backfill.shadow_time": ("calls", "self_s"),
    "core.migration.plan": ("calls", "found", "self_s"),
    "core.migration.apply": ("calls", "self_s"),
    "geometry.allocate": ("calls", "self_s"),
    "geometry.release": ("calls", "self_s"),
    "metrics.capacity_record": ("calls", "self_s"),
    "metrics.report_build": ("total_s",),
    "metrics.report_to_dict": ("total_s",),
    "obs.emit": ("calls", "self_s"),
    "serve.protocol.decode": ("calls", "self_s"),
    "serve.protocol.validate": ("calls", "self_s"),
    "serve.protocol.encode": ("calls", "self_s", "bytes"),
    "serve.admission.offer": ("calls", "rejected", "self_s"),
    "serve.admission.release_next": ("calls", "self_s"),
    "serve.engine.handle": ("calls", "self_s", "total_s"),
}

#: Per-layer metrics that are not a plain span field: name, unit, better.
_DERIVED = (
    ("core.simulator.scheduler_passes", "count", "lower"),
    ("core.simulator.backfills", "count", "higher"),
    ("core.simulator.migrations", "count", "higher"),
    ("core.simulator.job_kills", "count", "lower"),
    ("core.policies.choose.hit_ratio", "ratio", "higher"),
    ("obs.emit.bytes", "B", "lower"),
    ("serve.protocol.drain_response_bytes", "B", "lower"),
    ("serve.service.transport_s", "s", "lower"),
    ("serve.service.busy_share", "ratio", "lower"),
    ("experiments.sweep.parallel_s", "s", "lower"),
    ("experiments.sweep.serial_s", "s", "lower"),
    ("experiments.sweep.efficiency", "ratio", "higher"),
    ("experiments.sweep.workers_used", "count", "higher"),
    ("experiments.sweep.chunk_size", "count", "higher"),
    ("experiments.pool.spawn_s", "s", "lower"),
    ("bench.client.send_s", "s", "lower"),
    ("bench.client.wait_s", "s", "lower"),
    ("bench.client.op_p99_ms", "ms", "lower"),
    ("bench.client.drain_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.raw_ops_per_s", "1/s", "higher"),
    ("bench.speed_factor", "ratio", "lower"),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = []
    for span, fields in SPAN_FIELDS.items():
        for fld in fields:
            if fld.endswith("_s"):
                rows.append((f"{span}.{fld}", "s", "lower"))
            elif fld == "bytes":
                rows.append((f"{span}.{fld}", "B", "lower"))
            elif fld == "calls":
                rows.append((f"{span}.{fld}", "count", "lower"))
            else:  # placed / found / rejected / jobs: outcomes, not cost
                rows.append((f"{span}.{fld}", "count", "higher"))
    return tuple(rows) + _DERIVED


#: name, unit, better - every per-layer metric ``--trace 1`` reports.
PER_LAYER = _per_layer()


