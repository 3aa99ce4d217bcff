"""Child entry point that runs the service under test in its own process.

``python3 benchmarks/e2e/server.py <spec.json>`` builds the engine the
spec describes, serves it with ``repro.serve.service.run_service`` on an
ephemeral TCP port until a ``shutdown`` request, then writes what the
runner needs - peak RSS, CPU seconds and, when the spec asks for a
traced run, the span table - to the spec's ``stats_file``.

Traced and untraced runs start through this same file, so they have the
same process topology.  The server is never a thread of the load
generator: sharing one interpreter lock, that arrangement measures
4.7k req/s on a fixture this one serves at ~27k req/s.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import inputs  # noqa: E402
from benchmarks.e2e.spans import SpanRecorder  # noqa: E402


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from repro.serve.service import run_service

    engine = inputs.build_engine(spec["engine"])
    recorder = SpanRecorder() if spec["trace"] else None
    cpu_ready = _cpu_s()
    stats: dict = {"spans": None, "spans_load": None}
    if recorder is not None:
        recorder.install()

        def mark_end_of_load(handle):
            """Snapshot the spans when the client stops sending load
            (its first ``drain`` or ``shutdown``), so the load phase can
            be told from the simulation a drain sets off."""

            def marked(engine, message):
                if stats["spans_load"] is None and message.get("op") in (
                    "drain",
                    "shutdown",
                ):
                    stats["spans_load"] = recorder.to_dict()
                    stats["cpu_load_s"] = _cpu_s() - cpu_ready
                return handle(engine, message)

            return marked

        recorder.patch_with(type(engine), "handle", mark_end_of_load)
    try:
        run_service(engine, host="127.0.0.1", port=0, ready_file=spec["ready_file"])
    finally:
        if recorder is not None:
            recorder.restore()
            stats["spans"] = recorder.to_dict()
    stats["cpu_s"] = _cpu_s() - cpu_ready
    stats["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["stats_file"]).write_text(json.dumps(stats), encoding="utf-8")
    return 0


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
