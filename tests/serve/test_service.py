"""Asyncio NDJSON service: TCP and unix-socket round trips.

Each test runs ``run_service`` in a daemon thread, discovers the
ephemeral address through the ready-file handshake, and drives it with
the blocking :class:`SocketClient` — the same topology as the CI
serve-smoke job.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import SimulationSetup
from repro.serve.client import SocketClient, connect
from repro.serve.engine import ServeEngine
from repro.serve.load import run_load
from repro.serve.service import run_service


def start_service(tmp_path, engine, *, unix=False):
    ready = tmp_path / "ready"
    kwargs = {"ready_file": ready}
    if unix:
        kwargs["unix_path"] = tmp_path / "serve.sock"
    thread = threading.Thread(
        target=run_service, args=(engine,), kwargs=kwargs, daemon=True
    )
    thread.start()
    deadline = time.time() + 10.0
    while not ready.exists():
        if time.time() > deadline:
            raise TimeoutError("service never wrote its ready file")
        time.sleep(0.01)
    return ready.read_text().strip(), thread


@pytest.fixture
def setup():
    return SimulationSetup(site="sdsc", n_jobs=40, seed=13)


class TestTcpService:
    def test_round_trip_and_clean_shutdown(self, tmp_path, setup):
        engine = ServeEngine.from_setup(setup)
        address, thread = start_service(tmp_path, engine)
        with SocketClient.connect(address) as client:
            assert client.ping()["pong"]
            assert client.submit(id=1, arrival=0.0, size=4, runtime=60.0)["ok"]
            assert client.status(1)["state"] in ("pending", "waiting", "running")
            reply = client.shutdown()
            assert reply["ok"] and reply["shutdown"]
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_pipelined_load_matches_batch(self, tmp_path, setup):
        """Full stack over TCP: replay, drain, byte-identical report."""
        from repro.core.policies.registry import make_policy
        from repro.core.simulator import Simulator
        from repro.metrics.serialize import report_to_dict

        workload = setup.build_workload()
        failures = setup.build_failures(workload)
        policy = make_policy(
            setup.policy,
            failure_log=failures,
            parameter=setup.parameter,
            pf_rule=setup.pf_rule,
            seed=setup.seed + 2,
        )
        batch = report_to_dict(
            Simulator(workload, failures, policy, setup.config).run()
        )

        engine = ServeEngine.from_setup(setup)
        address, thread = start_service(tmp_path, engine)
        with SocketClient.connect(address) as client:
            report = run_load(client, workload, pipeline_depth=16)
            assert report.dropped == 0 and report.errors == 0
            assert report.final_report == batch
            client.shutdown()
        thread.join(timeout=10.0)

    def test_malformed_line_keeps_connection_alive(self, tmp_path, setup):
        engine = ServeEngine.from_setup(setup)
        address, thread = start_service(tmp_path, engine)
        with SocketClient.connect(address) as client:
            client._sock.sendall(b"this is not json\n")
            reply = client._read_response()
            assert not reply["ok"] and reply["protocol_error"]
            assert client.ping()["pong"]  # still serving
            client.shutdown()
        thread.join(timeout=10.0)

    def test_connect_helper_dispatches_by_target(self, setup):
        engine = ServeEngine.from_setup(setup)
        client = connect(engine)
        assert client.ping()["pong"]


class TestUnixService:
    def test_unix_socket_round_trip(self, tmp_path, setup):
        engine = ServeEngine.from_setup(setup)
        address, thread = start_service(tmp_path, engine, unix=True)
        with SocketClient.connect(address) as client:
            assert client.ping()["pong"]
            stats = client.stats()
            assert stats["clock"] == "trace"
            client.shutdown()
        thread.join(timeout=10.0)
        # Graceful shutdown removes the socket file.
        assert not (tmp_path / "serve.sock").exists()

    def test_drain_report_larger_than_a_request_line(self, tmp_path):
        """Regression: the client held *responses* to the 64 KiB
        *request*-line cap, so ``drain`` failed once a session held more
        than ~335 jobs.  A 400-job session must drain through the socket
        client byte-identically to the batch simulator."""
        from repro.serve.protocol import MAX_LINE_BYTES, encode

        from tests.serve.test_engine import batch_report

        setup = SimulationSetup(site="sdsc", n_jobs=400, seed=13)
        engine = ServeEngine.from_setup(setup)
        address, thread = start_service(tmp_path, engine, unix=True)
        with SocketClient.connect(address) as client:
            report = run_load(client, setup.build_workload(), pipeline_depth=16)
            client.shutdown()
        thread.join(timeout=10.0)
        assert report.dropped == 0 and report.errors == 0
        assert len(encode(report.final_report)) > MAX_LINE_BYTES
        assert encode(report.final_report) == encode(batch_report(setup))
