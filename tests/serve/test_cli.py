"""CLI surface: `bgl-sim serve` / `bgl-sim load`, SIGINT handling, api glue."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.cli as cli
from repro.api import SimulationSetup, connect, serve
from repro.cli import main
from repro.obs.schema import validate_stream
from repro.obs.trace import read_trace
from repro.serve.client import SocketClient
from repro.serve.engine import ServeEngine


class TestKeyboardInterrupt:
    """Satellite: Ctrl-C exits with code 130 and one stderr line, no
    traceback (the sweep/figure pools are shut down on the way out)."""

    @staticmethod
    def interrupt(monkeypatch, command):
        """Make ``command``'s table row raise ``KeyboardInterrupt``."""

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            cli, "_COMMANDS",
            tuple(
                (name, help_text, add_flags, boom if name == command else handler)
                for name, help_text, add_flags, handler in cli._COMMANDS
            ),
        )

    def test_sigint_exit_code_and_message(self, monkeypatch, capsys):
        self.interrupt(monkeypatch, "sites")
        assert main(["sites"]) == 130
        captured = capsys.readouterr()
        assert captured.err.strip() == "interrupted"
        assert "Traceback" not in captured.err

    def test_sigint_survives_pool_cleanup_failure(self, monkeypatch, capsys):
        self.interrupt(monkeypatch, "sweep")

        import repro.experiments.pool as pool

        def bad_shutdown(*a, **k):
            raise RuntimeError("pool already gone")

        monkeypatch.setattr(pool, "shutdown_warm_pool", bad_shutdown)
        assert main(["sweep", "--parameters", "0.1"]) == 130


class TestServeLoadCli:
    SCENARIO = ("--site", "sdsc", "--jobs", "40", "--seed", "9")

    def serve_in_thread(self, tmp_path, extra=(), scenario=SCENARIO):
        ready = tmp_path / "ready"
        argv = ["serve", *scenario, "--ready-file", str(ready), *extra]
        thread = threading.Thread(target=main, args=(argv,), daemon=True)
        thread.start()
        deadline = time.time() + 15.0
        while not ready.exists():
            if time.time() > deadline:
                raise TimeoutError("serve never wrote its ready file")
            time.sleep(0.01)
        return ready.read_text().strip(), thread

    def test_serve_load_check_round_trip(self, tmp_path, capsys):
        """The acceptance-criteria path, end to end over the real CLI:
        load --check replays the scenario and requires the drained
        report to match the batch simulator byte-for-byte."""
        metrics_file = tmp_path / "metrics.json"
        address, thread = self.serve_in_thread(
            tmp_path, extra=["--metrics-file", str(metrics_file)]
        )
        output = tmp_path / "report.json"
        code = main(
            [
                "load",
                "--site", "sdsc", "--jobs", "40", "--seed", "9",
                "--address", address,
                "--check", "--shutdown",
                "--output", str(output),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err
        assert "check: service report matches batch simulator" in captured.out
        assert "dropped     0" in captured.out
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        report = json.loads(output.read_text())
        assert report["submitted"] == 40 and report["dropped"] == 0
        metrics = json.loads(metrics_file.read_text())
        assert metrics["counters"]["serve.submitted"] == 40
        # Untraced: the metrics file alone turns the simulator's profile on.
        assert metrics["sim"]["counters"]["sim.dispatches"] >= 40

    def test_swf_scenario_round_trip_with_load_scale(self, tmp_path, capsys):
        """The one builder's other source through the real CLI and
        socket: ``--swf`` checks out, and ``--load`` scales the trace —
        the drained report is the batch run of the log scaled by hand
        (both subcommands used to drop ``--load`` beside ``--swf``)."""
        from repro.core.simulator import simulate
        from repro.metrics.serialize import report_to_dict
        from repro.workloads.models import site_model
        from repro.workloads.scaling import fit_to_machine, scale_load
        from repro.workloads.swf import read_swf, write_swf
        from repro.workloads.synthetic import generate_workload

        path = tmp_path / "trace.swf"
        write_swf(generate_workload(site_model("sdsc"), 60, seed=3), path)
        scenario = ("--swf", str(path), "--seed", "7", "--load", "1.2")
        address, thread = self.serve_in_thread(tmp_path, scenario=scenario)
        output = tmp_path / "report.json"
        code = main(
            ["load", *scenario, "--address", address, "--check", "--shutdown",
             "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err
        assert "check: service report matches batch simulator" in captured.out
        thread.join(timeout=15.0)
        assert not thread.is_alive()

        setup = SimulationSetup(
            swf=str(path), load_scale=1.2, n_failures=50, parameter=0.1, seed=7
        )
        _, failures, policy = setup.build_inputs()
        dims = setup.config.dims
        scaled, plain = (
            report_to_dict(
                simulate(
                    fit_to_machine(scale_load(read_swf(path), c), dims),
                    failures, policy, setup.config,
                )
            )
            for c in (1.2, 1.0)
        )
        assert json.loads(output.read_text())["final_report"] == scaled != plain

    def test_check_requires_drain(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "load", "--address", "127.0.0.1:1",
                    "--check", "--no-drain",
                ]
            )

    def test_mismatched_scenario_fails_check(self, tmp_path, capsys):
        """Different seeds on the two sides → different schedule → the
        check must fail loudly, proving it actually compares."""
        address, thread = self.serve_in_thread(tmp_path)
        code = main(
            [
                "load",
                "--site", "sdsc", "--jobs", "40", "--seed", "10",  # serve used 9
                "--address", address,
                "--check", "--shutdown",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.err
        thread.join(timeout=15.0)


class TestSignals:
    """SIGINT / SIGTERM take the ``shutdown`` op's path: drain every
    admitted job, flush the trace, write the metrics file, remove the
    socket, exit 0 — with no traceback."""

    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name
    )
    def test_signal_drains_and_exits_clean(self, tmp_path, signum):
        sock, trace, metrics, ready = (
            tmp_path / name for name in ("s.sock", "t.ndjson", "m.json", "ready")
        )
        src = Path(__file__).resolve().parents[2] / "src"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", str(sock),
             "--trace", str(trace), "--metrics-file", str(metrics),
             "--ready-file", str(ready)],
            env=dict(
                os.environ,
                PYTHONPATH=f"{src}{os.pathsep}" + os.environ.get("PYTHONPATH", ""),
            ),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.time() + 15.0
            while not ready.exists():
                assert server.poll() is None and time.time() < deadline
                time.sleep(0.01)
            client = SocketClient.connect(str(sock))
            for job in range(5):
                assert client.request(
                    {"op": "submit", "id": job, "size": 8, "runtime": 100.0,
                     "arrival": float(job), "tenant": "a"}
                )["ok"]
            server.send_signal(signum)  # the client is still connected
            out, err = server.communicate(timeout=30.0)
            client.close()
        finally:
            server.kill()
            server.wait()
        assert server.returncode == 0, err
        assert "Traceback" not in err
        assert "5 admitted, 0 rejected, 5 completed" in out
        assert json.loads(metrics.read_text())["counters"]["serve.submitted"] == 5
        records = read_trace(trace)
        assert validate_stream(records) == []
        assert sum(r["kind"] == "finish" for r in records) == 5
        assert not sock.exists()


class TestApiGlue:
    def test_api_serve_builds_engine(self):
        engine = serve(SimulationSetup(site="sdsc", n_jobs=10, seed=1))
        assert isinstance(engine, ServeEngine)
        client = connect(engine)
        assert client.ping()["ok"]

    def test_api_serve_defaults(self):
        assert isinstance(serve(), ServeEngine)
