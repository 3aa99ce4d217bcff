"""Tests for the top-level API and the CLI."""

from __future__ import annotations

import pytest

import repro
from repro.api import SimulationSetup, quick_simulate, run_simulation
from repro.cli import main
from repro.core.config import SimulationConfig
from repro.errors import SimulationError
from repro.workloads.job import Job, Workload
from repro.workloads.swf import write_swf


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_lazy_exports(self):
        assert repro.quick_simulate is quick_simulate
        assert repro.SimulationSetup is SimulationSetup

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestQuickSimulate:
    def test_end_to_end(self):
        report = quick_simulate(
            site="nasa", n_jobs=40, n_failures=5, policy="balancing",
            confidence=0.5, seed=0,
        )
        assert report.timing.n_jobs == 40
        assert 0.0 <= report.capacity.utilized <= 1.0
        assert report.parameters["site"] == "nasa"

    def test_krevat_policy(self):
        report = quick_simulate(site="nasa", n_jobs=20, n_failures=0, policy="krevat")
        assert report.policy == "krevat"
        assert report.counters.job_kills == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            quick_simulate(n_jobs=-1)

    def test_setup_equivalent(self):
        a = quick_simulate(site="nasa", n_jobs=25, n_failures=3, confidence=0.3, seed=5)
        b = run_simulation(
            SimulationSetup(site="nasa", n_jobs=25, n_failures=3,
                            policy="balancing", parameter=0.3, seed=5)
        )
        assert a.timing == b.timing
        assert a.capacity == b.capacity


class TestCli:
    def test_run_command(self, capsys):
        assert main(["run", "--site", "nasa", "--jobs", "20", "--failures", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowdown=" in out and "counters:" in out

    def test_sites_command(self, capsys):
        assert main(["sites"]) == 0
        out = capsys.readouterr().out
        assert "nasa" in out and "sdsc" in out and "llnl" in out

    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        assert "fig3" in capsys.readouterr().out

    def test_swf_command(self, tmp_path, capsys):
        workload = Workload(
            "t", 128, tuple(Job(i, i * 60.0, 4, 120.0) for i in range(10))
        )
        path = tmp_path / "t.swf"
        write_swf(workload, path)
        assert main(["swf", str(path), "--failures", "2", "--policy", "krevat"]) == 0
        assert "krevat" in capsys.readouterr().out

    def test_swf_head_limits_jobs(self, tmp_path, capsys):
        workload = Workload(
            "t", 128, tuple(Job(i, i * 60.0, 2, 60.0) for i in range(30))
        )
        path = tmp_path / "t.swf"
        write_swf(workload, path)
        assert main(["swf", str(path), "--head", "5", "--failures", "0"]) == 0

    def test_run_detail(self, capsys):
        assert main(
            ["run", "--site", "nasa", "--jobs", "30", "--failures", "3", "--detail"]
        ) == 0
        out = capsys.readouterr().out
        assert "Distributions:" in out
        assert "histogram" in out
        assert "size class" in out or "job-size class" in out

    def test_characterize_site(self, capsys):
        assert main(["characterize", "--site", "nasa", "--jobs", "150"]) == 0
        out = capsys.readouterr().out
        assert "Workload profile:" in out
        assert "offered_load" in out
        assert "failure-trace profile" in out

    def test_compare_command(self, capsys):
        assert main(
            ["compare", "--site", "nasa", "--jobs", "25", "--failures", "3",
             "--seeds", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "balancing vs krevat" in out
        assert "mean over seeds" in out

    def test_characterize_swf(self, tmp_path, capsys):
        workload = Workload(
            "t", 128, tuple(Job(i, i * 60.0, 4, 120.0) for i in range(20))
        )
        path = tmp_path / "c.swf"
        write_swf(workload, path)
        assert main(["characterize", "--swf", str(path)]) == 0
        assert "n_jobs" in capsys.readouterr().out


class TestCliObservability:
    def run_traced(self, tmp_path, name, extra=()):
        path = tmp_path / name
        code = main(
            ["run", "--site", "nasa", "--jobs", "15", "--failures", "2",
             "--trace", str(path), *extra]
        )
        assert code == 0
        return path

    def test_run_trace_writes_valid_file(self, tmp_path, capsys):
        path = self.run_traced(tmp_path, "t.ndjson")
        assert path.exists()
        assert "trace:" in capsys.readouterr().out
        assert main(["trace", "validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_run_trace_streams_the_bytes_a_buffered_run_writes(
        self, tmp_path, capsys
    ):
        path = self.run_traced(tmp_path, "t.ndjson")
        out = capsys.readouterr().out
        sim = SimulationSetup(
            site="nasa", n_jobs=15, n_failures=2, policy="balancing",
            parameter=0.1, seed=0, config=SimulationConfig(trace=True),
        ).build_simulator()
        sim.run()
        buffered = sim.recorder.write(tmp_path / "buffered.ndjson")
        assert path.read_bytes() == buffered.read_bytes()
        assert f"trace: {len(sim.recorder)} records -> {path}" in out

    def test_run_trace_closes_the_file_when_the_run_fails(
        self, tmp_path, monkeypatch
    ):
        opened = []
        real_open = open

        def tracking_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr("builtins.open", tracking_open)
        path = tmp_path / "t.ndjson"
        with pytest.raises(SimulationError):
            main(["run", "--site", "nasa", "--jobs", "15", "--policy", "nope",
                  "--trace", str(path)])
        monkeypatch.undo()
        sinks = [h for h in opened if h.name == str(path)]
        assert sinks and all(h.closed for h in sinks)

    def test_run_metrics_prints_counters(self, capsys):
        assert main(
            ["run", "--site", "nasa", "--jobs", "15", "--failures", "2",
             "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "sim.dispatches" in out
        assert "timer" in out

    def test_trace_summarize(self, tmp_path, capsys):
        path = self.run_traced(tmp_path, "t.ndjson")
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records by kind:" in out
        assert "arrival" in out

    def test_trace_diff_identical(self, tmp_path, capsys):
        a = self.run_traced(tmp_path, "a.ndjson")
        b = self.run_traced(tmp_path, "b.ndjson")
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_trace_diff_divergent(self, tmp_path, capsys):
        a = self.run_traced(tmp_path, "a.ndjson")
        b = self.run_traced(tmp_path, "b.ndjson", extra=["--seed", "9"])
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 1
        assert "decision #" in capsys.readouterr().out

    def test_trace_validate_flags_broken_file(self, tmp_path, capsys):
        path = tmp_path / "broken.ndjson"
        path.write_text('{"kind":"arrival","t":0.0,"seq":0,"job":1,"size":2}\n')
        assert main(["trace", "validate", str(path)]) == 1
        assert "header" in capsys.readouterr().out

    def test_workers_must_be_positive(self, capsys):
        for bad in ("0", "-3", "abc"):
            with pytest.raises(SystemExit) as exc_info:
                main(["figure", "fig3", "--workers", bad])
            assert exc_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_verbose_flag_accepted(self, capsys):
        assert main(["-v", "sites"]) == 0
        assert "nasa" in capsys.readouterr().out


class TestSweepQueueCli:
    """``--queue-dir`` selects the queue; everything else about the sweep
    is the one ``run_sweep_outcome`` call every backend gets."""

    @pytest.fixture
    def sweep_call(self, monkeypatch):
        """Capture the ``run_sweep_outcome`` call instead of running it."""
        import repro.experiments.sweep as sweep_mod
        from repro.resilience import QuarantineEntry, ResilientSweepOutcome

        captured = {}

        def fake(points, **options):
            captured.update(options)
            entry = QuarantineEntry(0, 0, 0, 3, "ChaosError", "boom", "k")
            return ResilientSweepOutcome([None] * len(points), (entry,))

        monkeypatch.setattr(sweep_mod, "run_sweep_outcome", fake)
        return captured

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--backend", "queue", "--queue-dir", "q"],
            ["sweep-worker", "--queue-dir", "q", "--max-attempts", "3"],
            ["sweep-worker", "--queue-dir", "q", "--poll-s", "0.1"],
            ["sweep-worker", "--queue-dir", "q", "--kill-after-claims", "1"],
            ["sweep-worker", "--queue-dir", "q", "--max-cells", "2"],
            ["sweep-worker", "--queue-dir", "q", "--worker-id", "w"],
        ],
        ids=["--backend", "--max-attempts", "--poll-s", "--kill-after-claims",
             "--max-cells", "--worker-id"],
    )
    def test_removed_flag_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, option, value",
        [
            ([], "queue_dir", "q"),
            (["--lease-s", "5"], "lease_s", 5.0),
            (["--no-spawn-workers"], "spawn_workers", False),
            (["--no-resume"], "resume", False),
            (["--workers", "3"], "workers", 3),
        ],
        ids=["--queue-dir", "--lease-s", "--no-spawn-workers", "--no-resume",
             "--workers"],
    )
    def test_kept_flag_reaches_the_one_call(
        self, flags, option, value, sweep_call, capsys
    ):
        assert main(["sweep", "--queue-dir", "q", *flags]) == 1
        assert sweep_call[option] == value
        assert sweep_call["checkpoint_dir"] is None

    def test_retry_flags_reach_the_queue(self, sweep_call, capsys):
        main(["sweep", "--queue-dir", "q", "--max-retries", "2",
              "--cell-timeout", "30"])
        assert sweep_call["retry"].max_attempts == 2
        assert sweep_call["retry"].cell_timeout_s == 30.0

    def test_quarantine_details_line_names_the_queue_directory(
        self, sweep_call, tmp_path, capsys
    ):
        assert main(["sweep", "--queue-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "quarantined cells: (point 0, seed#0)" in out
        assert f"details: {tmp_path / 'quarantine.json'}" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--lease-s", "5"], "need --queue-dir"),
            (["--no-spawn-workers"], "need --queue-dir"),
            (["--queue-dir", "q", "--checkpoint-dir", "c"], "drop --checkpoint-dir"),
            (["--queue-dir", "q", "--lease-s", "0"], "must be positive"),
        ],
        ids=["lease-s", "no-spawn-workers", "checkpoint-dir", "lease-s=0"],
    )
    def test_usage_errors(self, argv, message, sweep_call):
        with pytest.raises(SystemExit, match=message):
            main(["sweep", *argv])
        assert not sweep_call

    def test_sweep_worker_keeps_three_flags(self, monkeypatch):
        import repro.experiments.queue as queue_mod

        calls = []
        monkeypatch.setattr(
            queue_mod, "run_worker", lambda *a, **kw: calls.append((a, kw))
        )
        assert main(["sweep-worker", "--queue-dir", "q", "--lease-s", "5",
                     "--idle-exit-s", "1"]) == 0
        assert main(["sweep-worker", "--queue-dir", "q"]) == 0
        assert calls == [
            (("q",), {"lease_s": 5.0, "idle_exit_s": 1.0}),
            (("q",), {"lease_s": None, "idle_exit_s": None}),
        ]
        with pytest.raises(SystemExit, match="must be positive"):
            main(["sweep-worker", "--queue-dir", "q", "--lease-s", "0"])
