"""Tests for the top-level API and the CLI."""

from __future__ import annotations

import argparse
from pathlib import Path

import pytest

import repro
import repro.cli as cli
from repro.api import SimulationSetup, connect, quick_simulate, run_simulation, serve
from repro.cli import main
from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.errors import SimulationError, WorkloadError
from repro.metrics.serialize import report_to_dict
from repro.obs.schema import TRACE_SCHEMA_VERSION
from repro.serve.load import run_load
from repro.workloads.job import Job, Workload
from repro.workloads.models import site_model
from repro.workloads.scaling import fit_to_machine, scale_load
from repro.workloads.swf import read_swf, write_swf
from repro.workloads.synthetic import generate_workload


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

    @pytest.mark.parametrize(
        "field, error", [("seed", SimulationError), ("head", WorkloadError)]
    )
    def test_setup_refuses_negative_seed_and_head(self, field, error, tmp_path):
        path = tmp_path / "t.swf"
        write_swf(Workload("t", 128, tuple(Job(i, i * 60.0, 2, 60.0) for i in range(30))), path)
        with pytest.raises(error, match=f"{field} must be non-negative"):
            SimulationSetup(swf=str(path), **{field: -3})

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
        assert "balancing minus krevat per seed:" in out
        assert "kills_delta" in out and "of 2 seeds" in out

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
        assert main(["run", "--site", "nasa", "--jobs", "15", "--policy", "nope",
                     "--trace", str(path)]) == 2
        monkeypatch.undo()
        sinks = [h for h in opened if h.name == str(path)]
        assert sinks and all(h.closed for h in sinks)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--policy", "nope"], "unknown policy 'nope'"),
            (["swf", "missing.swf"], "missing.swf"),
            (["run", "--jobs", "-1"], "n_jobs must be non-negative"),
            (["trace", "validate", "missing.ndjson"], "missing.ndjson"),
            (["run", "--jobs", "20", "--load", "nan"], "load scale must be positive and finite"),
            (["run", "--seed", "-1"], "seed must be non-negative, got -1"),
            (["serve", "--seed", "-1"], "seed must be non-negative, got -1"),
            (["swf", "missing.swf", "--head", "-3"], "head must be non-negative, got -3"),
            (["swf", "{inf_size_swf}"], "line 2: job 1"),
            (["run", "--swf", "{inf_size_swf}"], "line 2: job 1"),
        ],
        ids=[
            "unknown-policy", "missing-swf", "negative-jobs", "missing-trace", "nan-load",
            "negative-seed-run", "negative-seed-serve", "negative-head",
            "inf-size-swf", "inf-size-swf-run",
        ],
    )
    def test_bad_input_is_one_stderr_line_and_exit_code_2(
        self, argv, message, capsys, tmp_path
    ):
        """``ReproError`` / ``OSError`` are answers, not tracebacks."""
        inf_size_swf = tmp_path / "inf_size.swf"
        inf_size_swf.write_text(
            "; MaxProcs: 128\n1 0 -1 300 inf -1 -1 1e400 600 -1 1 1 1 1 1 -1 -1 -1\n"
        )
        argv = [arg.format(inf_size_swf=inf_size_swf) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("bgl-sim: error: ") and message in line
        assert captured.out == ""

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

    @pytest.mark.parametrize("command", ["summarize", "validate", "diff"])
    @pytest.mark.parametrize(
        "bad_line, message",
        [(b'{"kind":"arr\xffval"}', "not valid JSON"), (b"[1,2]", "not a JSON object")],
        ids=["non-utf8", "non-object"],
    )
    def test_trace_unreadable_line_is_one_stderr_line(
        self, tmp_path, capsys, command, bad_line, message
    ):
        good = self.run_traced(tmp_path, "good.ndjson")
        bad = tmp_path / "bad.ndjson"
        bad.write_bytes(good.read_bytes() + bad_line + b"\n")
        lineno = bad.read_bytes().count(b"\n")
        capsys.readouterr()
        paths = [str(good), str(bad)] if command == "diff" else [str(bad)]
        assert main(["trace", command, *paths]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"bgl-sim: error: {bad}:{lineno}: ") and message in line
        assert captured.out == ""

    def test_trace_schema_1_file_is_refused_not_read(self, tmp_path, capsys):
        """No compatibility reader: ``validate`` names the schema, and
        ``diff`` names the header field before the first divergence."""
        new = self.run_traced(tmp_path, "new.ndjson")
        old = tmp_path / "old.ndjson"
        current = f'"schema":{TRACE_SCHEMA_VERSION}'.encode()
        old.write_bytes(new.read_bytes().replace(current, b'"schema":1', 1))
        capsys.readouterr()
        assert main(["trace", "validate", str(old)]) == 1
        assert "unsupported trace schema 1" in capsys.readouterr().out
        assert main(["trace", "diff", str(old), str(new)]) == 1
        assert capsys.readouterr().out.startswith("headers differ in: schema\n")

    def test_workers_must_be_positive(self, capsys):
        for bad in ("0", "-3", "abc"):
            with pytest.raises(SystemExit) as exc_info:
                main(["figure", "fig3", "--workers", bad])
            assert exc_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "fig5", "--jobs", "20", "--seeds", "0"],
            ["figure", "fig5", "--jobs", "20", "--seeds", "-2"],
            ["compare", "--jobs", "20", "--seeds", "0"],
            ["compare", "--jobs", "20", "--seeds", "-2"],
        ],
        ids=["figure-0", "figure-negative", "compare-0", "compare-negative"],
    )
    def test_seed_counts_must_be_positive(self, argv, monkeypatch, capsys):
        """A seed count below 1 is a usage error, not "the default" (the
        figure used to run 6 seeds) nor an empty comparison."""
        import repro.experiments.figures as figures_mod

        monkeypatch.setattr(
            figures_mod, "run_sweep_outcome", lambda *a, **k: pytest.fail("a sweep ran")
        )
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_figure_refuses_zero_jobs(self, monkeypatch, capsys):
        """``--jobs 0`` used to run the 500-job default."""
        import repro.experiments.figures as figures_mod

        monkeypatch.setattr(
            figures_mod, "run_sweep_outcome", lambda *a, **k: pytest.fail("a sweep ran")
        )
        assert main(["figure", "fig5", "--jobs", "0"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("bgl-sim: error: ") and "n_jobs must be >= 1" in line

    def test_verbose_flag_accepted(self, capsys):
        assert main(["-v", "sites"]) == 0
        assert "nasa" in capsys.readouterr().out


class TestSweepQueueCli:
    """``--queue-dir`` selects the queue; everything else about the sweep
    is the one ``run_sweep_outcome`` call every backend gets."""

    @pytest.fixture(autouse=True)
    def leaves_the_working_directory_empty(self, tmp_path_factory, monkeypatch):
        """``--queue-dir q`` is a relative path: parsing it, refusing it
        or printing where its quarantine file is must not create it."""
        cwd = tmp_path_factory.mktemp("cwd")
        monkeypatch.chdir(cwd)
        yield
        assert list(cwd.iterdir()) == []

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
            (["--lease-s", "5"], "lease_s and spawn_workers=False need queue_dir"),
            (["--no-spawn-workers"], "lease_s and spawn_workers=False need queue_dir"),
            (["--queue-dir", "q", "--checkpoint-dir", "c"],
             "queue_dir is the checkpoint_dir too: pass one"),
            (["--queue-dir", "q", "--lease-s", "0"], "lease_s must be positive"),
        ],
        ids=["lease-s", "no-spawn-workers", "checkpoint-dir", "lease-s=0"],
    )
    def test_usage_errors(self, argv, message, capsys):
        """The library refuses the combination before any cell runs or
        any directory is made; the CLI prints its message."""
        assert main(["sweep", "--jobs", "10", "--seeds", "1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"bgl-sim: error: {message}\n"
        assert captured.out == ""

    def test_sweep_worker_keeps_three_flags(self, monkeypatch, capsys):
        import repro.experiments.queue as queue_mod

        assert main(["sweep-worker", "--queue-dir", "q", "--lease-s", "0"]) == 2
        assert "lease_s must be positive" in capsys.readouterr().err
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


def flag_surface(parser, prefix=()):
    """``(subcommand, flag, default, type)`` of every argument a parser
    tree takes: a long option by its first ``--`` spelling, a positional
    by the name its usage line shows."""
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows += flag_surface(sub, prefix + (name,))
        elif not isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            longs = [o for o in action.option_strings if o.startswith("--")]
            rows.append((
                " ".join(prefix),
                longs[0] if longs else action.metavar or action.dest,
                action.default,
                action.type.__name__ if action.type else None,
            ))
    return rows


#: The flag surface of the parent of the entry-surface fold (ISSUE 21),
#: recorded by ``flag_surface(_build_parser())`` there *before* the nine
#: scenario flags and twelve subcommands became tables.  Hand-kept on
#: purpose: a row that disappears or changes is a user-visible break, so
#: this list is never regenerated from the code it checks.
PARENT_SURFACE = [
    ("", "--verbose", 0, None),
    ("run", "--site", "sdsc", None),
    ("run", "--jobs", 500, "int"),
    ("run", "--failures", 50, "int"),
    ("run", "--policy", "balancing", None),
    ("run", "--parameter", 0.1, "float"),
    ("run", "--load", 1.0, "float"),
    ("run", "--seed", 0, "int"),
    ("run", "--detail", False, None),
    ("run", "--trace", None, None),
    ("run", "--metrics", False, None),
    ("sweep", "--site", "sdsc", None),
    ("sweep", "--policy", "balancing", None),
    ("sweep", "--parameters", [0.0, 0.1, 0.3], "float"),
    ("sweep", "--failures", [50], "int"),
    ("sweep", "--jobs", 200, "int"),
    ("sweep", "--load", 1.0, "float"),
    ("sweep", "--seeds", 2, "_positive_int"),
    ("sweep", "--workers", None, "_positive_int"),
    ("sweep", "--queue-dir", None, None),
    ("sweep", "--lease-s", None, "float"),
    ("sweep", "--no-spawn-workers", False, None),
    ("sweep", "--checkpoint-dir", None, None),
    ("sweep", "--resume", True, None),
    ("sweep", "--max-retries", None, "_positive_int"),
    ("sweep", "--cell-timeout", None, "float"),
    ("sweep-worker", "--queue-dir", None, None),
    ("sweep-worker", "--lease-s", None, "float"),
    ("sweep-worker", "--idle-exit-s", None, "float"),
    ("figure", "name", None, None),
    ("figure", "--jobs", None, "int"),
    ("figure", "--seeds", None, "_positive_int"),
    ("figure", "--workers", None, "_positive_int"),
    ("figure", "--chart", False, None),
    ("figure", "--checkpoint-dir", None, None),
    ("figure", "--resume", True, None),
    ("figure", "--max-retries", None, "_positive_int"),
    ("figure", "--cell-timeout", None, "float"),
    ("compare", "--site", "sdsc", None),
    ("compare", "--jobs", 300, "int"),
    ("compare", "--failures", 30, "int"),
    ("compare", "--baseline", "krevat", None),
    ("compare", "--candidate", "balancing", None),
    ("compare", "--parameter", 0.1, "float"),
    ("compare", "--seeds", 3, "_positive_int"),
    ("compare", "--load", 1.0, "float"),
    ("characterize", "--site", None, None),
    ("characterize", "--swf", None, None),
    ("characterize", "--jobs", 1000, "int"),
    ("characterize", "--failures", 200, "int"),
    ("characterize", "--seed", 0, "int"),
    ("swf", "path", None, None),
    ("swf", "--head", 0, "int"),
    ("swf", "--failures", 50, "int"),
    ("swf", "--policy", "balancing", None),
    ("swf", "--parameter", 0.1, "float"),
    ("swf", "--seed", 0, "int"),
    ("serve", "--site", "sdsc", None),
    ("serve", "--jobs", 500, "int"),
    ("serve", "--failures", 50, "int"),
    ("serve", "--policy", "balancing", None),
    ("serve", "--parameter", 0.1, "float"),
    ("serve", "--load", 1.0, "float"),
    ("serve", "--seed", 0, "int"),
    ("serve", "--swf", None, None),
    ("serve", "--head", 0, "int"),
    ("serve", "--host", "127.0.0.1", None),
    ("serve", "--port", 0, "int"),
    ("serve", "--unix", None, None),
    ("serve", "--clock", "trace", None),
    ("serve", "--tenant-weight", None, None),
    ("serve", "--tenant-cap", 256, "_positive_int"),
    ("serve", "--engine-cap", 512, "_positive_int"),
    ("serve", "--pump-interval", 32, "_positive_int"),
    ("serve", "--ready-file", None, None),
    ("serve", "--metrics-file", None, None),
    ("serve", "--trace", None, None),
    ("load", "--site", "sdsc", None),
    ("load", "--jobs", 500, "int"),
    ("load", "--failures", 50, "int"),
    ("load", "--policy", "balancing", None),
    ("load", "--parameter", 0.1, "float"),
    ("load", "--load", 1.0, "float"),
    ("load", "--seed", 0, "int"),
    ("load", "--swf", None, None),
    ("load", "--head", 0, "int"),
    ("load", "--address", None, None),
    ("load", "--acceleration", None, "float"),
    ("load", "--rate", None, "float"),
    ("load", "--pipeline", 32, "_positive_int"),
    ("load", "--tenant", None, None),
    ("load", "--no-drain", False, None),
    ("load", "--check", False, None),
    ("load", "--shutdown", False, None),
    ("load", "--output", None, None),
    ("trace summarize", "path", None, None),
    ("trace diff", "path_a", None, None),
    ("trace diff", "path_b", None, None),
    ("trace validate", "path", None, None),
]

#: What the fold added, each row on purpose: ``run`` takes the trace
#: source ``serve``/``load`` already had, and ``swf PATH`` — now ``run
#: --swf PATH`` — takes what ``run`` takes.
ADDED_SURFACE = [
    ("run", "--swf", None, None),
    ("run", "--head", 0, "int"),
    ("swf", "--load", 1.0, "float"),
    ("swf", "--detail", False, None),
    ("swf", "--trace", None, None),
    ("swf", "--metrics", False, None),
]

#: The least each subcommand needs on its command line to parse.
REQUIRED_ARGV = {
    "swf": ["t.swf"],
    "sweep-worker": ["--queue-dir", "q"],
    "figure": ["fig3"],
    "load": ["--address", "127.0.0.1:1"],
    "trace": ["summarize", "t.ndjson"],
    "trace summarize": ["t.ndjson"],
    "trace diff": ["a.ndjson", "b.ndjson"],
    "trace validate": ["t.ndjson"],
}


class TestFlagSurface:
    """The surface cannot shrink silently."""

    def test_surface_is_the_parents_plus_the_listed_additions(self):
        surface = flag_surface(cli._build_parser())
        assert len(surface) == len(set(map(repr, surface)))
        assert sorted(map(repr, surface)) == sorted(
            map(repr, PARENT_SURFACE + ADDED_SURFACE)
        )

    @pytest.mark.parametrize(
        "command",
        sorted({row[0] for row in PARENT_SURFACE if row[0]}),
    )
    def test_every_parent_default_still_parses_to_the_same_value(self, command):
        """Not just declared: the namespace a bare invocation yields
        carries the parent's value under the flag's own name."""
        required = REQUIRED_ARGV.get(command, [])
        args = cli._build_parser().parse_args([*command.split(), *required])
        for row_command, flag, default, _ in PARENT_SURFACE:
            if row_command == command and flag.startswith("--"):
                if flag not in required:
                    dest = flag[2:].replace("-", "_")
                    assert getattr(args, dest) == default, flag

    @pytest.mark.parametrize(
        "argv, dest, value",
        [
            (["run", "--jobs", "7"], "jobs", 7),
            (["run", "--parameter", "0.25"], "parameter", 0.25),
            (["sweep", "--failures", "5", "9"], "failures", [5, 9]),
            (["figure", "fig3", "--jobs", "40"], "jobs", 40),
            (["compare", "--load", "1.2"], "load", 1.2),
            (["characterize", "--swf", "x.swf"], "swf", "x.swf"),
            (["swf", "x.swf", "--head", "3"], "head", 3),
            (["swf", "x.swf"], "swf", "x.swf"),
            (["serve", "--seed", "4"], "seed", 4),
            (["load", "--address", "a:1", "--site", "nasa"], "site", "nasa"),
        ],
    )
    def test_scenario_flags_convert_as_before(self, argv, dest, value):
        assert getattr(cli._build_parser().parse_args(argv), dest) == value

    def test_each_scenario_flag_is_declared_once(self):
        """One declaration: the literal of each of the nine scenario
        flags occurs once in ``cli.py`` (``sweep``'s list-valued
        ``--failures`` axis is the one allowed second spelling)."""
        source = Path(cli.__file__).read_text(encoding="utf-8")
        for flag in cli._SCENARIO_FLAGS:
            allowed = 2 if flag == "--failures" else 1
            assert source.count(f'"{flag}"') == allowed, flag


class TestCommandTable:
    """Every subcommand is a row of ``cli._COMMANDS``; there is no
    dispatch chain (and so no "unhandled command") to fall out of."""

    def test_the_table_is_the_parsers_whole_command_set(self):
        (subparsers,) = [
            a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        names = [row[0] for row in cli._COMMANDS]
        assert list(subparsers.choices) == names
        assert len(names) == len(set(names)) == 12

    @pytest.mark.parametrize("row", cli._COMMANDS, ids=lambda row: row[0])
    def test_handler_is_reached_through_the_table(self, row, monkeypatch):
        name, help_text, add_flags, _ = row
        seen = []

        def handler(args):
            seen.append(args.command)
            return 7

        monkeypatch.setattr(
            cli, "_COMMANDS", ((name, help_text, add_flags, handler),)
        )
        assert main([name, *REQUIRED_ARGV.get(name, ())]) == 7
        assert seen == [name]

    @pytest.mark.parametrize("row", cli._COMMANDS, ids=lambda row: row[0])
    def test_command_is_documented(self, row):
        """The module docstring and the README list every row."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8"
        )
        assert f"bgl-sim {row[0]} " in " ".join(cli.__doc__.split())
        assert f"bgl-sim {row[0]}" in readme


@pytest.fixture
def swf_trace(tmp_path):
    """A 120-job SDSC-model trace on disk."""
    path = tmp_path / "trace.swf"
    write_swf(generate_workload(site_model("sdsc"), 120, seed=3), path)
    return str(path)


class TestSwfScenario:
    """One builder: an SWF source is the same scenario from every entry
    point, under the one seeding convention (``s / s+1 / s+2``)."""

    FLAGS = ["--failures", "60", "--seed", "0"]

    def cli_output(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_batch_equals_pumped_equals_served(self, swf_trace, capsys):
        """``run --swf`` == ``swf PATH`` == ``SimulationSetup(swf=).run()``
        == the drained report of an engine served from the same setup
        (``bgl-sim swf`` used to seed failures and policy with ``s, s``
        and reported a different schedule than ``serve --swf``)."""
        setup = SimulationSetup(
            swf=swf_trace, n_failures=60, policy="balancing", parameter=0.1, seed=0
        )
        report = setup.run()
        via_run = self.cli_output(["run", "--swf", swf_trace, *self.FLAGS], capsys)
        via_swf = self.cli_output(["swf", swf_trace, *self.FLAGS], capsys)
        assert via_run == via_swf
        assert via_run.splitlines()[0] == report.summary_line()
        assert report.counters.job_kills > 0  # the seeding matters here

        client = connect(serve(setup))
        served = run_load(client, setup.build_workload(), pipeline_depth=8)
        assert served.dropped == 0 and served.errors == 0
        batch = setup.build_simulator().run()
        assert batch.timing == report.timing and batch.counters == report.counters
        assert served.final_report == report_to_dict(batch)

    def test_the_seeding_convention_spelled_out_by_hand(self, swf_trace):
        """Workload ``s`` (nothing to draw for a trace), failures
        ``s + 1``, policy ``s + 2`` — for the SWF source as for the
        synthetic one, checked against inputs built without the setup."""
        from repro.core.policies.registry import make_policy
        from repro.failures.synthetic import failure_horizon_s, generate_failures

        for source in (dict(swf=swf_trace), dict(site="sdsc", n_jobs=80)):
            setup = SimulationSetup(
                n_failures=40, policy="tiebreak", parameter=0.6, seed=5, **source
            )
            workload = setup.build_workload()
            failures = generate_failures(
                setup.config.dims, 40, failure_horizon_s(workload.span), seed=6
            )
            built = setup.build_failures(workload)
            assert built.times.tolist() == failures.times.tolist()
            assert built.nodes.tolist() == failures.nodes.tolist()
            policy = make_policy(
                "tiebreak", failure_log=failures, parameter=0.6, seed=7
            )
            by_hand = simulate(workload, failures, policy, setup.config)
            assert setup.build_simulator().run() == by_hand

    def test_head_limits_the_trace(self, swf_trace):
        setup = SimulationSetup(swf=swf_trace, head=30, n_failures=0)
        assert len(setup.build_workload()) == 30
        assert setup.run().timing.n_jobs == 30

    def test_load_scales_the_trace_as_the_paper_does(self, swf_trace, capsys):
        """``--load c`` with ``--swf`` is ``scale_load`` on the real log
        (it used to be dropped); ``--load 1.0`` is omitting it."""
        config = SimulationConfig()
        by_hand = fit_to_machine(scale_load(read_swf(swf_trace), 1.2), config.dims)
        setup = SimulationSetup(swf=swf_trace, load_scale=1.2, n_failures=60, seed=0)
        assert setup.build_workload() == by_hand
        assert by_hand != SimulationSetup(swf=swf_trace).build_workload()

        scaled = self.cli_output(
            ["run", "--swf", swf_trace, *self.FLAGS, "--load", "1.2"], capsys
        )
        workload, failures, policy = SimulationSetup(
            swf=swf_trace, load_scale=1.2, n_failures=60, parameter=0.1, seed=0
        ).build_inputs()
        assert workload == by_hand
        expected = simulate(by_hand, failures, policy, config)
        assert scaled.splitlines()[0] == expected.summary_line()

        plain = self.cli_output(["run", "--swf", swf_trace, *self.FLAGS], capsys)
        unit = self.cli_output(
            ["swf", swf_trace, *self.FLAGS, "--load", "1.0"], capsys
        )
        assert unit == plain != scaled

    def test_swf_takes_what_run_takes(self, swf_trace, tmp_path, capsys):
        trace = tmp_path / "t.ndjson"
        out = self.cli_output(
            ["swf", swf_trace, "--head", "40", "--failures", "5", "--detail",
             "--metrics", "--trace", str(trace)],
            capsys,
        )
        assert "Distributions:" in out and "sim.dispatches" in out
        assert main(["trace", "validate", str(trace)]) == 0
