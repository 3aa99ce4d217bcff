"""Command-line interface.

::

    bgl-sim run          --site sdsc --policy balancing --parameter 0.1 ...
    bgl-sim run          --swf PATH [--head N] ...   # replay a real SWF trace
    bgl-sim swf          PATH ...                    # the same: run --swf PATH
    bgl-sim sweep        --parameters 0.0 0.1 0.3 [--checkpoint-dir DIR] ...
    bgl-sim sweep        --queue-dir DIR ...         # multi-host driver
    bgl-sim sweep-worker --queue-dir DIR             # one queue worker
    bgl-sim figure       fig3 [--jobs 400] [--seeds 6] # series + claim verdicts
    bgl-sim figures      # list regenerable figures
    bgl-sim sites        # list workload site models
    bgl-sim compare      --baseline krevat --candidate balancing ...
    bgl-sim characterize --site nasa | --swf PATH    # workload/failure profile
    bgl-sim trace        summarize|diff|validate PATH...
    bgl-sim serve        --port 9753 ...             # scheduler-as-a-service
    bgl-sim load         --address HOST:PORT ...     # replay/load-test a service

(`python -m repro` is equivalent.)  Every subcommand is one row of
``_COMMANDS``; every scenario flag is one row of ``_SCENARIO_FLAGS`` and
reaches the simulator through :func:`_setup_from_args`, so ``run``,
``swf``, ``compare``, ``characterize``, ``serve`` and ``load`` build the
same scenario from the same flags.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Sequence

from repro._version import __version__
from repro.errors import ReproError


def _positive_int(value: str) -> int:
    """argparse type for counts that must be >= 1 (e.g. ``--workers``)."""
    try:
        parsed = int(value)
    except ValueError:
        parsed = 0
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer (>= 1), got {value!r}"
        )
    return parsed


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Worker/checkpoint/retry options shared by ``sweep`` and ``figure``."""
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help=(
            "parallel sweep workers (sweep: default 1; figure: "
            "REPRO_FIG_WORKERS, else all cores but one); results are "
            "identical to --workers 1"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "persist every completed sweep cell here (atomic, "
            "content-addressed); a killed run re-invoked with the same "
            "arguments resumes where it stopped"
        ),
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "trust verified cells already in --checkpoint-dir "
            "(--no-resume recomputes everything but still writes "
            "checkpoints)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "attempts per cell before it is quarantined instead of "
            "aborting the sweep (enables the retrying executor)"
        ),
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell; a timeout counts as a failed attempt",
    )


def _execution_options(args: argparse.Namespace) -> dict:
    """What :func:`_add_execution_flags` collected, as the keywords
    ``run_sweep_outcome`` and ``run_figure`` take."""
    retry = None
    if args.max_retries is not None or args.cell_timeout is not None:
        from repro.resilience import RetryPolicy

        given = {"max_attempts": args.max_retries, "cell_timeout_s": args.cell_timeout}
        retry = RetryPolicy(**{k: v for k, v in given.items() if v is not None})
    return dict(
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        retry=retry,
        resume=args.resume,
    )


#: The scenario flags, declared once: flag -> (SimulationSetup field,
#: argparse keywords).  The ``dest`` is the flag's own name.
_SCENARIO_FLAGS = {
    "--site": ("site", dict(default="sdsc", help="workload model (nasa/sdsc/llnl)")),
    "--jobs": ("n_jobs", dict(type=int, default=500, help="number of jobs")),
    "--failures": ("n_failures", dict(type=int, default=50, help="failure events")),
    "--policy": (
        "policy", dict(default="balancing", help="krevat / balancing / tiebreak")
    ),
    "--parameter": ("parameter", dict(
        type=float, default=0.1,
        help="prediction confidence (balancing) or accuracy (tiebreak)",
    )),
    "--load": ("load_scale", dict(type=float, default=1.0, help="load scale c")),
    "--seed": ("seed", dict(
        type=int, default=0,
        help="workload seed (failures draw from seed+1, the policy from seed+2)",
    )),
    "--swf": ("swf", dict(
        default=None, metavar="PATH",
        help="replay this SWF trace instead of a synthetic site workload",
    )),
    "--head": ("head", dict(
        type=int, default=0, help="with --swf: only the first N jobs"
    )),
}


def _add_scenario_flags(
    parser: argparse.ArgumentParser, flags: str | None = None, **defaults
) -> None:
    """Attach the scenario flags named in ``flags`` (all nine when
    ``None``), with this subcommand's ``defaults`` over the table's."""
    for flag, (_, keywords) in _SCENARIO_FLAGS.items():
        if flags is None or flag[2:] in flags.split():
            parser.add_argument(flag, **keywords)
    parser.set_defaults(**defaults)


def _setup_from_args(args: argparse.Namespace, **overrides):
    """The :class:`~repro.api.SimulationSetup` the scenario flags say.

    Both sides of a served replay, and every batch subcommand, must
    build the identical scenario — same workload, same failure log, same
    policy seeding — so this is the one place flags become a setup.  A
    flag the subcommand does not take (or left at ``None``) keeps the
    setup's own default; ``overrides`` win.
    """
    from repro.api import SimulationSetup

    given = {
        field: getattr(args, flag[2:])
        for flag, (field, _) in _SCENARIO_FLAGS.items()
        if getattr(args, flag[2:], None) is not None
    }
    return SimulationSetup(**{**given, **overrides})


@contextmanager
def _trace_recorder(path: str | None):
    """A recorder streaming every decision to ``path`` as the run goes
    (a buffered run holds every record as a dict until the end), the
    file closed on the way out; ``None`` without a path."""
    if not path:
        yield None
        return
    from repro.obs.trace import TraceRecorder

    with open(path, "w", encoding="utf-8") as sink:
        yield TraceRecorder(sink=sink)


def _flags_run(parser: argparse.ArgumentParser, scenario: str | None = None) -> None:
    _add_scenario_flags(parser, scenario)
    parser.add_argument(
        "--detail",
        action="store_true",
        help="print slowdown/wait distributions and per-size breakdown",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record every scheduler decision to an NDJSON trace file",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print internal counters/timings for the run",
    )


def _flags_swf(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "swf", metavar="path", help="SWF file (Parallel Workloads Archive format)"
    )
    _flags_run(parser, "head failures policy parameter load seed")


def _add_queue_flags(parser: argparse.ArgumentParser, required: bool = False) -> None:
    """The directory-queue options ``sweep`` and ``sweep-worker`` share."""
    parser.add_argument(
        "--queue-dir", required=required, default=None, metavar="DIR",
        help=(
            "shared work-queue directory: `sweep` drives its cells through "
            "it and `sweep-worker` processes on any host sharing it pull "
            "them (checkpoints live there too; results are "
            "bitwise-identical to a local run)"
        ),
    )
    parser.add_argument(
        "--lease-s", type=float, default=None, metavar="SECONDS",
        help=(
            "with --queue-dir: a claimed cell not completed within this "
            "window counts as a failed attempt and is retried"
        ),
    )


def _flags_sweep(parser: argparse.ArgumentParser) -> None:
    _add_scenario_flags(parser, "site policy jobs load", jobs=200)
    parser.add_argument(
        "--parameters",
        type=float,
        nargs="+",
        default=[0.0, 0.1, 0.3],
        metavar="A",
        help="prediction parameter values to sweep",
    )
    parser.add_argument(
        "--failures",
        type=int,
        nargs="+",
        default=[50],
        metavar="N",
        help="failure counts to sweep (crossed with --parameters)",
    )
    parser.add_argument(
        "--seeds", type=_positive_int, default=2, help="number of seeds per point"
    )
    _add_queue_flags(parser)
    parser.add_argument(
        "--no-spawn-workers",
        action="store_true",
        help=(
            "with --queue-dir: do not start local sweep-worker processes "
            "(workers run elsewhere against the shared directory)"
        ),
    )
    _add_execution_flags(parser)


def _flags_sweep_worker(parser: argparse.ArgumentParser) -> None:
    _add_queue_flags(parser, required=True)
    parser.add_argument(
        "--idle-exit-s", type=float, default=None, metavar="SECONDS",
        help="exit after this long without claimable work (default: wait)",
    )


def _flags_figure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", help="fig3 .. fig10")
    _add_scenario_flags(parser, "jobs", jobs=None)
    parser.add_argument("--seeds", type=_positive_int, default=None, help="number of seeds")
    parser.add_argument("--chart", action="store_true", help="render an ASCII chart")
    _add_execution_flags(parser)


def _flags_compare(parser: argparse.ArgumentParser) -> None:
    _add_scenario_flags(
        parser, "site jobs failures parameter load", jobs=300, failures=30
    )
    parser.add_argument("--baseline", default="krevat")
    parser.add_argument("--candidate", default="balancing")
    parser.add_argument("--seeds", type=_positive_int, default=3)


def _flags_characterize(parser: argparse.ArgumentParser) -> None:
    _add_scenario_flags(
        parser, "site swf jobs failures seed", site=None, jobs=1000, failures=200
    )


def _flags_serve(parser: argparse.ArgumentParser) -> None:
    _add_scenario_flags(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--unix", default=None, metavar="PATH",
        help="serve on a unix socket instead of TCP",
    )
    parser.add_argument(
        "--clock",
        choices=("trace", "logical"),
        default="trace",
        help=(
            "trace: clients state simulated arrival times (replays are "
            "byte-identical to batch runs); logical: the service assigns "
            "monotonic arrival ticks (fair-share weights shape the schedule)"
        ),
    )
    parser.add_argument(
        "--tenant-weight", action="append", default=None, metavar="NAME=W",
        help="fair-share weight for a tenant (repeatable; default 1)",
    )
    parser.add_argument(
        "--tenant-cap", type=_positive_int, default=256,
        help="per-tenant admission-queue depth before rejects",
    )
    parser.add_argument(
        "--engine-cap", type=_positive_int, default=512,
        help="released-but-uncompleted jobs the engine holds",
    )
    parser.add_argument(
        "--pump-interval", type=_positive_int, default=32,
        help="submissions between event-loop pump passes",
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write the bound address here once listening",
    )
    parser.add_argument(
        "--metrics-file", default=None, metavar="PATH",
        help="write the final metrics snapshot here on shutdown "
        "(profiles the simulator for its sim section)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream every scheduler decision to an NDJSON file",
    )


def _flags_load(parser: argparse.ArgumentParser) -> None:
    _add_scenario_flags(parser)
    parser.add_argument(
        "--address", required=True, metavar="HOST:PORT|PATH",
        help="service address (TCP host:port or unix-socket path)",
    )
    parser.add_argument(
        "--acceleration", type=float, default=None, metavar="X",
        help="replay at trace time divided by X (default: full speed)",
    )
    parser.add_argument(
        "--rate", type=float, default=None, metavar="PER_S",
        help="open-loop submissions per second (overrides trace spacing)",
    )
    parser.add_argument(
        "--pipeline", type=_positive_int, default=32,
        help="requests in flight per transport round trip",
    )
    parser.add_argument(
        "--tenant", action="append", default=None, metavar="NAME",
        help="tenant names to round-robin submissions over (repeatable)",
    )
    parser.add_argument(
        "--no-drain", action="store_true",
        help="skip the final drain (leave the service running hot)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "run the same scenario through the batch simulator locally "
            "and require the drained report to match byte-for-byte"
        ),
    )
    parser.add_argument(
        "--shutdown", action="store_true",
        help="send a shutdown request after the run",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the load report as JSON",
    )


def _flags_trace(parser: argparse.ArgumentParser) -> None:
    trace_sub = parser.add_subparsers(dest="trace_command", required=True)
    summ = trace_sub.add_parser("summarize", help="per-kind record counts and span")
    summ.add_argument("path", help="trace file")
    diff = trace_sub.add_parser(
        "diff", help="locate the first divergent decision between two traces"
    )
    diff.add_argument("path_a", help="first trace file")
    diff.add_argument("path_b", help="second trace file")
    val = trace_sub.add_parser(
        "validate", help="check schema, seq density and time monotonicity"
    )
    val.add_argument("path", help="trace file")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.config import SimulationConfig

    setup = _setup_from_args(
        args, config=SimulationConfig(trace=bool(args.trace), profile=args.metrics)
    )
    with _trace_recorder(args.trace) as recorder:
        simulator = setup.build_simulator(recorder=recorder)
        report = simulator.run()
    if args.trace:
        print(f"trace: {len(simulator.recorder)} records -> {args.trace}")
    if args.metrics and simulator.metrics is not None:
        for line in simulator.metrics.summary_lines():
            print(f"  {line}")
    print(report.summary_line())
    t, c = report.timing, report.capacity
    print(
        f"  wait={t.avg_wait:.0f}s response={t.avg_response:.0f}s "
        f"slowdown={t.avg_bounded_slowdown:.2f} restarts={t.total_restarts}"
    )
    print(f"  capacity: {c}")
    print(f"  counters: {report.counters}")
    if args.detail:
        from repro.analysis import (
            per_size_class_summary,
            render_histogram,
            slowdown_distribution,
            wait_distribution,
        )

        print("\nDistributions:")
        print(" ", slowdown_distribution(report.records))
        print(" ", wait_distribution(report.records))
        print("\nSlowdown by job-size class:")
        for label, summary in per_size_class_summary(report.records).items():
            print(f"  {label:>7}: n={summary.n:<5} mean={summary.mean:8.2f} "
                  f"p95={summary.percentiles[95]:8.2f}")
        print("\n" + render_histogram(
            [r.slowdown() for r in report.records],
            bins=8, log_bins=True, title="bounded slowdown histogram",
        ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import SweepPoint, run_sweep_outcome

    points = [
        SweepPoint(
            site=args.site,
            n_jobs=args.jobs,
            load_scale=args.load,
            n_failures=n_failures,
            policy=args.policy,
            parameter=parameter,
        )
        for n_failures in args.failures
        for parameter in args.parameters
    ]
    outcome = run_sweep_outcome(
        points,
        seeds=tuple(range(args.seeds)),
        queue_dir=args.queue_dir,
        lease_s=args.lease_s,
        spawn_workers=not args.no_spawn_workers,
        **_execution_options(args),
    )
    header = (
        f"{'failures':>8} {'param':>6} {'slowdown':>9} {'response':>9} "
        f"{'wait':>8} {'util':>6} {'kills':>6} {'seeds':>5}"
    )
    print(header)
    for point, result in zip(points, outcome.results):
        if result is None:
            print(
                f"{point.n_failures:>8} {point.parameter:>6.2f} "
                f"{'(all seeds quarantined)':>40}"
            )
            continue
        print(
            f"{point.n_failures:>8} {point.parameter:>6.2f} "
            f"{result.avg_bounded_slowdown:>9.3f} {result.avg_response:>9.0f} "
            f"{result.avg_wait:>8.0f} {result.utilized:>6.3f} "
            f"{result.job_kills:>6.1f} {result.n_seeds:>5}"
        )
    print(f"\n{outcome.stats.summary_line()}")
    if outcome.quarantined:
        cells = ", ".join(
            f"(point {e.point_index}, seed#{e.seed_index})"
            for e in outcome.quarantined
        )
        print(f"quarantined cells: {cells}")
        if args.checkpoint_dir or args.queue_dir:
            from repro.resilience.store import quarantine_path

            root = args.checkpoint_dir or args.queue_dir
            print(f"details: {quarantine_path(root)}")
    return 0 if outcome.complete else 1


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    from repro.experiments.queue import run_worker

    run_worker(
        args.queue_dir, lease_s=args.lease_s, idle_exit_s=args.idle_exit_s
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import evaluate_claims, format_claims, format_figure, run_figure

    result = run_figure(
        args.name,
        n_jobs=args.jobs,
        seeds=None if args.seeds is None else tuple(range(args.seeds)),
        **_execution_options(args),
    )
    print(format_figure(result))
    print()
    print(format_claims(evaluate_claims({result.figure: result})))
    if args.chart:
        from repro.analysis import render_series

        series = {
            label: result.metric_values(label) for label in result.series
        }
        print()
        print(render_series(series, title=f"{result.figure}: {result.metric}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_reports, seed_sign_counts

    comparisons = []
    for seed in range(args.seeds):
        base = _setup_from_args(
            args, policy=args.baseline, parameter=0.0, seed=seed
        ).run()
        cand = _setup_from_args(args, policy=args.candidate, seed=seed).run()
        pair = compare_reports(base, cand)
        comparisons.append(pair)
        print(f"seed {seed}: {pair.summary()}")
    print(f"\n{args.candidate} minus {args.baseline} per seed:")
    for metric, signs in seed_sign_counts(comparisons).items():
        print(f"  {metric:<20} {signs}: {signs.verdict}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis import characterize_failures, characterize_workload

    workload, failures, _ = _setup_from_args(args).build_inputs()
    for title, profile in (
        ("Workload profile:", characterize_workload(workload)),
        (
            "\nMatched synthetic failure-trace profile:",
            characterize_failures(failures),
        ),
    ):
        print(title)
        for field_name in profile.__dataclass_fields__:
            print(f"  {field_name:<24} {getattr(profile, field_name)}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import figure_registry

    print("\n".join(figure_registry()))
    return 0


def _cmd_sites(args: argparse.Namespace) -> int:
    from repro.workloads import available_sites, site_model

    for name in available_sites():
        model = site_model(name)
        print(
            f"{name:<6} machine={model.machine_nodes:<4} "
            f"interarrival={model.mean_interarrival_s:.0f}s "
            f"p2={model.p_power_of_two:.2f}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.config import SimulationConfig
    from repro.serve.engine import ServeEngine
    from repro.serve.service import run_service

    weights = {}
    for entry in args.tenant_weight or ():
        name, sep, weight_text = entry.partition("=")
        if not sep:
            raise SystemExit(f"--tenant-weight expects NAME=WEIGHT, got {entry!r}")
        try:
            weights[name] = float(weight_text)
        except ValueError:
            raise SystemExit(
                f"--tenant-weight {entry!r}: weight must be a number"
            ) from None
    with _trace_recorder(args.trace) as recorder:
        # A metrics file carries the simulator's registry (its ``sim``
        # section), so asking for one turns the profile on.
        engine = ServeEngine.from_setup(
            _setup_from_args(args, config=SimulationConfig(profile=bool(args.metrics_file))),
            clock=args.clock,
            weights=weights or None,
            tenant_cap=args.tenant_cap,
            engine_cap=args.engine_cap,
            pump_interval=args.pump_interval,
            recorder=recorder,
        )
        run_service(
            engine,
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            ready_file=args.ready_file,
            metrics_file=args.metrics_file,
        )
    stats = engine.handle({"op": "stats"})
    print(
        f"served {stats['submitted']} submissions: "
        f"{stats['admitted']} admitted, {stats['rejected']} rejected, "
        f"{stats['completed']} completed"
    )
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.records import pretty_json
    from repro.serve.client import SocketClient
    from repro.serve.load import run_load

    if args.check and args.no_drain:
        raise SystemExit("--check needs the drained report; drop --no-drain")
    setup = _setup_from_args(args)
    inputs = setup.build_inputs()
    client = SocketClient.connect(args.address)
    try:
        result = run_load(
            client,
            inputs[0],
            acceleration=args.acceleration,
            rate=args.rate,
            tenants=tuple(args.tenant) if args.tenant else ("default",),
            pipeline_depth=args.pipeline,
            drain=not args.no_drain,
        )
        exit_code = 0
        for line in result.summary_lines():
            print(f"  {line}")
        if result.dropped or result.errors:
            print("FAIL: dropped responses or submit errors", file=sys.stderr)
            exit_code = 1
        if args.check:
            from repro.metrics.serialize import report_to_dict
            from repro.core.simulator import simulate

            expected = report_to_dict(simulate(*inputs, setup.config))
            if result.final_report == expected:
                print("check: service report matches batch simulator")
            else:
                print(
                    "FAIL: service report differs from batch simulator",
                    file=sys.stderr,
                )
                exit_code = 1
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(pretty_json(result.to_dict()))
        if args.shutdown:
            client.shutdown()
    finally:
        client.close()
    return exit_code


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.tools import (
        diff_traces,
        format_summary,
        headers_differ,
        summarize_trace,
    )
    from repro.obs.schema import validate_stream
    from repro.obs.trace import read_trace

    if args.trace_command == "summarize":
        print(format_summary(summarize_trace(read_trace(args.path))))
        return 0
    if args.trace_command == "validate":
        errors = validate_stream(read_trace(args.path))
        if errors:
            for error in errors:
                print(f"{args.path}: {error}")
            return 1
        print(f"{args.path}: OK")
        return 0
    trace_a = read_trace(args.path_a)  # diff: the one command left
    trace_b = read_trace(args.path_b)
    header_delta = headers_differ(trace_a, trace_b)
    if header_delta:
        print(f"headers differ in: {', '.join(header_delta)}")
    divergence = diff_traces(trace_a, trace_b)
    if divergence is None:
        print(
            f"identical decision streams "
            f"({sum(1 for r in trace_a if r.get('kind') != 'header')} records)"
        )
        return 1 if header_delta else 0
    print(divergence.describe())
    return 1


#: The command table: ``(name, help, add_flags, handler)``.  A row is
#: all there is to a subcommand — ``add_flags(subparser)`` declares what
#: it takes (``None``: nothing) and ``handler(args)`` returns its exit
#: code.  ``swf PATH`` is ``run --swf PATH`` with the path filled in.
_COMMANDS = (
    ("run", "run one simulation point", _flags_run, _cmd_run),
    ("swf", "simulate a real SWF trace file (= run --swf PATH)", _flags_swf, _cmd_run),
    (
        "sweep", "run a sweep grid with optional checkpoint/resume and retry",
        _flags_sweep, _cmd_sweep,
    ),
    (
        "sweep-worker",
        "pull-and-run sweep cells from a shared work-queue directory "
        "(start any number of these, on any hosts sharing the "
        "directory; drive with `bgl-sim sweep --queue-dir`)",
        _flags_sweep_worker, _cmd_sweep_worker,
    ),
    ("figure", "regenerate one paper figure", _flags_figure, _cmd_figure),
    ("figures", "list regenerable figures", None, _cmd_figures),
    ("sites", "list bundled workload site models", None, _cmd_sites),
    (
        "compare", "paired comparison of two policies on one scenario",
        _flags_compare, _cmd_compare,
    ),
    (
        "characterize", "profile a workload model or SWF trace",
        _flags_characterize, _cmd_characterize,
    ),
    (
        "serve", "serve the scheduler over newline-delimited JSON",
        _flags_serve, _cmd_serve,
    ),
    (
        "load", "replay a workload against a service and measure it",
        _flags_load, _cmd_load,
    ),
    (
        "trace", "inspect NDJSON decision traces (from `run --trace`)",
        _flags_trace, _cmd_trace,
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgl-sim",
        description=(
            "Fault-aware BlueGene/L job-scheduling simulator "
            "(reproduction of Oliner et al., IPPS 2004)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress to stderr (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, add_flags, handler in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        if add_flags is not None:
            add_flags(command)
        command.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.verbose:
        from repro.obs.log import configure_logging

        configure_logging(args.verbose)
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        # Bad input — an unknown policy, a missing or malformed file, a
        # port in use — is an answer too: one line, usage-error code.
        print(f"bgl-sim: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C is an answer, not a crash: shut the warm pool down (it
        # holds worker processes), say so once on stderr, and exit with
        # the conventional 128+SIGINT code.
        try:
            from repro.experiments.pool import shutdown_warm_pool

            shutdown_warm_pool()
        except Exception:  # noqa: BLE001 - best-effort cleanup on the way out
            pass
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
