"""Command-line interface.

::

    bgl-sim run     --site sdsc --policy balancing --parameter 0.1 ...
    bgl-sim sweep   --parameters 0.0 0.1 0.3 [--checkpoint-dir DIR] ...
    bgl-sim sweep   --queue-dir DIR ...                   # multi-host driver
    bgl-sim sweep-worker --queue-dir DIR                  # one queue worker
    bgl-sim figure  fig3 [--jobs 500] [--seeds 2]
    bgl-sim figures            # list regenerable figures
    bgl-sim sites              # list workload site models
    bgl-sim swf PATH ...       # simulate a real SWF trace file
    bgl-sim trace   summarize|diff|validate PATH...
    bgl-sim serve   --port 9753 ...           # scheduler-as-a-service
    bgl-sim load    --address HOST:PORT ...   # replay/load-test a service

(`python -m repro` is equivalent.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__


def _positive_int(value: str) -> int:
    """argparse type for counts that must be >= 1 (e.g. ``--workers``)."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        ) from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (>= 1), got {parsed}"
        )
    return parsed


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Checkpoint/retry options shared by ``sweep`` and ``figure``."""
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


def _retry_policy(args: argparse.Namespace):
    """Build a RetryPolicy from CLI flags, or None when none were given."""
    if args.max_retries is None and args.cell_timeout is None:
        return None
    from repro.resilience import RetryPolicy

    kwargs = {}
    if args.max_retries is not None:
        kwargs["max_attempts"] = args.max_retries
    if args.cell_timeout is not None:
        if args.cell_timeout <= 0:
            raise SystemExit("--cell-timeout must be positive")
        kwargs["cell_timeout_s"] = args.cell_timeout
    return RetryPolicy(**kwargs)


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """Simulation-scenario options shared by ``serve`` and ``load``.

    Both sides must build the identical scenario — same workload, same
    failure log, same policy seeding — for a replay through the service
    to reproduce the batch run, so they share one flag set.
    """
    parser.add_argument("--site", default="sdsc", help="workload model (nasa/sdsc/llnl)")
    parser.add_argument("--jobs", type=int, default=500, help="number of jobs")
    parser.add_argument("--failures", type=int, default=50, help="failure events")
    parser.add_argument(
        "--policy", default="balancing", help="krevat / balancing / tiebreak"
    )
    parser.add_argument(
        "--parameter", type=float, default=0.1,
        help="prediction confidence (balancing) or accuracy (tiebreak)",
    )
    parser.add_argument("--load", type=float, default=1.0, help="load scale c")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--swf", default=None, metavar="PATH",
        help="replay this SWF trace instead of a synthetic site workload",
    )
    parser.add_argument(
        "--head", type=int, default=0,
        help="with --swf: only the first N jobs",
    )


def _scenario_pipeline(args: argparse.Namespace):
    """(workload, failures, config, policy) for serve/load flags."""
    from repro.api import SimulationSetup
    from repro.core.config import SimulationConfig
    from repro.core.policies.registry import make_policy
    from repro.failures.synthetic import failure_horizon_s, generate_failures
    from repro.workloads.scaling import fit_to_machine
    from repro.workloads.swf import read_swf

    config = SimulationConfig()
    if args.swf:
        workload = read_swf(args.swf)
        if args.head:
            workload = workload.head(args.head)
        workload = fit_to_machine(workload, config.dims)
        horizon = failure_horizon_s(workload.span)
        failures = generate_failures(
            config.dims, args.failures, horizon, seed=args.seed + 1
        )
    else:
        setup = SimulationSetup(
            site=args.site,
            n_jobs=args.jobs,
            load_scale=args.load,
            n_failures=args.failures,
            policy=args.policy,
            parameter=args.parameter,
            seed=args.seed,
            config=config,
        )
        workload = setup.build_workload()
        failures = setup.build_failures(workload)
    policy = make_policy(
        args.policy,
        failure_log=failures,
        parameter=args.parameter,
        seed=args.seed + 2,
    )
    return workload, failures, config, policy


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

    run = sub.add_parser("run", help="run one simulation point")
    run.add_argument("--site", default="sdsc", help="workload model (nasa/sdsc/llnl)")
    run.add_argument("--jobs", type=int, default=500, help="number of jobs")
    run.add_argument("--failures", type=int, default=50, help="failure events")
    run.add_argument(
        "--policy", default="balancing", help="krevat / balancing / tiebreak"
    )
    run.add_argument(
        "--parameter",
        type=float,
        default=0.1,
        help="prediction confidence (balancing) or accuracy (tiebreak)",
    )
    run.add_argument("--load", type=float, default=1.0, help="load scale c")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--detail",
        action="store_true",
        help="print slowdown/wait distributions and per-size breakdown",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record every scheduler decision to an NDJSON trace file",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print internal counters/timings for the run",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a sweep grid with optional checkpoint/resume and retry",
    )
    sweep.add_argument("--site", default="sdsc", help="workload model (nasa/sdsc/llnl)")
    sweep.add_argument(
        "--policy", default="balancing", help="krevat / balancing / tiebreak"
    )
    sweep.add_argument(
        "--parameters",
        type=float,
        nargs="+",
        default=[0.0, 0.1, 0.3],
        metavar="A",
        help="prediction parameter values to sweep",
    )
    sweep.add_argument(
        "--failures",
        type=int,
        nargs="+",
        default=[50],
        metavar="N",
        help="failure counts to sweep (crossed with --parameters)",
    )
    sweep.add_argument("--jobs", type=int, default=200, help="jobs per cell")
    sweep.add_argument("--load", type=float, default=1.0, help="load scale c")
    sweep.add_argument(
        "--seeds", type=_positive_int, default=2, help="number of seeds per point"
    )
    sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="parallel sweep workers (default 1; results identical either way)",
    )
    sweep.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help=(
            "drive the sweep through this shared work-queue directory, so "
            "sweep-worker processes on any host sharing it can pull cells "
            "(checkpoints live there too; results are bitwise-identical "
            "to a local run)"
        ),
    )
    sweep.add_argument(
        "--lease-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --queue-dir: a claimed cell not completed within this "
            "window counts as a failed attempt and is retried"
        ),
    )
    sweep.add_argument(
        "--no-spawn-workers",
        action="store_true",
        help=(
            "with --queue-dir: do not start local sweep-worker processes "
            "(workers run elsewhere against the shared directory)"
        ),
    )
    _add_resilience_flags(sweep)

    worker = sub.add_parser(
        "sweep-worker",
        help=(
            "pull-and-run sweep cells from a shared work-queue directory "
            "(start any number of these, on any hosts sharing the "
            "directory; drive with `bgl-sim sweep --queue-dir`)"
        ),
    )
    worker.add_argument(
        "--queue-dir", required=True, metavar="DIR",
        help="shared work-queue directory",
    )
    worker.add_argument(
        "--lease-s", type=float, default=None, metavar="SECONDS",
        help="how long a claim of this worker stands before it counts as lost",
    )
    worker.add_argument(
        "--idle-exit-s", type=float, default=None, metavar="SECONDS",
        help="exit after this long without claimable work (default: wait)",
    )

    fig = sub.add_parser("figure", help="regenerate one paper figure")
    fig.add_argument("name", help="fig3 .. fig10")
    fig.add_argument("--jobs", type=int, default=None)
    fig.add_argument("--seeds", type=int, default=None, help="number of seeds")
    fig.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help=(
            "parallel sweep workers (default: REPRO_FIG_WORKERS, else "
            "all cores but one); results are identical to --workers 1"
        ),
    )
    fig.add_argument("--chart", action="store_true", help="render an ASCII chart")
    _add_resilience_flags(fig)

    sub.add_parser("figures", help="list regenerable figures")
    sub.add_parser("sites", help="list bundled workload site models")

    cmp = sub.add_parser(
        "compare", help="paired comparison of two policies on one scenario"
    )
    cmp.add_argument("--site", default="sdsc")
    cmp.add_argument("--jobs", type=int, default=300)
    cmp.add_argument("--failures", type=int, default=30)
    cmp.add_argument("--baseline", default="krevat")
    cmp.add_argument("--candidate", default="balancing")
    cmp.add_argument("--parameter", type=float, default=0.1,
                     help="prediction parameter for the candidate policy")
    cmp.add_argument("--seeds", type=int, default=3)
    cmp.add_argument("--load", type=float, default=1.0)

    char = sub.add_parser(
        "characterize", help="profile a workload model or SWF trace"
    )
    char.add_argument("--site", default=None, help="bundled site model to profile")
    char.add_argument("--swf", default=None, help="SWF file to profile")
    char.add_argument("--jobs", type=int, default=1000)
    char.add_argument("--failures", type=int, default=200)
    char.add_argument("--seed", type=int, default=0)

    swf = sub.add_parser("swf", help="simulate a real SWF trace file")
    swf.add_argument("path", help="SWF file (Parallel Workloads Archive format)")
    swf.add_argument("--head", type=int, default=0, help="only the first N jobs")
    swf.add_argument("--failures", type=int, default=50)
    swf.add_argument("--policy", default="balancing")
    swf.add_argument("--parameter", type=float, default=0.1)
    swf.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="serve the scheduler over newline-delimited JSON"
    )
    _add_scenario_flags(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--unix", default=None, metavar="PATH",
        help="serve on a unix socket instead of TCP",
    )
    serve.add_argument(
        "--clock",
        choices=("trace", "logical"),
        default="trace",
        help=(
            "trace: clients state simulated arrival times (replays are "
            "byte-identical to batch runs); logical: the service assigns "
            "monotonic arrival ticks (fair-share weights shape the schedule)"
        ),
    )
    serve.add_argument(
        "--tenant-weight", action="append", default=None, metavar="NAME=W",
        help="fair-share weight for a tenant (repeatable; default 1)",
    )
    serve.add_argument(
        "--tenant-cap", type=_positive_int, default=256,
        help="per-tenant admission-queue depth before rejects",
    )
    serve.add_argument(
        "--engine-cap", type=_positive_int, default=512,
        help="released-but-uncompleted jobs the engine holds",
    )
    serve.add_argument(
        "--pump-interval", type=_positive_int, default=32,
        help="submissions between event-loop pump passes",
    )
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write the bound address here once listening",
    )
    serve.add_argument(
        "--metrics-file", default=None, metavar="PATH",
        help="write the final metrics snapshot here on shutdown",
    )
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream every scheduler decision to an NDJSON file",
    )

    load = sub.add_parser(
        "load", help="replay a workload against a service and measure it"
    )
    _add_scenario_flags(load)
    load.add_argument(
        "--address", required=True, metavar="HOST:PORT|PATH",
        help="service address (TCP host:port or unix-socket path)",
    )
    load.add_argument(
        "--acceleration", type=float, default=None, metavar="X",
        help="replay at trace time divided by X (default: full speed)",
    )
    load.add_argument(
        "--rate", type=float, default=None, metavar="PER_S",
        help="open-loop submissions per second (overrides trace spacing)",
    )
    load.add_argument(
        "--pipeline", type=_positive_int, default=32,
        help="requests in flight per transport round trip",
    )
    load.add_argument(
        "--tenant", action="append", default=None, metavar="NAME",
        help="tenant names to round-robin submissions over (repeatable)",
    )
    load.add_argument(
        "--no-drain", action="store_true",
        help="skip the final drain (leave the service running hot)",
    )
    load.add_argument(
        "--check", action="store_true",
        help=(
            "run the same scenario through the batch simulator locally "
            "and require the drained report to match byte-for-byte"
        ),
    )
    load.add_argument(
        "--shutdown", action="store_true",
        help="send a shutdown request after the run",
    )
    load.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the load report as JSON",
    )

    trace = sub.add_parser(
        "trace", help="inspect NDJSON decision traces (from `run --trace`)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
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
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace or args.metrics:
        from repro.api import SimulationSetup
        from repro.core.config import SimulationConfig

        setup = SimulationSetup(
            site=args.site,
            n_jobs=args.jobs,
            n_failures=args.failures,
            policy=args.policy,
            parameter=args.parameter,
            load_scale=args.load,
            seed=args.seed,
            config=SimulationConfig(
                trace=bool(args.trace), profile=args.metrics
            ),
        )
        from contextlib import nullcontext

        from repro.obs.trace import TraceRecorder

        # Stream the trace as the run goes (a buffered run holds every
        # record as a dict until the end).
        with (
            open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext()
        ) as sink:
            simulator = setup.build_simulator(
                recorder=TraceRecorder(sink=sink) if sink is not None else None
            )
            report = simulator.run()
        if args.trace:
            print(f"trace: {len(simulator.recorder)} records -> {args.trace}")
        if args.metrics and simulator.metrics is not None:
            for line in simulator.metrics.summary_lines():
                print(f"  {line}")
    else:
        from repro.api import quick_simulate

        report = quick_simulate(
            site=args.site,
            n_jobs=args.jobs,
            n_failures=args.failures,
            policy=args.policy,
            confidence=args.parameter,
            load_scale=args.load,
            seed=args.seed,
        )
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
    if args.queue_dir is None:
        if args.lease_s is not None or args.no_spawn_workers:
            raise SystemExit("--lease-s/--no-spawn-workers need --queue-dir")
    elif args.checkpoint_dir is not None:
        raise SystemExit(
            "--queue-dir stores checkpoints inside the queue directory; "
            "drop --checkpoint-dir"
        )
    elif args.lease_s is not None and args.lease_s <= 0:
        raise SystemExit("--lease-s must be positive")
    outcome = run_sweep_outcome(
        points,
        seeds=tuple(range(args.seeds)),
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        retry=_retry_policy(args),
        resume=args.resume,
        queue_dir=args.queue_dir,
        lease_s=args.lease_s,
        spawn_workers=not args.no_spawn_workers,
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
            from repro.resilience import CellStore

            root = args.checkpoint_dir or args.queue_dir
            print(f"details: {CellStore(root).quarantine_path}")
    return 0 if outcome.complete else 1


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    from repro.experiments.queue import run_worker

    if args.lease_s is not None and args.lease_s <= 0:
        raise SystemExit("--lease-s must be positive")
    run_worker(
        args.queue_dir, lease_s=args.lease_s, idle_exit_s=args.idle_exit_s
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import format_figure, run_figure

    from repro.experiments.validate import validate_figure

    seeds = tuple(range(args.seeds)) if args.seeds else None
    result = run_figure(
        args.name,
        n_jobs=args.jobs,
        seeds=seeds,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        retry=_retry_policy(args),
        resume=args.resume,
    )
    print(format_figure(result))
    print()
    print(validate_figure(result).summary())
    if args.chart:
        from repro.analysis import render_series

        series = {
            label: result.metric_values(label) for label in result.series
        }
        print()
        print(render_series(series, title=f"{result.figure}: {result.metric}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_reports, mean_paired_comparison
    from repro.api import SimulationSetup

    comparisons = []
    for seed in range(args.seeds):
        common = dict(
            site=args.site, n_jobs=args.jobs, n_failures=args.failures,
            load_scale=args.load, seed=seed,
        )
        base = SimulationSetup(policy=args.baseline, parameter=0.0, **common).run()
        cand = SimulationSetup(
            policy=args.candidate, parameter=args.parameter, **common
        ).run()
        pair = compare_reports(base, cand)
        comparisons.append(pair)
        print(f"seed {seed}: {pair.summary()}")
    print("\nmean over seeds:")
    print(" ", mean_paired_comparison(comparisons).summary())
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis import characterize_failures, characterize_workload
    from repro.core.config import SimulationConfig
    from repro.failures.synthetic import failure_horizon_s, generate_failures
    from repro.workloads.scaling import fit_to_machine
    from repro.workloads.swf import read_swf
    from repro.workloads.synthetic import generate_workload
    from repro.workloads.models import site_model

    config = SimulationConfig()
    if args.swf:
        workload = read_swf(args.swf)
    else:
        workload = generate_workload(
            site_model(args.site or "sdsc"), args.jobs, seed=args.seed
        )
    workload = fit_to_machine(workload, config.dims)
    profile = characterize_workload(workload)
    print("Workload profile:")
    for field_name in profile.__dataclass_fields__:
        print(f"  {field_name:<24} {getattr(profile, field_name)}")
    horizon = failure_horizon_s(workload.span)
    failures = generate_failures(config.dims, args.failures, horizon, seed=args.seed + 1)
    fprofile = characterize_failures(failures)
    print("\nMatched synthetic failure-trace profile:")
    for field_name in fprofile.__dataclass_fields__:
        print(f"  {field_name:<24} {getattr(fprofile, field_name)}")
    return 0


def _cmd_figures() -> int:
    from repro.experiments import figure_registry

    for name in figure_registry():
        print(name)
    return 0


def _cmd_sites() -> int:
    from repro.workloads import available_sites, site_model

    for name in available_sites():
        model = site_model(name)
        print(
            f"{name:<6} machine={model.machine_nodes:<4} "
            f"interarrival={model.mean_interarrival_s:.0f}s "
            f"p2={model.p_power_of_two:.2f}"
        )
    return 0


def _cmd_swf(args: argparse.Namespace) -> int:
    from repro.core.config import SimulationConfig
    from repro.core.policies.registry import make_policy
    from repro.core.simulator import simulate
    from repro.failures.synthetic import failure_horizon_s, generate_failures
    from repro.workloads.scaling import fit_to_machine
    from repro.workloads.swf import read_swf

    config = SimulationConfig()
    workload = read_swf(args.path)
    if args.head:
        workload = workload.head(args.head)
    workload = fit_to_machine(workload, config.dims)
    horizon = failure_horizon_s(workload.span)
    failures = generate_failures(config.dims, args.failures, horizon, seed=args.seed)
    policy = make_policy(
        args.policy, failure_log=failures, parameter=args.parameter, seed=args.seed
    )
    report = simulate(workload, failures, policy, config)
    print(report.summary_line())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.engine import ServeEngine
    from repro.serve.service import run_service

    workload, failures, config, policy = _scenario_pipeline(args)
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
    sink = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        from repro.obs.trace import TraceRecorder

        engine = ServeEngine(
            workload.name,
            workload.machine_nodes,
            failures,
            policy,
            config,
            clock=args.clock,
            weights=weights or None,
            tenant_cap=args.tenant_cap,
            engine_cap=args.engine_cap,
            pump_interval=args.pump_interval,
            recorder=TraceRecorder(sink=sink) if sink is not None else None,
        )
        run_service(
            engine,
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            ready_file=args.ready_file,
            metrics_file=args.metrics_file,
        )
    finally:
        if sink is not None:
            sink.close()
    stats = engine.handle({"op": "stats"})
    print(
        f"served {stats['submitted']} submissions: "
        f"{stats['admitted']} admitted, {stats['rejected']} rejected, "
        f"{stats['completed']} completed"
    )
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import SocketClient
    from repro.serve.load import run_load

    if args.check and args.no_drain:
        raise SystemExit("--check needs the drained report; drop --no-drain")
    workload, failures, config, policy = _scenario_pipeline(args)
    client = SocketClient.connect(args.address)
    try:
        result = run_load(
            client,
            workload,
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

            expected = report_to_dict(simulate(workload, failures, policy, config))
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
                json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
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
        validate_trace,
    )
    from repro.obs.trace import read_trace

    if args.trace_command == "summarize":
        print(format_summary(summarize_trace(read_trace(args.path))))
        return 0
    if args.trace_command == "validate":
        errors = validate_trace(read_trace(args.path))
        if errors:
            for error in errors:
                print(f"{args.path}: {error}")
            return 1
        print(f"{args.path}: OK")
        return 0
    if args.trace_command == "diff":
        trace_a = read_trace(args.path_a)
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
    raise AssertionError(
        f"unhandled trace command {args.trace_command!r}"
    )  # pragma: no cover


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "sweep-worker":
        return _cmd_sweep_worker(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "figures":
        return _cmd_figures()
    if args.command == "sites":
        return _cmd_sites()
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "swf":
        return _cmd_swf(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "load":
        return _cmd_load(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.verbose:
        from repro.obs.log import configure_logging

        configure_logging(args.verbose)
    try:
        return _dispatch(args)
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
