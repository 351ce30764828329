"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``trace``    Generate a synthetic Philly-like trace CSV; subcommands
             ``dump`` (collect a cluster-wide Chrome trace over the
             ``trace_dump`` verb) and ``analyze`` (critical-path
             latency breakdown of a merged trace).
``run``      Run one scheduler over a trace and print its summary.
``compare``  Run several schedulers over the same trace and emit a
             Markdown report.
``serve``    Run the online scheduler daemon on a local socket.
``submit``   Submit one job to a running daemon.
``ctl``      Control a running daemon (status/metrics/drain/cancel/...).
``top``      Live terminal view over a gateway's aggregated metrics.
``report``   Render a telemetry JSONL file (or a gateway telemetry
             directory) as summary tables.
``sweep``    Run a (possibly parallel) experiment sweep via ``repro.api``.
``lint``     Run the repo-specific determinism/hygiene lint.
``analyze``  Run the whole-program analyzer (async-safety, protocol
             drift, snapshot picklability, determinism taint).
``typecheck`` Run the strict-typing gate (mypy or the AST fallback).

Examples
--------
::

    python -m repro trace --jobs 200 --hours 2 --out trace.csv
    python -m repro run --trace trace.csv --scheduler MLFS --servers 8
    python -m repro compare --trace trace.csv --servers 8 \
        --schedulers MLFS,Tiresias,Graphene --out report.md
    python -m repro serve --socket /tmp/repro.sock --servers 8 \
        --telemetry telemetry.jsonl --trace trace.chrome.json
    python -m repro submit --socket /tmp/repro.sock --model resnet --gpus 4
    python -m repro ctl --socket /tmp/repro.sock metrics --format prom
    python -m repro ctl --socket /tmp/repro.sock history job-0001
    python -m repro run --trace trace.csv --scheduler MLF-H --faults plan.json
    python -m repro ctl --socket /tmp/repro.sock faultctl server_crash --server 2
    python -m repro report telemetry.jsonl
    python -m repro report gateway-run            # per-worker directory
    python -m repro trace dump --target 127.0.0.1:7463 --out cluster.json
    python -m repro trace analyze cluster.json
    python -m repro top --target 127.0.0.1:7463 --once
    python -m repro sweep --schedulers MLF-H,Tiresias --seeds 0,1 \
        --jobs 60 --workers 2 --out sweep.json
    python -m repro sweep --grid grid.json --workers 4 --cache-dir .sweep-cache
    python -m repro lint src --format json
    python -m repro lint tests --select REP003,REP004,REP006 \
        --exclude tests/fixtures
    python -m repro lint --explain REP006
    python -m repro analyze src --format sarif --out analyze.sarif
    python -m repro analyze --explain REP100
    python -m repro typecheck
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import importlib
import json
import sys
from typing import Optional, Sequence

from repro.analysis.report import render_report
from repro.cluster import Cluster
from repro.schedulers import SCHEDULER_FACTORIES, scheduler_by_name
from repro.sim import EngineConfig, SimulationSetup, run_comparison, run_simulation
from repro.workload import generate_trace, read_trace, write_trace

__all__ = ["SCHEDULER_FACTORIES", "scheduler_by_name", "build_parser", "main"]


#: Commands run by a ``repro.check`` tool: name -> (module, help line).
CHECK_TOOLS = {
    "lint": (
        "repro.check.lint",
        "repo-specific determinism/hygiene lint (repro.check.lint)",
    ),
    "analyze": (
        "repro.check.graph",
        "whole-program analyzer: async-safety, snapshot picklability,"
        " determinism taint (repro.check.graph)",
    ),
    "typecheck": (
        "repro.check.typing_gate",
        "strict-typing gate (mypy, or the TYP001 annotation fallback)",
    ),
}

#: Verbs with a subcommand of their own (``submit``, ``loadgen``'s
#: batches, ``trace dump``), so not ``ctl`` verbs.
OWN_SUBCOMMAND = frozenset({"submit", "submit_batch", "trace_dump"})

#: ``ctl`` flag destinations, each named after the verb parameter it sets.
_CTL_FLAG_PARAMS = ("server_id", "gpu_id", "slowdown", "rounds", "until", "events")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MLFS (CoNEXT'20) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser(
        "trace",
        help="generate a synthetic trace CSV, or dump/analyze cluster traces",
    )
    p_trace.add_argument("--jobs", type=int, default=100)
    p_trace.add_argument("--hours", type=float, default=2.0)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", default="trace.csv")
    # ``repro trace`` with no subcommand keeps its original meaning
    # (generate a workload CSV); the subcommands below are the
    # distributed-tracing surface.
    trace_sub = p_trace.add_subparsers(dest="trace_command")
    p_tdump = trace_sub.add_parser(
        "dump", help="collect a merged Chrome trace from a gateway or daemon"
    )
    p_tdump.add_argument(
        "--target",
        default="127.0.0.1:7463",
        help="gateway/daemon target (host:port, tcp://, unix:// or a path)",
    )
    p_tdump.add_argument(
        "--deterministic",
        action="store_true",
        help="canonical span order + ordinal timestamps (bit-reproducible)",
    )
    p_tdump.add_argument(
        "--reset", action="store_true", help="clear stored spans after dumping"
    )
    p_tdump.add_argument("--out", default=None, help="write the JSON here (default stdout)")
    p_tana = trace_sub.add_parser(
        "analyze", help="critical-path latency breakdown of a merged trace"
    )
    p_tana.add_argument(
        "source",
        nargs="?",
        default=None,
        help="merged Chrome-trace JSON path (or use --target for a live dump)",
    )
    p_tana.add_argument(
        "--target",
        default=None,
        help="fetch a live trace_dump from this gateway/daemon instead",
    )
    p_tana.add_argument("--precision", type=int, default=3)
    p_tana.add_argument(
        "--json", action="store_true", help="emit the analysis as JSON"
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trace", required=True, help="trace CSV path")
    common.add_argument("--servers", type=int, default=8)
    common.add_argument("--gpus-per-server", type=int, default=4)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tick-seconds", type=float, default=60.0)
    common.add_argument(
        "--faults", default=None, help="fault-injection plan JSON (repro.faults)"
    )

    p_run = sub.add_parser("run", parents=[common], help="run one scheduler")
    p_run.add_argument("--scheduler", default="MLFS")

    p_cmp = sub.add_parser("compare", parents=[common], help="compare schedulers")
    p_cmp.add_argument(
        "--schedulers",
        default="MLFS,MLF-H,Tiresias,Graphene,TensorFlow",
        help="comma-separated scheduler names",
    )
    p_cmp.add_argument("--out", default=None, help="write the Markdown report here")

    p_serve = sub.add_parser("serve", help="run the online scheduler daemon")
    p_serve.add_argument("--socket", default="repro-service.sock")
    p_serve.add_argument("--scheduler", default="MLF-H")
    p_serve.add_argument("--servers", type=int, default=8)
    p_serve.add_argument("--gpus-per-server", type=int, default=4)
    p_serve.add_argument("--tick-seconds", type=float, default=60.0)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--round-interval",
        type=float,
        default=1.0,
        help="real seconds between scheduler rounds (0 = only on drain)",
    )
    p_serve.add_argument("--admission-policy", choices=["queue", "reject"], default="queue")
    p_serve.add_argument("--admission-threshold", type=float, default=0.90)
    p_serve.add_argument("--snapshot-dir", default=None)
    p_serve.add_argument("--snapshot-every", type=int, default=10, help="rounds")
    p_serve.add_argument("--telemetry", default=None, help="telemetry JSONL path")
    p_serve.add_argument(
        "--telemetry-obs",
        choices=["full", "deterministic", "none"],
        default="full",
        help="obs snapshot embedded per telemetry record"
        " (deterministic = drop wall-clock families)",
    )
    p_serve.add_argument(
        "--trace",
        default=None,
        help="write a Chrome-trace JSON of scheduler-phase spans here on shutdown",
    )
    p_serve.add_argument(
        "--rl-switch-decisions",
        type=int,
        default=None,
        help="override the MLF family's heuristic-to-RL switch threshold",
    )
    p_serve.add_argument(
        "--restore",
        action="store_true",
        help="resume from the newest snapshot in --snapshot-dir",
    )
    p_serve.add_argument(
        "--sanitize",
        action="store_true",
        help="audit runtime invariants after every round (repro.check.sanitize)",
    )
    p_serve.add_argument(
        "--faults",
        default=None,
        help="fault-injection plan JSON applied by round index (repro.faults)",
    )
    p_serve.add_argument(
        "--pass-policy",
        choices=["fixed", "event"],
        default="fixed",
        help="scheduling-pass cadence: fixed tick or event-driven"
        " (park passes that are provably no-ops)",
    )

    p_sub = sub.add_parser("submit", help="submit one job to a running daemon")
    p_sub.add_argument("--socket", default="repro-service.sock")
    p_sub.add_argument("--model", default="alexnet")
    p_sub.add_argument("--gpus", type=int, default=4)
    p_sub.add_argument("--iterations", type=int, default=20)
    p_sub.add_argument("--accuracy", type=float, default=0.8)
    p_sub.add_argument("--urgency", type=int, default=5)
    p_sub.add_argument("--data-mb", type=float, default=500.0)
    p_sub.add_argument("--job-id", default=None)
    p_sub.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    p_sub.add_argument("--timeout", type=float, default=300.0)

    from repro.service.protocol import VERBS

    ctl_verbs = [name for name in VERBS if name not in OWN_SUBCOMMAND]
    p_ctl = sub.add_parser(
        "ctl",
        help="control a running daemon or gateway",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="verbs:\n"
        + "\n".join(
            f"  {name:<13} {VERBS[name].help}"
            + ("" if len(VERBS[name].tiers) > 1 else f" ({VERBS[name].tiers[0]} only)")
            for name in ctl_verbs
        ),
    )
    p_ctl.add_argument(
        "--socket",
        default="repro-service.sock",
        help="Unix socket path, or a host:port / tcp:// gateway target",
    )
    p_ctl.add_argument(
        "--format",
        choices=["json", "prom"],
        default="json",
        help="metrics output format (prom = Prometheus text exposition)",
    )
    p_ctl.add_argument("verb", choices=ctl_verbs)
    p_ctl.add_argument(
        "job_id",
        nargs="?",
        default=None,
        help="for status/cancel/history; the action for faultctl",
    )
    # Each flag's dest is the verb parameter it sets.
    p_ctl.add_argument(
        "--server",
        dest="server_id",
        metavar="SERVER",
        type=int,
        default=None,
        help="faultctl target server id",
    )
    p_ctl.add_argument(
        "--gpu",
        dest="gpu_id",
        metavar="GPU",
        type=int,
        default=None,
        help="faultctl target GPU id",
    )
    p_ctl.add_argument(
        "--slowdown",
        type=float,
        default=None,
        help="faultctl straggler_start iteration-time multiplier",
    )
    p_ctl.add_argument(
        "--rounds", type=int, default=None, help="step: scheduling passes to run"
    )
    p_ctl.add_argument(
        "--until",
        type=float,
        default=None,
        help="step: advance until the sim clock reaches this time (seconds)",
    )
    p_ctl.add_argument(
        "--events",
        type=int,
        default=None,
        help="step: advance until this many simulator events were processed",
    )

    p_gw = sub.add_parser(
        "gateway", help="run the sharded front tier over N scheduler daemons"
    )
    p_gw.add_argument("--workers", type=int, default=2)
    p_gw.add_argument(
        "--listen",
        default="127.0.0.1:7463",
        help="TCP host:port for client ingress ('' disables TCP)",
    )
    p_gw.add_argument(
        "--socket", default=None, help="also listen on this Unix socket"
    )
    p_gw.add_argument("--workdir", default="gateway-run")
    p_gw.add_argument(
        "--spawn", choices=["process", "thread"], default="process"
    )
    p_gw.add_argument("--ring-replicas", type=int, default=64)
    p_gw.add_argument("--ring-seed", type=int, default=0)
    p_gw.add_argument("--scheduler", default="MLF-H")
    p_gw.add_argument("--servers-per-worker", type=int, default=4)
    p_gw.add_argument("--gpus-per-server", type=int, default=4)
    p_gw.add_argument("--tick-seconds", type=float, default=60.0)
    p_gw.add_argument("--seed", type=int, default=0)
    p_gw.add_argument(
        "--round-interval",
        type=float,
        default=1.0,
        help="per-worker real seconds between rounds (0 = only on step/drain)",
    )
    p_gw.add_argument(
        "--admission-policy", choices=["queue", "reject"], default="queue"
    )
    p_gw.add_argument("--admission-threshold", type=float, default=0.90)
    p_gw.add_argument(
        "--global-threshold",
        type=float,
        default=None,
        help="cluster-wide h_s enforced at the gateway door (default: off)",
    )
    p_gw.add_argument("--global-alpha", type=float, default=0.5)
    p_gw.add_argument(
        "--gossip-interval",
        type=float,
        default=1.0,
        help="seconds between occupancy/health polls (0 disables)",
    )
    p_gw.add_argument(
        "--no-telemetry",
        action="store_true",
        help="do not write per-worker telemetry JSONL files",
    )
    p_gw.add_argument(
        "--telemetry-obs",
        choices=["full", "deterministic", "none"],
        default="deterministic",
    )
    p_gw.add_argument("--restart-limit", type=int, default=3)
    p_gw.add_argument(
        "--trace",
        action="store_true",
        help="record gateway + worker spans (collect with 'repro trace dump')",
    )

    p_lg = sub.add_parser(
        "loadgen", help="replay a seeded submission stream against a gateway"
    )
    p_lg.add_argument(
        "--target",
        default="127.0.0.1:7463",
        help="gateway/daemon target (host:port, tcp://, unix:// or a path)",
    )
    p_lg.add_argument("--count", type=int, default=10_000)
    p_lg.add_argument("--batch", type=int, default=200)
    p_lg.add_argument("--tenants", type=int, default=16)
    p_lg.add_argument("--seed", type=int, default=0)
    p_lg.add_argument("--timeout", type=float, default=120.0)
    p_lg.add_argument("--out", default=None, help="write the result JSON here")
    p_lg.add_argument(
        "--quiet", action="store_true", help="suppress progress lines on stderr"
    )
    p_lg.add_argument(
        "--trace",
        action="store_true",
        help="stamp payloads with deterministic client-side trace ids",
    )

    p_top = sub.add_parser(
        "top", help="live terminal view over a gateway's aggregated metrics"
    )
    p_top.add_argument(
        "--target",
        default="127.0.0.1:7463",
        help="gateway target (host:port, tcp://, unix:// or a path)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    p_top.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )

    p_report = sub.add_parser(
        "report",
        help="render telemetry (a JSONL file, or a gateway telemetry"
        " directory of worker-*/telemetry.jsonl files) as summary tables",
    )
    p_report.add_argument(
        "telemetry", help="telemetry JSONL path or gateway workdir"
    )
    p_report.add_argument(
        "--every", type=int, default=1, help="keep one per-round row in EVERY"
    )
    p_report.add_argument(
        "--no-rounds", action="store_true", help="only print the summary table"
    )

    p_sweep = sub.add_parser(
        "sweep", help="run an experiment sweep (repro.api.sweep)"
    )
    p_sweep.add_argument(
        "--grid", default=None, help="JSON grid file (repro.exp.Grid.to_json)"
    )
    p_sweep.add_argument(
        "--schedulers",
        default="MLF-H",
        help="comma-separated scheduler names (ignored with --grid)",
    )
    p_sweep.add_argument(
        "--seeds", default="0", help="comma-separated engine seeds (ignored with --grid)"
    )
    p_sweep.add_argument(
        "--jobs",
        default="100",
        help="comma-separated workload sizes (ignored with --grid)",
    )
    p_sweep.add_argument("--servers", type=int, default=8)
    p_sweep.add_argument("--gpus-per-server", type=int, default=4)
    p_sweep.add_argument("--hours", type=float, default=2.0)
    p_sweep.add_argument("--trace-seed", type=int, default=0)
    p_sweep.add_argument(
        "--deadline-hours", default=None, help="LO,HI uniform deadline range"
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="0 = serial; default = cpu_count() - 1",
    )
    p_sweep.add_argument(
        "--faults",
        default=None,
        help="fault-injection plan JSON applied to every spec (ignored with --grid)",
    )
    p_sweep.add_argument("--cache-dir", default=None, help="per-shard result cache")
    p_sweep.add_argument("--out", default=None, help="write merged results JSON here")
    p_sweep.add_argument(
        "--quiet", action="store_true", help="suppress progress lines on stderr"
    )

    # The correctness tools own their flags: main() forwards the rest of
    # the command line to their main(), so `repro lint --help` is theirs.
    for name, (_, summary) in CHECK_TOOLS.items():
        sub.add_parser(name, help=summary, add_help=False)
    return parser


def _setup_from_args(args) -> SimulationSetup:
    records = read_trace(args.trace)
    faults = None
    if getattr(args, "faults", None):
        from repro.faults import load_plan

        faults = load_plan(args.faults)
    return SimulationSetup(
        records=records,
        cluster_factory=lambda: Cluster.build(args.servers, args.gpus_per_server),
        workload_seed=args.seed,
        engine_config=EngineConfig(tick_seconds=args.tick_seconds),
        faults=faults,
    )


def cmd_trace(args) -> int:
    """Generate a synthetic trace CSV, or dump/analyze cluster traces."""
    command = getattr(args, "trace_command", None)
    if command == "dump":
        return _cmd_trace_dump(args)
    if command == "analyze":
        return _cmd_trace_analyze(args)
    records = generate_trace(
        args.jobs, duration_seconds=args.hours * 3600.0, seed=args.seed
    )
    count = write_trace(records, args.out)
    print(f"wrote {count} jobs to {args.out}")
    return 0


def cmd_run(args) -> int:
    """Run a single scheduler over a trace."""
    setup = _setup_from_args(args)
    result = run_simulation(scheduler_by_name(args.scheduler), setup)
    for key, value in result.summary().items():
        print(f"{key:24} {value:.3f}")
    return 0


def cmd_compare(args) -> int:
    """Compare schedulers over the same trace; emit a Markdown report."""
    setup = _setup_from_args(args)
    names = [n.strip() for n in args.schedulers.split(",") if n.strip()]
    schedulers = [scheduler_by_name(n) for n in names]
    results = run_comparison(schedulers, setup)
    report = render_report(results, title=f"Comparison on {args.trace}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def cmd_serve(args) -> int:
    """Run the scheduler daemon until shutdown (Ctrl-C or ``ctl shutdown``)."""
    from repro.service import ServiceConfig
    from repro.service.daemon import serve

    config = ServiceConfig(
        socket_path=args.socket,
        scheduler=args.scheduler,
        servers=args.servers,
        gpus_per_server=args.gpus_per_server,
        tick_seconds=args.tick_seconds,
        seed=args.seed,
        round_interval=args.round_interval,
        admission_policy=args.admission_policy,
        admission_threshold=args.admission_threshold,
        snapshot_dir=args.snapshot_dir,
        snapshot_every=args.snapshot_every,
        telemetry_path=args.telemetry,
        trace_path=args.trace,
        rl_switch_decisions=args.rl_switch_decisions,
        sanitize=True if args.sanitize else None,
        faults_path=args.faults,
        telemetry_obs=args.telemetry_obs,
        pass_policy=args.pass_policy,
    )
    print(f"repro daemon listening on {args.socket} (scheduler={args.scheduler})")
    try:
        asyncio.run(serve(config, restore=args.restore))
    except KeyboardInterrupt:
        pass
    return 0


def _client_errors(fn):
    """Turn daemon/socket errors into one-line messages, not tracebacks."""

    @functools.wraps(fn)
    def wrapper(args) -> int:
        from repro.service import ProtocolError, ServiceError

        try:
            return fn(args)
        except (ProtocolError, ServiceError) as exc:
            print(f"error: {exc}", file=sys.stderr)
        except (ConnectionRefusedError, FileNotFoundError):
            target = getattr(args, "socket", None) or getattr(args, "target", "?")
            print(f"error: no daemon listening on {target}", file=sys.stderr)
        return 1

    return wrapper


def _merged_trace_doc(result: dict, deterministic: bool = False) -> dict:
    """The Chrome-trace document inside a ``trace_dump`` result.

    Gateways answer with the already-merged document; bare daemons
    answer with their raw span dump, which we merge into a one-lane
    document here so both targets feed the same analysis.
    """
    from repro.obs.distributed import ProcessTrace, merge_chrome_traces

    if "trace" in result:
        return result["trace"]
    return merge_chrome_traces(
        [ProcessTrace.from_dump(result.get("role", "daemon"), result)],
        deterministic=deterministic,
    )


@_client_errors
def _cmd_trace_dump(args) -> int:
    """Collect a merged Chrome trace over the ``trace_dump`` verb."""
    from repro.service import ServiceClient

    with ServiceClient(args.target) as client:
        result = client.trace_dump(
            deterministic=args.deterministic, reset=args.reset
        )
    if not result.get("enabled", True):
        print(
            "warning: tracing is not enabled on the target", file=sys.stderr
        )
    for partition, error in sorted(result.get("errors", {}).items()):
        print(f"warning: worker {partition}: {error}", file=sys.stderr)
    doc = _merged_trace_doc(result, deterministic=args.deterministic)
    text = json.dumps(doc, sort_keys=True, indent=None if args.out else 2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
            handle.write("\n")
        lanes = (doc.get("otherData") or {}).get("processes", [])
        print(f"wrote {args.out} ({len(lanes)} process lanes)")
    else:
        print(text)
    return 0


@_client_errors
def _cmd_trace_analyze(args) -> int:
    """Critical-path latency breakdown of a merged trace."""
    from repro.obs.distributed import analyze_trace, render_trace_analysis

    if args.target:
        from repro.service import ServiceClient

        with ServiceClient(args.target) as client:
            doc = _merged_trace_doc(client.trace_dump())
    elif args.source:
        try:
            with open(args.source) as handle:
                loaded = json.load(handle)
        except FileNotFoundError:
            print(f"error: no trace file at {args.source}", file=sys.stderr)
            return 1
        doc = loaded.get("trace", loaded) if isinstance(loaded, dict) else loaded
    else:
        print(
            "error: trace analyze needs a trace file or --target",
            file=sys.stderr,
        )
        return 1
    analysis = analyze_trace(doc)
    if args.json:
        print(json.dumps(analysis, indent=2, sort_keys=True))
    else:
        print(render_trace_analysis(analysis, precision=args.precision))
    return 0


@_client_errors
def cmd_top(args) -> int:
    """Live terminal view over a gateway's aggregated metrics."""
    import time as _time

    from repro.obs.distributed import render_top
    from repro.service import ServiceClient

    with ServiceClient(args.target) as client:
        while True:
            metrics = client.metrics()
            workers = None
            try:
                workers = client.workers().get("workers")
            except Exception:
                pass  # bare daemons have no ``workers`` verb
            frame = render_top(metrics, workers)
            if args.once:
                print(frame)
                return 0
            # Clear + home, like watch(1); one frame per interval.
            print(f"\x1b[2J\x1b[H{frame}", flush=True)
            try:
                _time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0


@_client_errors
def cmd_submit(args) -> int:
    """Submit one job to a running daemon; optionally wait for it."""
    from repro.service import JobSpec, ServiceClient

    spec = JobSpec(
        model_name=args.model,
        gpus_requested=args.gpus,
        max_iterations=args.iterations,
        accuracy_requirement=args.accuracy,
        urgency=args.urgency,
        training_data_mb=args.data_mb,
        job_id=args.job_id,
    )
    with ServiceClient(args.socket) as client:
        out = client.submit(spec)
        print(json.dumps(out, indent=2))
        if args.wait and out.get("status") in {"admitted", "queued"}:
            status = client.wait(out["job_id"], timeout=args.timeout)
            print(json.dumps(status, indent=2))
    return 0


@_client_errors
def cmd_ctl(args) -> int:
    """One control verb against a running daemon, checked by the verb table."""
    from repro.service import ServiceClient
    from repro.service.protocol import VERBS

    verb = "metrics_text" if args.verb == "metrics" and args.format == "prom" else args.verb
    spec = VERBS[verb]
    params = {name: getattr(args, name) for name in _CTL_FLAG_PARAMS}
    if args.job_id is not None:
        # The positional fills the verb's first parameter.
        params[next(iter(spec.params), "job_id")] = args.job_id
    params = spec.build(**params)  # a ProtocolError names the bad flag
    with ServiceClient(args.socket) as client:
        out = client.ping_info() if verb == "ping" else client.call(verb, **params)
    if verb == "metrics_text":
        print(out["text"], end="")
    else:
        print(json.dumps(out, indent=2))
    return 0


def cmd_gateway(args) -> int:
    """Run the gateway (plus its workers) until shutdown."""
    from repro.gateway import GatewayConfig, run_gateway

    config = GatewayConfig(
        listen=args.listen or None,
        socket_path=args.socket,
        workers=args.workers,
        ring_replicas=args.ring_replicas,
        ring_seed=args.ring_seed,
        scheduler=args.scheduler,
        servers_per_worker=args.servers_per_worker,
        gpus_per_server=args.gpus_per_server,
        tick_seconds=args.tick_seconds,
        seed=args.seed,
        round_interval=args.round_interval,
        admission_policy=args.admission_policy,
        admission_threshold=args.admission_threshold,
        global_threshold=args.global_threshold,
        global_alpha=args.global_alpha,
        gossip_interval=args.gossip_interval,
        workdir=args.workdir,
        spawn=args.spawn,
        telemetry=not args.no_telemetry,
        telemetry_obs=args.telemetry_obs,
        restart_limit=args.restart_limit,
        trace=args.trace,
    )
    where = " and ".join(
        part
        for part in (
            config.listen and f"tcp {config.listen}",
            config.socket_path and f"unix {config.socket_path}",
        )
        if part
    )
    print(
        f"repro gateway: {config.workers} workers ({config.spawn})"
        f" on {where or 'nothing?'}"
    )
    try:
        asyncio.run(run_gateway(config))
    except KeyboardInterrupt:
        pass
    return 0


@_client_errors
def cmd_loadgen(args) -> int:
    """Replay a seeded submission stream; print the measured result."""
    from repro.gateway import run_loadgen

    def progress(done: int, total: int) -> None:
        print(f"[loadgen] {done}/{total}", file=sys.stderr)

    result = run_loadgen(
        args.target,
        count=args.count,
        batch=args.batch,
        tenants=args.tenants,
        seed=args.seed,
        timeout=args.timeout,
        progress_every=None if args.quiet else max(args.count // 10, 1),
        progress=None if args.quiet else progress,
        trace=args.trace,
    )
    print(json.dumps(result, indent=2))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 1 if result["lost"] or result["duplicated"] else 0


def cmd_report(args) -> int:
    """Render telemetry (one JSONL file, or a gateway workdir) as tables."""
    import os

    from repro.analysis.telemetry import (
        render_gateway_report,
        render_telemetry_report,
    )

    try:
        if os.path.isdir(args.telemetry):
            print(
                render_gateway_report(
                    args.telemetry, every=args.every, rounds=not args.no_rounds
                )
            )
        else:
            print(
                render_telemetry_report(
                    args.telemetry, every=args.every, rounds=not args.no_rounds
                )
            )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _sweep_grid_from_args(args):
    """Build the sweep grid: from a JSON file or the inline flags."""
    from repro import api
    from repro.exp.grid import Grid

    if args.grid:
        with open(args.grid) as handle:
            return Grid.from_json(json.load(handle))
    schedulers = [n.strip() for n in args.schedulers.split(",") if n.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    jobs = [int(j) for j in args.jobs.split(",") if j.strip()]
    if not (schedulers and seeds and jobs):
        raise SystemExit("sweep needs at least one scheduler, seed and job count")
    workload_kwargs = {
        "duration_hours": args.hours,
        "trace_seed": args.trace_seed,
    }
    if args.deadline_hours:
        low, high = (float(v) for v in args.deadline_hours.split(","))
        workload_kwargs["deadline_hours"] = (low, high)
    base = api.RunSpec(
        scheduler=api.SchedulerSpec(schedulers[0]),
        workload=api.WorkloadSpec(num_jobs=jobs[0], **workload_kwargs),
        cluster=api.ClusterSpec(
            num_servers=args.servers, gpus_per_server=args.gpus_per_server
        ),
        faults=api.load_plan(args.faults) if args.faults else None,
    )
    axes = {
        "scheduler": [api.SchedulerSpec(name) for name in schedulers],
        "workload.num_jobs": jobs,
        "seed": seeds,
    }
    return Grid(base, axes={k: v for k, v in axes.items() if len(v) > 0})


def cmd_sweep(args) -> int:
    """Run an experiment sweep; exit 2 when any shard failed."""
    from repro import api

    grid = _sweep_grid_from_args(args)

    def progress(update) -> None:
        eta = f", eta {update.eta_seconds:.0f}s" if update.eta_seconds else ""
        print(
            f"[{update.done}/{update.total}] {update.label}"
            f" (cached {update.cached}, failed {update.failed}{eta})",
            file=sys.stderr,
        )

    try:
        result = api.sweep(
            grid,
            workers=args.workers,
            cache_dir=args.cache_dir,
            on_progress=None if args.quiet else progress,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.out:
        api.save_results(result, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(result.merged(), indent=2))
    stats = result.stats
    print(
        f"shards={stats['shards']} executed={stats['executed']}"
        f" cached={stats['cached']} failed={stats['failed']}",
        file=sys.stderr,
    )
    return 2 if stats["failed"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in CHECK_TOOLS:
        module = importlib.import_module(CHECK_TOOLS[argv[0]][0])
        return module.main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "trace": cmd_trace,
        "run": cmd_run,
        "compare": cmd_compare,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "ctl": cmd_ctl,
        "gateway": cmd_gateway,
        "loadgen": cmd_loadgen,
        "top": cmd_top,
        "report": cmd_report,
        "sweep": cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
