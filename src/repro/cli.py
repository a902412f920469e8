"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze FILE`` — run the Fenrir pipeline on a serialized series
  (``.jsonl`` or ``.csv``) and print the report.
* ``demo NAME`` — generate one of the paper's scenarios at a reduced
  scale and run Fenrir on it.
* ``convert IN OUT`` — convert a series between JSONL and CSV.
* ``catalog`` — print the Table 2 dataset catalog.
* ``serve`` — run the durable streaming monitoring service
  (``repro.serve``: many named monitors, journaled ingests).
* ``client CMD`` — create/feed/query monitors on a running server.
* ``lint`` — fenlint, the repo-specific static-analysis pass
  (delegates to :mod:`repro.lint.cli`; see ``repro lint --help``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

# The numeric stack loads inside the commands that use it, so that
# ``repro serve --shards`` (a supervisor that only relays bytes) and
# ``repro client`` start without numpy.
if TYPE_CHECKING:
    from .core.pipeline import FenrirConfig
    from .core.series import VectorSeries
    from .serve import ServeClient

__all__ = ["main", "build_parser"]

DEMOS = ("groot", "broot", "usc", "wikipedia", "google")


def _load_series(path: Path) -> VectorSeries:
    from .io.formats import read_series_csv, read_series_jsonl

    if path.suffix == ".jsonl":
        with path.open() as stream:
            return read_series_jsonl(stream)
    if path.suffix == ".csv":
        with path.open() as stream:
            return read_series_csv(stream)
    raise SystemExit(f"unsupported series format: {path.suffix!r} (use .jsonl or .csv)")


def _save_series(series: VectorSeries, path: Path) -> None:
    from .io.formats import write_series_csv, write_series_jsonl

    if path.suffix == ".jsonl":
        with path.open("w") as stream:
            write_series_jsonl(series, stream)
    elif path.suffix == ".csv":
        with path.open("w") as stream:
            write_series_csv(series, stream)
    else:
        raise SystemExit(f"unsupported series format: {path.suffix!r}")


def _demo_series(name: str) -> VectorSeries:
    if name == "groot":
        from .datasets import groot

        return groot.generate(num_vps=600, coarse_interval=timedelta(hours=6)).series
    if name == "broot":
        from .datasets import broot

        return broot.generate(num_blocks=900, cadence=timedelta(days=14)).series
    if name == "usc":
        from .datasets import usc

        return usc.generate(num_blocks=400, cadence=timedelta(days=8)).series
    if name == "wikipedia":
        from .datasets import wikipedia

        return wikipedia.generate(num_prefixes=700, cadence=timedelta(days=2)).series
    if name == "google":
        from .datasets import google

        return google.generate(num_prefixes=600, cadence=timedelta(days=2)).series
    raise SystemExit(f"unknown demo {name!r}; choose from {', '.join(DEMOS)}")


def _config_from(args: argparse.Namespace) -> FenrirConfig:
    from .core.compare import UnknownPolicy
    from .core.pipeline import FenrirConfig

    return FenrirConfig(
        interpolation_limit=0 if args.no_interpolate else args.interpolation_limit,
        unknown_policy=(
            UnknownPolicy.EXCLUDE if args.policy == "exclude" else UnknownPolicy.PESSIMISTIC
        ),
        linkage=args.linkage,
        max_clusters=args.max_clusters,
        cache_dir=str(args.cache_dir) if args.cache_dir else None,
    )


def _apply_vp_plan(series: VectorSeries, args: argparse.Namespace):
    """Honor ``--vp-plan``: project onto the kept VPs, rescale weights.

    Returns the (possibly reduced) series plus the ``weight_fn`` the
    pipeline should run with (None when no plan was given).
    """
    plan_path = getattr(args, "vp_plan", None)
    if plan_path is None:
        return series, None
    from .vps import VPPlan

    plan = VPPlan.load(plan_path)
    reduced, _ = plan.apply(series)
    return reduced, plan.weight_array


def _run_pipeline(args: argparse.Namespace, series: VectorSeries):
    from .core.pipeline import Fenrir

    series, weight_fn = _apply_vp_plan(series, args)
    return Fenrir(_config_from(args), weight_fn=weight_fn).run(series)


def _print_report(series: VectorSeries, args: argparse.Namespace) -> None:
    report = _run_pipeline(args, series)
    print(report.summary())
    print()
    print(report.mode_timeline())
    if args.heatmap:
        print()
        print(report.heatmap(max_size=args.heatmap_size))
    if args.stackplot:
        print()
        print(report.stackplot())
    if report.events and args.events:
        print()
        print("events:")
        for event in report.events:
            print(
                f"  {event.start:%Y-%m-%d %H:%M} .. {event.end:%Y-%m-%d %H:%M} "
                f"max step change {event.max_change:.2f}"
            )


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {number}")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {number}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if not number > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be positive, got {number}")
    return number


def _add_analysis_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy", choices=["pessimistic", "exclude"], default="pessimistic",
        help="how unknown catchments enter Φ (default: paper's pessimistic)",
    )
    parser.add_argument(
        "--linkage", choices=["single", "complete", "average"], default="single",
        help="HAC linkage (default: single, the paper's SLINK)",
    )
    parser.add_argument("--max-clusters", type=int, default=15)
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="cache similarity matrices under DIR keyed on series content; "
        "reruns on unchanged input skip the O(T²·N) comparison",
    )
    parser.add_argument("--interpolation-limit", type=_non_negative_int, default=3)
    parser.add_argument("--no-interpolate", action="store_true")
    parser.add_argument(
        "--vp-plan", type=Path, default=None, metavar="PLAN",
        help="VPPlan JSON from `repro vps select`: analyze only the "
        "plan's kept VPs with its per-VP weight rescaling",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="enable tracing and write the run's span tree to PATH "
        "(.json = JSON tree, anything else = flame-style text)",
    )
    parser.add_argument(
        "--metrics-file", type=Path, default=None, metavar="PATH",
        help="after the run, dump process metrics to PATH as Prometheus text",
    )
    parser.add_argument("--heatmap", action="store_true", help="print the Φ heatmap")
    parser.add_argument("--heatmap-size", type=_positive_int, default=50)
    parser.add_argument("--stackplot", action="store_true")
    parser.add_argument("--events", action="store_true", help="list detected events")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Fenrir: rediscover recurring routing results"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="run Fenrir on a series file")
    analyze.add_argument("series", type=Path)
    _add_analysis_options(analyze)

    demo = commands.add_parser("demo", help="run Fenrir on a paper scenario")
    demo.add_argument("name", choices=DEMOS)
    _add_analysis_options(demo)

    convert = commands.add_parser("convert", help="convert a series between formats")
    convert.add_argument("source", type=Path)
    convert.add_argument("destination", type=Path)

    export = commands.add_parser(
        "export", help="write a series' heatmap/stackplot CSVs for plotting"
    )
    export.add_argument("series", type=Path)
    export.add_argument("directory", type=Path)
    export.add_argument(
        "--svg", action="store_true", help="also write heatmap.svg / stackplot.svg"
    )
    _add_analysis_options(export)

    explain = commands.add_parser(
        "explain", help="triage briefing for every detected event in a series"
    )
    explain.add_argument("series", type=Path)
    _add_analysis_options(explain)

    online = commands.add_parser(
        "online", help="replay a series through the streaming tracker"
    )
    online.add_argument("series", type=Path)
    online.add_argument("--event-threshold", type=float, default=0.1)
    online.add_argument("--mode-threshold", type=float, default=0.7)

    bundle = commands.add_parser(
        "bundle", help="write a demo scenario as a verifiable dataset bundle"
    )
    bundle.add_argument("name", choices=DEMOS)
    bundle.add_argument("directory", type=Path)

    commands.add_parser("catalog", help="print the paper's dataset catalog")

    vps = commands.add_parser(
        "vps", help="most-valuable-VP selection (docs/vps.md)"
    )
    vps_commands = vps.add_subparsers(dest="vps_command", required=True)

    v_select = vps_commands.add_parser(
        "select", help="greedily select a budgeted VP subset from a series"
    )
    v_select.add_argument("series", type=Path)
    v_select.add_argument(
        "--output", "-o", type=Path, required=True, metavar="PLAN",
        help="where to write the VPPlan JSON artifact",
    )
    v_budget = v_select.add_mutually_exclusive_group()
    v_budget.add_argument(
        "--keep", type=_positive_int, default=None, metavar="N",
        help="absolute number of VPs to keep",
    )
    v_budget.add_argument(
        "--budget-fraction", type=float, default=None, metavar="F",
        help="keep F of all VPs (default: 0.2, the paper's ≤20%% target)",
    )
    v_select.add_argument(
        "--alpha", type=float, default=1.0,
        help="weight of the representation/redundancy term (default: 1.0)",
    )
    v_select.add_argument(
        "--beta", type=float, default=1.0,
        help="weight of the transition-detection term (default: 1.0)",
    )
    v_select.add_argument(
        "--gamma", type=float, default=0.25,
        help="weight of the catchment-coverage term (default: 0.25)",
    )
    v_select.add_argument(
        "--change-threshold", type=float, default=0.02,
        help="moved-VP fraction that makes a step 'active' (default: 0.02)",
    )

    v_apply = vps_commands.add_parser(
        "apply", help="project a series onto a plan's kept VPs"
    )
    v_apply.add_argument("series", type=Path)
    v_apply.add_argument("plan", type=Path)
    v_apply.add_argument("destination", type=Path)

    v_show = vps_commands.add_parser("show", help="summarize a plan file")
    v_show.add_argument("plan", type=Path)

    classify = commands.add_parser(
        "classify",
        help="route-change cause classification (docs/classification.md)",
    )
    classify_commands = classify.add_subparsers(
        dest="classify_command", required=True
    )

    k_train = classify_commands.add_parser(
        "train", help="train a classifier on the canonical labeled study"
    )
    k_train.add_argument(
        "--output", "-o", type=Path, required=True, metavar="MODEL",
        help="where to write the ClassifierModel JSON artifact",
    )
    k_train.add_argument(
        "--seed", type=int, default=7,
        help="forest seed; same seed + same data = identical bytes (default: 7)",
    )
    k_train.add_argument(
        "--quick", action="store_true",
        help="train on the smaller quick study (CI-sized)",
    )
    k_train.add_argument(
        "--trees", type=_positive_int, default=32, metavar="N",
        help="trees in the forest (default: 32)",
    )
    k_train.add_argument(
        "--depth", type=_positive_int, default=6, metavar="D",
        help="maximum tree depth (default: 6)",
    )

    k_eval = classify_commands.add_parser(
        "eval", help="evaluate a model artifact on the held-out study"
    )
    k_eval.add_argument("model", type=Path)
    k_eval.add_argument(
        "--quick", action="store_true",
        help="evaluate on the smaller quick study (CI-sized)",
    )

    k_show = classify_commands.add_parser(
        "show", help="summarize a model artifact"
    )
    k_show.add_argument("model", type=Path)

    serve = commands.add_parser(
        "serve", help="run the durable streaming monitoring service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7339, help="TCP port (0 = OS-assigned)"
    )
    serve.add_argument(
        "--data-dir", type=Path, required=True,
        help="directory holding per-monitor journals and snapshots",
    )
    serve.add_argument(
        "--queue-size", type=_positive_int, default=256,
        help="bounded per-monitor ingest queue; full = overload response",
    )
    serve.add_argument(
        "--snapshot-every", type=_non_negative_int, default=1000, metavar="N",
        help="auto-checkpoint each monitor every N ingests (0 = never)",
    )
    serve.add_argument(
        "--fsync", action="store_true",
        help="fsync each journal append (survives power loss, much slower)",
    )
    serve.add_argument(
        "--metrics-file", type=Path, default=None, metavar="PATH",
        help="periodically dump server metrics to PATH as Prometheus text "
        "(atomic replace; see --metrics-interval)",
    )
    serve.add_argument(
        "--metrics-interval", type=_positive_float, default=10.0, metavar="SECONDS",
        help="seconds between --metrics-file dumps (default: 10)",
    )
    serve.add_argument(
        "--shards", type=_positive_int, default=None, metavar="N",
        help="run a sharded cluster: N worker processes behind a router "
        "front-end speaking the same wire protocol (docs/cluster.md)",
    )
    serve.add_argument(
        "--replicate", action="store_true",
        help="with --shards: give every shard a replication follower, "
        "promoted automatically when its primary dies",
    )
    serve.add_argument(
        "--sync-interval", type=_positive_float, default=0.5, metavar="SECONDS",
        help="replication pull cadence for followers (default: 0.5)",
    )
    serve.add_argument(
        "--follow", default=None, metavar="HOST:PORT",
        help="run as a replication follower of the given primary "
        "(normally set by the cluster supervisor, not by hand)",
    )
    serve.add_argument(
        "--exit-on-stdin-close", action="store_true",
        help="exit when stdin reaches EOF (supervised-child mode: a dead "
        "supervisor's pipe retires its shards instead of leaking them)",
    )

    client = commands.add_parser(
        "client", help="talk to a running repro serve instance"
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7339)
    client_commands = client.add_subparsers(dest="client_command", required=True)

    c_create = client_commands.add_parser("create", help="create a monitor")
    c_create.add_argument("monitor")
    c_create.add_argument(
        "--networks", required=True,
        help="comma-separated network universe, e.g. 'n1,n2,n3'",
    )
    c_create.add_argument("--event-threshold", type=float, default=0.1)
    c_create.add_argument("--mode-threshold", type=float, default=0.7)
    c_create.add_argument(
        "--policy", choices=["pessimistic", "exclude"], default="pessimistic"
    )

    c_ingest = client_commands.add_parser(
        "ingest", help="stream a series file into a monitor"
    )
    c_ingest.add_argument("monitor")
    c_ingest.add_argument("series", type=Path)
    c_ingest.add_argument(
        "--create", action="store_true",
        help="create the monitor from the series' networks first",
    )

    c_query = client_commands.add_parser("query", help="summarize a monitor")
    c_query.add_argument("monitor")

    c_timeline = client_commands.add_parser(
        "timeline", help="print a monitor's mode timeline"
    )
    c_timeline.add_argument("monitor")

    client_commands.add_parser("stats", help="print server counters and latency")

    client_commands.add_parser(
        "metrics", help="print the server's Prometheus text exposition"
    )

    c_snapshot = client_commands.add_parser(
        "snapshot", help="force a monitor checkpoint now"
    )
    c_snapshot.add_argument("monitor")

    c_vps = client_commands.add_parser(
        "vps", help="create a monitor from a VP plan, or show its stored plan"
    )
    c_vps.add_argument("monitor")
    c_vps.add_argument(
        "--plan", type=Path, default=None, metavar="PLAN",
        help="VPPlan JSON to create the monitor from (omit to query)",
    )
    c_vps.add_argument(
        "--no-dedup", action="store_true",
        help="create the plan monitor with ingest dedup off",
    )
    c_vps.add_argument("--event-threshold", type=float, default=0.1)
    c_vps.add_argument("--mode-threshold", type=float, default=0.7)
    c_vps.add_argument(
        "--policy", choices=["pessimistic", "exclude"], default="pessimistic"
    )

    c_classify = client_commands.add_parser(
        "classify",
        help="install/inspect a monitor's route-change classifier",
    )
    c_classify.add_argument("monitor")
    c_classify.add_argument(
        "--model", type=Path, default=None, metavar="MODEL",
        help="ClassifierModel JSON to install (omit to report)",
    )
    c_classify.add_argument(
        "--stream", choices=["on", "off"], default=None,
        help="toggle labeling mode transitions at ingest time",
    )

    c_dedup = client_commands.add_parser(
        "dedup", help="show or toggle a monitor's ingest dedup mode"
    )
    c_dedup.add_argument("monitor")
    c_dedup.add_argument(
        "--mode", choices=["on", "off"], default=None,
        help="toggle dedup (omit to just report)",
    )

    client_commands.add_parser("list", help="list monitors")

    # Registered for `repro --help` discoverability only; `main`
    # delegates to repro.lint.cli before this parser ever sees the
    # arguments, so fenlint's own flag set stays in one place.
    commands.add_parser(
        "lint",
        help="fenlint: repo-specific invariant checks (repro lint --help)",
        add_help=False,
    )
    return parser


def _with_observability(args: argparse.Namespace, action):
    """Run ``action`` honoring ``--trace`` / ``--metrics-file``.

    ``--trace`` enables span collection for the duration of the run and
    writes the tree afterwards — as a JSON document when the path ends
    in ``.json``, as the flame-style text summary otherwise. The dump
    happens even when the run raises, so a trace of a failing pipeline
    shows *which* stage blew up. ``--metrics-file`` writes the process
    registry as Prometheus text after the run (the offline counterpart
    of ``repro client metrics``).
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_file", None)
    if trace_path is None and metrics_path is None:
        return action()
    from . import obs

    tracer = obs.get_tracer()
    was_enabled = obs.enabled()
    if trace_path is not None:
        tracer.clear()
        obs.enable()
    try:
        return action()
    finally:
        if trace_path is not None:
            if not was_enabled:
                obs.disable()
            text = (
                tracer.to_json()
                if trace_path.suffix == ".json"
                else tracer.flame_text()
            )
            trace_path.write_text(text)
            print(f"trace written to {trace_path}", file=sys.stderr)
        if metrics_path is not None:
            obs.write_metrics_file(metrics_path)
            print(f"metrics written to {metrics_path}", file=sys.stderr)


def _stdin_eof_event() -> "asyncio.Event":  # noqa: F821 (import in function)
    """An asyncio Event set when this process's stdin reaches EOF.

    The read happens on a daemon thread so it cannot block interpreter
    shutdown, and the event is set via ``call_soon_threadsafe`` so the
    loop wakes immediately. Used by supervised children (and the
    supervisor itself under a harness): the parent holds the write end
    of the pipe, so its death — even by SIGKILL — retires the child.
    """
    import asyncio
    import threading

    loop = asyncio.get_running_loop()
    event = asyncio.Event()

    def watch() -> None:
        try:
            while sys.stdin.buffer.read(65536):
                pass
        except (OSError, ValueError):
            pass
        loop.call_soon_threadsafe(event.set)

    threading.Thread(target=watch, name="stdin-eof-watch", daemon=True).start()
    return event


def _announce(lines: Sequence[str]) -> bool:
    """Print ``lines`` to stdout; False when its reader has closed the pipe.

    A closed pipe means the parent that spawned this server is gone, so
    the server stops quietly rather than die on a ``BrokenPipeError``.
    Stdout is pointed at the null device so that the interpreter's own
    flush at exit does not fail on the broken pipe again.
    """
    try:
        for line in lines:
            print(line, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return False
    return True


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.shards is not None and args.follow is not None:
        print("--follow cannot be combined with --shards", file=sys.stderr)
        return 2
    if args.shards is None and args.replicate:
        print("--replicate requires --shards", file=sys.stderr)
        return 2
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


async def _serve(args: argparse.Namespace) -> None:
    """Start one server (or, with ``--shards``, the cluster) and run it.

    Serves until the listener ends, stdin closes (with
    ``--exit-on-stdin-close``) or the task is cancelled, then writes a
    final ``--metrics-file`` dump and stops the tier.
    """
    import asyncio

    from .obs import write_metrics_file

    shared = dict(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        snapshot_every=args.snapshot_every,
        fsync=args.fsync,
    )
    children: list[str] = []
    if args.shards is None:
        from .serve import FenrirServer, ServeConfig

        tier = FenrirServer(ServeConfig(**shared))
        await tier.start()
        if args.follow is not None:
            from .serve.cluster import ReplicationFollower

            follow_host, _, follow_port = args.follow.rpartition(":")
            tier.follower = ReplicationFollower(
                tier, (follow_host, int(follow_port)), interval=args.sync_interval
            )
            tier.follower.start()
    else:
        from .serve.cluster import ClusterConfig, ClusterSupervisor

        tier = ClusterSupervisor(
            ClusterConfig(
                **shared,
                shards=args.shards,
                replicate=args.replicate,
                sync_interval=args.sync_interval,
            )
        )
        await tier.start()
        children = tier.describe_processes()

    async def dump_metrics_forever() -> None:
        while True:
            await asyncio.sleep(args.metrics_interval)
            try:
                write_metrics_file(args.metrics_file, tier.registry)
            except OSError as exc:
                print(f"metrics dump failed: {exc}", file=sys.stderr)

    loop = asyncio.get_running_loop()
    dumper = None
    waiters: set[asyncio.Task] = set()
    try:
        # Machine-readable readiness: one line per cluster child (harnesses
        # learn pids and shard addresses), then the listening line, which
        # tests, the bench harness and the cluster supervisor parse to
        # learn an OS-assigned port. Whoever would read them may be gone.
        host, port = tier.address
        if not _announce([*children, f"listening on {host}:{port}"]):
            return
        if args.metrics_file is not None:
            dumper = loop.create_task(dump_metrics_forever())
        waiters.add(loop.create_task(tier.serve_forever()))
        if args.exit_on_stdin_close:
            waiters.add(loop.create_task(_stdin_eof_event().wait()))
        await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
    except asyncio.CancelledError:
        pass
    finally:
        for task in waiters:
            task.cancel()
        if dumper is not None:
            dumper.cancel()
            # Final dump so short-lived runs still leave a snapshot.
            write_metrics_file(args.metrics_file, tier.registry)
        await tier.stop()


def _run_vps(args: argparse.Namespace) -> int:
    from .vps import PlanError, SelectionConfig, VPPlan, select_vps

    if args.vps_command == "select":
        series = _load_series(args.series)
        fraction = args.budget_fraction
        if args.keep is None and fraction is None:
            fraction = 0.2  # the paper's ≤20% volume target
        try:
            plan = select_vps(
                series,
                SelectionConfig(
                    budget=args.keep,
                    fraction=fraction,
                    alpha=args.alpha,
                    beta=args.beta,
                    gamma=args.gamma,
                    change_threshold=args.change_threshold,
                ),
            )
        except PlanError as exc:
            raise SystemExit(str(exc)) from exc
        plan.save(args.output)
        print(
            f"kept {plan.budget}/{plan.total_networks} VPs "
            f"({plan.volume_fraction:.0%} of volume) -> {args.output}"
        )
    elif args.vps_command == "apply":
        series = _load_series(args.series)
        try:
            plan = VPPlan.load(args.plan)
            reduced, _ = plan.apply(series)
        except PlanError as exc:
            raise SystemExit(str(exc)) from exc
        _save_series(reduced, args.destination)
        print(
            f"wrote {args.destination}: {len(reduced.networks)} of "
            f"{len(series.networks)} VPs, {len(reduced)} rounds"
        )
    elif args.vps_command == "show":
        try:
            plan = VPPlan.load(args.plan)
        except PlanError as exc:
            raise SystemExit(str(exc)) from exc
        print(
            f"plan: {plan.budget}/{plan.total_networks} VPs "
            f"({plan.volume_fraction:.0%} of volume)"
        )
        provenance = dict(plan.provenance)
        digest = provenance.get("series_sha256")
        if digest:
            print(f"series: sha256 {digest}")
        objective = provenance.get("objective")
        if objective:
            print(f"objective: {objective}")
        for name in plan.kept:
            print(f"  {name:<24} weight {plan.weights[name]:g}")
    return 0


def _run_classify(args: argparse.Namespace) -> int:
    from .classify import ClassifierModel, ModelError, evaluate, train_forest
    from .classify.dataset import (
        FULL_EVAL,
        FULL_TRAIN,
        QUICK_EVAL,
        QUICK_TRAIN,
        build_dataset,
    )

    if args.classify_command == "train":
        config = QUICK_TRAIN if args.quick else FULL_TRAIN
        print(f"building labeled study (seed {config.seed})...", file=sys.stderr)
        dataset = build_dataset(config)
        model = train_forest(
            dataset.features,
            list(dataset.labels),
            seed=args.seed,
            num_trees=args.trees,
            max_depth=args.depth,
        )
        model.save(args.output)
        counts = ", ".join(
            f"{label}: {count}" for label, count in dataset.counts().items()
        )
        print(f"trained on {len(dataset.labels)} events ({counts})")
        print(f"model sha256 {model.content_digest()} -> {args.output}")
    elif args.classify_command == "eval":
        try:
            model = ClassifierModel.load(args.model)
        except (ModelError, OSError) as exc:
            raise SystemExit(str(exc)) from exc
        config = QUICK_EVAL if args.quick else FULL_EVAL
        print(f"building held-out study (seed {config.seed})...", file=sys.stderr)
        dataset = build_dataset(config)
        report = evaluate(model, dataset.features, list(dataset.labels))
        print(f"macro-F1 {report['macro_f1']:.3f}  accuracy {report['accuracy']:.3f}")
        for label, stats in report["per_label"].items():
            print(
                f"  {label:<22} precision {stats['precision']:.3f}  "
                f"recall {stats['recall']:.3f}  f1 {stats['f1']:.3f}  "
                f"n={stats['support']:g}"
            )
    elif args.classify_command == "show":
        try:
            model = ClassifierModel.load(args.model)
        except (ModelError, OSError) as exc:
            raise SystemExit(str(exc)) from exc
        summary = model.summary()
        print(
            f"model: v{summary['version']}, {summary['trees']} trees, "
            f"{summary['features']} features"
        )
        print(f"labels: {', '.join(summary['labels'])}")
        print(f"digest: {summary['digest']}")
        for key, value in sorted(summary["provenance"].items()):
            print(f"  {key}: {value}")
    return 0


def _show_update(update: dict) -> None:
    """Print one ingest update's notable flags."""
    if update["is_event"] or update["is_new_mode"] or update["recurred"]:
        notes = [
            note
            for flag, note in [
                (update["is_new_mode"], "new mode"),
                (update["recurred"], "recurrence"),
                (update["is_event"], "event"),
            ]
            if flag
        ]
        print(
            f"{update['time']} change={update['step_change']:.2f} "
            f"mode={update['mode_id']} {' '.join(notes)}"
        )


def _ingest_batch_size(series: VectorSeries, monitor: str) -> int:
    """Rounds per ``ingest_batch`` request: at most 128, and no more than
    fit one request under ``protocol.MAX_FRAME``.

    Every round maps each network to a catalog label, so the network
    names plus that many of the longest label bound a round's JSON; the
    round's time and the request envelope get fixed allowances.
    """
    from .serve import protocol

    longest_label = max(len(json.dumps(label)) for label in series.catalog.labels)
    per_round = 64 + sum(
        len(json.dumps(network)) + longest_label + 2 for network in series.networks
    )
    room = protocol.MAX_FRAME - 256 - len(json.dumps(monitor))
    return max(1, min(128, room // per_round))


def _run_client(args: argparse.Namespace) -> int:
    """Run one ``repro client`` command; a failure is one stderr line."""
    from .serve import ServeClient
    from .serve.protocol import FrameError, ServeClientError

    try:
        with ServeClient(host=args.host, port=args.port) as client:
            _client_command(client, args)
    except (ServeClientError, OSError, FrameError) as exc:
        # A server's error reads "<code>: <message>"; name any other kind.
        kind = "" if isinstance(exc, ServeClientError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1
    return 0


def _client_command(client: ServeClient, args: argparse.Namespace) -> None:
    if args.client_command == "create":
        response = client.create(
            args.monitor,
            networks=[n for n in args.networks.split(",") if n],
            event_threshold=args.event_threshold,
            mode_threshold=args.mode_threshold,
            policy=args.policy,
        )
        print(f"created monitor {response['monitor']!r}")
    elif args.client_command == "ingest":
        from .serve import BatchRejectedError

        series = _load_series(args.series)
        if args.create:
            client.create(args.monitor, networks=series.networks)
        try:
            updates = client.ingest_many(
                args.monitor,
                [(vector.to_mapping(), vector.time) for vector in series],
                batch_size=_ingest_batch_size(series, args.monitor),
            )
        except BatchRejectedError as exc:
            for update in exc.applied:
                _show_update(update)
            raise
        for update in updates:
            _show_update(update)
        print(f"ingested {len(updates)} rounds into {args.monitor!r}")
    elif args.client_command == "query":
        print(json.dumps(client.query(args.monitor), indent=2, sort_keys=True))
    elif args.client_command == "timeline":
        response = client.timeline(args.monitor)
        for segment in response["segments"]:
            print(
                f"mode {segment['mode_id']:>3}  "
                f"{segment['start']} .. {segment['end']}"
            )
    elif args.client_command == "stats":
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
    elif args.client_command == "metrics":
        print(client.metrics(), end="")
    elif args.client_command == "snapshot":
        response = client.snapshot(args.monitor)
        print(f"snapshot of {args.monitor!r} at seq {response['seq']}")
    elif args.client_command == "vps":
        if args.plan is None:
            print(
                json.dumps(client.vps(args.monitor), indent=2, sort_keys=True)
            )
        else:
            from .vps import VPPlan

            plan = VPPlan.load(args.plan)
            response = client.vps(
                args.monitor,
                plan=plan.to_document(),
                dedup=not args.no_dedup,
                event_threshold=args.event_threshold,
                mode_threshold=args.mode_threshold,
                policy=args.policy,
            )
            print(
                f"created monitor {response['monitor']!r} from plan: "
                f"{response['kept']}/{response['total_networks']} VPs "
                f"({response['volume_fraction']:.0%}), "
                f"dedup {'on' if response['dedup'] else 'off'}"
            )
    elif args.client_command == "classify":
        if args.model is not None:
            from .classify import ClassifierModel, ModelError

            try:
                model = ClassifierModel.load(args.model)
            except (ModelError, OSError, json.JSONDecodeError) as exc:
                raise SystemExit(str(exc)) from exc
            response = client.classify(args.monitor, model=model.to_document())
            print(
                f"installed model {response['model']['digest'][:12]} "
                f"on {args.monitor!r}"
            )
        if args.stream is not None:
            response = client.classify(args.monitor, stream=args.stream)
            print(
                f"{args.monitor!r}: streaming "
                f"{'on' if response['stream'] else 'off'}"
            )
        if args.model is None and args.stream is None:
            response = client.classify(args.monitor)
            model_summary = response["model"]
            if model_summary is None:
                print(f"{args.monitor!r}: no classifier installed")
            else:
                print(
                    f"{args.monitor!r}: model {model_summary['digest'][:12]} "
                    f"({model_summary['trees']} trees), streaming "
                    f"{'on' if response['stream'] else 'off'}"
                )
            for event in response["recent"]:
                print(
                    f"  {event['time']} {event['label']} "
                    f"(mode {event['mode_id']})"
                )
    elif args.client_command == "dedup":
        response = client.dedup(args.monitor, mode=args.mode)
        print(
            f"{args.monitor!r}: dedup {response['mode']}, "
            f"{response['deduped_records']} records deduped, "
            f"{response['bytes_saved']} journal bytes saved"
        )
    elif args.client_command == "list":
        for name in client.list_monitors():
            print(name)


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        from .lint.cli import main as lint_main

        return lint_main(arguments[1:])
    args = build_parser().parse_args(arguments)

    if args.command == "analyze":
        _with_observability(args, lambda: _print_report(_load_series(args.series), args))
    elif args.command == "demo":
        print(f"generating scaled scenario {args.name!r}...", file=sys.stderr)
        series = _demo_series(args.name)
        _with_observability(args, lambda: _print_report(series, args))
    elif args.command == "convert":
        _save_series(_load_series(args.source), args.destination)
        print(f"wrote {args.destination}")
    elif args.command == "export":
        from .io.plotdata import export_report

        report = _with_observability(
            args, lambda: _run_pipeline(args, _load_series(args.series))
        )
        written = export_report(report, args.directory)
        if args.svg:
            written |= {
                f"{name}-svg": path
                for name, path in report.export_svg(args.directory).items()
            }
        for artifact, path in written.items():
            print(f"{artifact}: {path}")
    elif args.command == "explain":
        from .core.explain import explain_event

        report = _with_observability(
            args, lambda: _run_pipeline(args, _load_series(args.series))
        )
        if not report.events:
            print("no events detected")
        for event in report.events:
            print(explain_event(report, event).headline())
    elif args.command == "online":
        from .core.online import OnlineFenrir

        series = _load_series(args.series)
        tracker = OnlineFenrir(
            networks=series.networks,
            event_threshold=args.event_threshold,
            mode_threshold=args.mode_threshold,
        )
        for vector in series:
            update = tracker.ingest(vector.to_mapping(), vector.time)
            if update.is_event or update.is_new_mode or update.recurred:
                notes = []
                if update.is_new_mode:
                    notes.append("new mode")
                if update.recurred:
                    notes.append("recurrence")
                print(
                    f"{update.time:%Y-%m-%d %H:%M} change={update.step_change:.2f} "
                    f"mode={update.mode_id} {' '.join(notes)}".rstrip()
                )
        print(
            f"done: {len(tracker.updates)} rounds, {tracker.num_modes} modes, "
            f"{len(tracker.events())} events, {len(tracker.recurrences())} recurrences"
        )
    elif args.command == "bundle":
        from .io.bundle import write_bundle

        print(f"generating scaled scenario {args.name!r}...", file=sys.stderr)
        series = _demo_series(args.name)
        directory = write_bundle(
            args.directory,
            args.name,
            series,
            {"generator": f"repro.datasets.{args.name}", "scale": "demo"},
        )
        print(f"bundle written to {directory}")
    elif args.command == "vps":
        return _run_vps(args)
    elif args.command == "classify":
        return _run_classify(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "client":
        return _run_client(args)
    elif args.command == "catalog":
        from .io.catalog import CATALOG

        for info in CATALOG:
            print(
                f"{info.name:<20} {info.case_study:<24} start {info.start} "
                f"~{info.duration_days}d  -> {info.generator}"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
