"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Generate a Trinity campaign (or read an SWF trace) and simulate it
    under one strategy; prints the schedule summary and final
    ``sacct``-style accounting (``--json`` for machine-readable
    output).
``compare``
    Run the same workload under several strategies and print the
    headline comparison table (``--json`` available).
``experiment``
    Regenerate one of the paper's tables/figures by id — every
    registered driver, ``e1``..``e24`` except the ``e11``
    microbenchmark (``repro experiment list`` enumerates them).
    Sweep-style experiments accept ``--workers N`` to parallelise.
``campaign``
    Expand a declarative campaign (grid axes × named experiments)
    into content-addressed runs and execute them on a process pool
    with caching, retry and checkpoint/resume; results land in an
    artifact store plus a JSONL file.  Campaigns are preemption-safe:
    SIGTERM/SIGINT checkpoints in-flight runs and exits with status 4.
    With ``--join`` the runs become durable queue items under
    ``<store>/.queue/`` drained by a fleet of warm workers
    (leases, heartbeats, fencing tokens; crashed workers' runs are
    reclaimed automatically) — additional ``repro queue work``
    processes may join the same store at any time.
``resume``
    Restart a suspended (or otherwise interrupted) campaign from its
    store: re-reads the recorded spec and settings, resumes each
    checkpointed run from its snapshot and executes whatever else is
    missing.  A campaign recorded with ``--join`` resumes as a queue
    drain.
``queue``
    Inspect or drain a store's durable work queue: ``queue status
    <store>`` prints the item/lease census with per-lease heartbeat
    ages (``--json`` available; ``--watch SECONDS`` refreshes until
    the queue drains — one census pass per tick, the same
    ``WorkQueue.status()`` codepath the service's ``/readyz``
    aggregates); ``queue work <store>`` runs one cooperative drain
    worker — claim, heartbeat, execute, commit — until the queue is
    empty (exit 0) or a SIGTERM/RSS trip parks its lease (exit 4);
    ``queue metrics <store>`` renders the fleet event sidecars
    (``.queue/metrics/*.events.jsonl``, appended at every lifecycle
    boundary through the ``queue.metrics.write`` failpoint) as
    Prometheus text — the offline twin of the server's
    ``GET /metrics`` (``--json`` for the raw aggregate document).
``top``
    Live fleet dashboard over one store (stdlib ANSI redraw, no
    curses): queue census, per-worker throughput, lease heartbeat
    ages, quarantine/shed counts and a drain ETA, refreshed from the
    same event sidecars ``queue metrics`` reads.  ``--once`` prints
    a single frame; ``--json`` emits the frame document for scripts.
    Exits 0 when the queue drains.
``serve``
    Serve campaign submissions over HTTP (stdlib asyncio; see
    DESIGN.md §11): ``POST /v1/campaigns`` accepts a campaign spec
    and enqueues it as durable queue items in a content-addressed
    per-submission store (an ``Idempotency-Key`` header deduplicates
    client retries at the commit boundary — one key, one executed
    submission), ``GET /v1/campaigns/<id>`` polls progress,
    ``.../events`` streams it as heartbeated server-sent events,
    ``.../results`` returns the drained ``results.jsonl``;
    ``/healthz``–``/readyz`` expose admission/shed accounting and
    the aggregate queue census; ``GET /metrics`` serves the same
    accounting plus the fleet SLO histograms as Prometheus text
    (scraped off-loop, past admission, so a poll is never shed and
    never stalls an SSE stream).  Overload beyond the bounded accept
    queue is shed with ``429 Retry-After``; request deadlines answer
    ``503`` without abandoning durable work; SIGTERM drains (stop
    accepting → finish in-flight → park the worker fleet's leases →
    exit 4).  The server is a thin front-end over the same stores
    ``campaign --join`` writes — a server crash loses nothing that
    was accepted, and the drained store is byte-identical to a
    CLI-produced one.
``replay``
    Re-execute a crash replay bundle (written automatically when a
    run fails under ``campaign --bundle-dir``, or by any crash with
    diagnostics armed) and verify the recorded failure reproduces.
``trace``
    Export a Chrome/Perfetto ``trace.json`` — either by re-executing
    a stored campaign run record (deterministic, so the exported
    schedule is exactly the one the campaign stored) or by simulating
    a workload described by the usual flags.  With ``--stitched`` the
    positional argument is a *store* directory instead: the fleet
    event sidecars are stitched into one distributed trace of the
    whole campaign — submission spans (pid 3), lease tenures with
    zombie claims marked superseded by their fencing token (pid 4),
    and per-worker execution lanes (pid 5).  Load the output at
    https://ui.perfetto.dev or ``chrome://tracing``.
``stats``
    Aggregate a campaign store: per-strategy summary rows, folded-in
    telemetry sidecars (wall-clock, resumes) and quarantine counts.
    Detects columnar replay stores and streams them without loading
    per-run JSON; ``--format csv|json`` for machine-readable output.
``synth``
    Write a seeded synthetic SWF trace (Poisson arrivals at a target
    load, log-normal runtimes) — deterministic bytes per seed, for
    archive-scale tests and benchmarks without shipping trace files.
``ingest``
    Stream an SWF trace (constant memory, lenient quarantine) into a
    replayable window archive: per-window record files plus a
    content-hashed manifest with boundary and carried-job metadata.
``replay-trace``
    Replay an ingested archive window by window: each window hands
    its live manager to the next and commits its per-job results to
    a columnar store, whose marks let a re-run resume at the first
    uncommitted window.  A boundary snapshot is written every 8th
    window and on a graceful stop; a resume re-runs the committed
    windows after the newest snapshot and checks their rows against
    the committed ones.  Byte-identical to a monolithic simulation of
    the same trace.
    ``--strategies a b c`` fans the independent per-strategy window
    chains out as queue items drained by ``--workers`` processes.
``fsck``
    Check a campaign/replay store, columnar store or ingested
    archive against its on-disk invariants: records match their
    content hashes, the columnar manifest fits its column files,
    idempotence marks cohere, snapshot checksums verify, and
    ``stitched.json`` agrees with a fresh recompute.
``chaos``
    Crash-consistency torture sweep: run a small campaign and/or a
    windowed synthetic replay in subprocesses, hard-kill each one at
    every registered failpoint in turn, re-run it disarmed, and
    require the recovered stores to pass ``fsck`` and be
    byte-identical to a fault-free baseline.  ``--workload serve``
    drives the HTTP service the same way, killing it mid-submission
    (``service.submit.write``, ``service.manifest.write``), at the
    idempotency-key commit point (``service.key.write``) and
    mid-SSE-stream (``service.stream.write``).  ``--workload queue``
    also covers the observability plane: a kill mid-append at
    ``queue.metrics.write`` must leave a store that recovers
    fsck-clean (torn sidecar tail tolerated) and byte-identical.
``matrix``
    Print the mini-app pairwise co-run matrix.

Exit codes
----------
This table is the single authority for every ``repro`` command.

=== ==========================================================
0   success (for ``replay``: the recorded crash reproduced; for
    ``fsck``: every invariant holds; for ``chaos``: every
    injected fault recovered or was not reachable; for ``top``:
    the watched queue drained — or the frame printed, with
    ``--once``/``--json``)
1   error — a run/replay failed, ``fsck`` found invariant
    violations, or a ``chaos`` trial failed to recover;
    structured JSON on stderr for escaped errors
2   usage or configuration error (for ``fsck``: the path is not
    a repro store or archive; for ``resume``: a missing or
    unreadable store manifest, reported as structured JSON on
    stderr; for ``serve``: a bind failure or stale/live
    ``service.json``)
3   campaign partial success: some runs completed, others
    failed or were quarantined (details on stderr); also a
    ``--join`` drain that finished with terminal ``failed/`` or
    ``quarantined/`` queue items
4   campaign suspended: a graceful shutdown checkpointed the
    in-flight runs; ``repro resume <store>`` continues them.
    For ``queue work``: this worker parked its lease (SIGTERM
    drain or RSS shed) — the queue itself remains drainable and
    any other worker (or ``repro resume``) picks the run back up.
    For ``serve``: a SIGTERM/SIGINT drain completed (accepted
    submissions stay durable; restart the server to continue)
86  a ``chaos``-armed failpoint hard-killed the process at the
    injected fault (``EXIT_FAILPOINT_KILL``; only ever seen
    inside chaos trials or with ``REPRO_FAILPOINTS`` armed)
130 interrupted (the conventional 128+SIGINT status; raised by
    a second/third Ctrl-C that escalates past graceful shutdown)
141 a downstream pipe closed early (the conventional 128+SIGPIPE
    status, e.g. ``repro stats ... | head``); applies to every
    command, ``fsck`` and ``chaos`` included
=== ==========================================================
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.strategy import all_strategy_names
from repro.errors import ReproError
from repro.metrics.report import format_comparison, format_json, format_table
from repro.metrics.summary import summarize
from repro.slurm.config import SchedulerConfig
from repro.slurm.formats import sacct
from repro.slurm.manager import build_manager, run_simulation
from repro.workload.swf import read_swf, read_swf_header_apps
from repro.workload.trace import WorkloadTrace
from repro.workload.trinity import TrinityWorkloadGenerator


def _build_trace(args: argparse.Namespace) -> WorkloadTrace:
    if args.swf:
        apps = read_swf_header_apps(args.swf)
        return read_swf(args.swf, cores_per_node=args.cores, app_names=apps)
    rng = np.random.default_rng(args.seed)
    generator = TrinityWorkloadGenerator(
        share_obeys_app=False,
        share_fraction=args.share_fraction,
        offered_load=args.load,
    )
    return generator.generate(args.jobs, args.nodes, rng)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=300, help="jobs to generate")
    parser.add_argument("--nodes", type=int, default=128, help="cluster size")
    parser.add_argument("--seed", type=int, default=7, help="workload RNG seed")
    parser.add_argument(
        "--load", type=float, default=1.5, help="offered load (>=1 keeps a queue)"
    )
    parser.add_argument(
        "--share-fraction", type=float, default=0.85,
        help="probability a job permits node sharing",
    )
    parser.add_argument("--swf", type=str, default="",
                        help="replay this SWF trace instead of generating")
    parser.add_argument("--cores", type=int, default=32,
                        help="cores per node (SWF processor conversion)")


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "resilience", "failure injection and checkpoint/restart (off by default)"
    )
    group.add_argument("--mtbf-hours", type=float, default=0.0,
                       help="per-node MTBF in hours (0 = no node failures)")
    group.add_argument("--rack-mtbf-hours", type=float, default=0.0,
                       help="per-rack MTBF in hours (0 = no rack failures)")
    group.add_argument("--repair-hours", type=float, default=4.0,
                       help="node repair duration in hours")
    group.add_argument("--checkpoint", choices=("none", "periodic", "daly"),
                       default="none", help="checkpoint/restart policy")
    group.add_argument("--checkpoint-interval", type=float, default=3600.0,
                       help="periodic checkpoint interval (seconds)")
    group.add_argument("--checkpoint-overhead", type=float, default=60.0,
                       help="cost of one checkpoint write (seconds)")
    group.add_argument("--max-requeues", type=int, default=3,
                       help="requeues before a job fails terminally")
    group.add_argument("--blacklist-failures", type=int, default=0,
                       help="drain a node after N failures in 24h (0 = off)")
    group.add_argument("--failure-seed", type=int, default=0,
                       help="failure-injection RNG seed")


#: Campaign exit status when some runs succeeded and others failed or
#: were quarantined (documented in the module docstring).
EXIT_PARTIAL = 3

#: Campaign exit status after a graceful shutdown: in-flight runs were
#: checkpointed and ``repro resume <store>`` continues the campaign.
EXIT_SUSPENDED = 4

#: Conventional 128+SIGINT exit status for a hard interrupt.
EXIT_INTERRUPTED = 130

#: Conventional 128+SIGPIPE status when a downstream pipe closes
#: early; handled centrally in :func:`main` for every command.
EXIT_SIGPIPE = 141


def _add_diagnostics_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "diagnostics", "crash diagnostics and watchdogs (inert by default)"
    )
    group.add_argument("--wall-clock-limit", type=float, default=0.0,
                       help="abort when one run() call exceeds this many "
                            "real seconds (0 = no watchdog)")
    group.add_argument("--stall-limit", type=int, default=0,
                       help="abort after N events without simulated time "
                            "advancing (0 = no watchdog)")
    group.add_argument("--max-events", type=int, default=0,
                       help="override the event dispatch ceiling (0 = default)")
    group.add_argument("--no-flight-recorder", action="store_true",
                       help="disable the crash flight recorder")
    group.add_argument("--ring-size", type=int, default=256,
                       help="flight recorder ring buffer capacity")


def _diagnostics_from_args(args: argparse.Namespace):
    from repro.diagnostics import DiagnosticsConfig

    return DiagnosticsConfig(
        flight_recorder=not args.no_flight_recorder,
        ring_size=args.ring_size,
        wall_clock_limit_s=(
            args.wall_clock_limit if args.wall_clock_limit > 0 else None
        ),
        stall_event_limit=args.stall_limit if args.stall_limit > 0 else None,
        max_events=args.max_events if args.max_events > 0 else None,
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "telemetry",
        "metrics, decision tracing and profiling (purely observational: "
        "simulation results are byte-identical with telemetry on or off)",
    )
    group.add_argument("--telemetry", action="store_true",
                       help="arm the metrics hub and decision trace")
    group.add_argument("--profile", action="store_true",
                       help="attribute wall-clock to event types and "
                            "scheduler phases (implies --telemetry)")
    group.add_argument("--trace-out", default="", metavar="PATH",
                       help="write a Chrome/Perfetto trace JSON here "
                            "(implies --telemetry)")
    group.add_argument("--decisions-out", default="", metavar="PATH",
                       help="append decision records as JSONL here "
                            "(implies --telemetry)")


def _telemetry_from_args(args: argparse.Namespace):
    """Build a TelemetryConfig from CLI flags, or None when inert."""
    armed = (
        args.telemetry
        or args.profile
        or bool(args.trace_out)
        or bool(args.decisions_out)
    )
    if not armed:
        return None
    from repro.observability import TelemetryConfig

    return TelemetryConfig(
        enabled=True,
        profile=args.profile,
        decisions_path=args.decisions_out or None,
    )


def _resilience_from_args(args: argparse.Namespace):
    """Build a ResilienceConfig from CLI flags, or None when inert."""
    if (
        args.mtbf_hours <= 0
        and args.rack_mtbf_hours <= 0
        and args.checkpoint == "none"
    ):
        return None
    from repro.resilience import ResilienceConfig

    return ResilienceConfig(
        node_mtbf_hours=args.mtbf_hours if args.mtbf_hours > 0 else None,
        rack_mtbf_hours=(
            args.rack_mtbf_hours if args.rack_mtbf_hours > 0 else None
        ),
        repair_hours=args.repair_hours,
        checkpoint=args.checkpoint,
        checkpoint_interval_s=args.checkpoint_interval,
        checkpoint_overhead_s=args.checkpoint_overhead,
        max_requeues=args.max_requeues,
        blacklist_failures=(
            args.blacklist_failures if args.blacklist_failures > 0 else None
        ),
        seed=args.failure_seed,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    config = SchedulerConfig(
        strategy=args.strategy,
        share_threshold=args.threshold,
        resilience=_resilience_from_args(args),
        diagnostics=_diagnostics_from_args(args),
    )
    telemetry = _telemetry_from_args(args)
    if telemetry is not None:
        config.telemetry = telemetry
    manager = build_manager(
        trace, num_nodes=args.nodes, strategy=args.strategy, config=config
    )
    result = manager.run()
    summary = summarize(result)
    if args.trace_out:
        from repro.observability import perfetto_trace, write_trace

        written = write_trace(
            args.trace_out, perfetto_trace(result, manager.decisions)
        )
        print(f"trace: {written}", file=sys.stderr)
    if args.json:
        payload = {
            "command": "run",
            "strategy": args.strategy,
            "nodes": args.nodes,
            "workload": trace.name,
            "jobs": len(trace),
            "summary": summary.as_dict(),
            "makespan_s": result.makespan,
            "mean_wait_s": summary.mean_wait,
            # Wall-clock provenance: nondeterministic by nature, so it
            # lives here in the CLI payload, never in store records.
            "execution": {
                "wall_clock_s": float(result.wallclock_seconds),
                "resume_count": int(getattr(manager, "resume_count", 0)),
                "restore_wall_s": float(
                    getattr(manager, "restore_wall_s", 0.0)
                ),
            },
        }
        if result.resilience is not None:
            payload["resilience"] = result.resilience.as_dict()
        telemetry_sections = manager.telemetry_summary()
        if telemetry_sections is not None:
            profile = telemetry_sections.pop("profile", None)
            payload["telemetry"] = telemetry_sections
            if profile is not None:
                payload["profile"] = profile
        print(format_json(payload))
        return 0
    print(format_table([summary.as_dict()], title=f"strategy: {args.strategy}"))
    if result.resilience is not None:
        print()
        print(format_table(
            [result.resilience.as_dict()], title="resilience"
        ))
    if manager.hot_profiler is not None:
        prof = manager.hot_profiler.as_dict()
        event_rows = [
            {"event": name, **stats}
            for name, stats in list(prof["events"].items())[:10]
        ]
        if event_rows:
            print()
            print(format_table(event_rows, title="hot events (wall-clock)"))
        phase_rows = [
            {"phase": name, **stats} for name, stats in prof["phases"].items()
        ]
        if phase_rows:
            print()
            print(format_table(phase_rows, title="scheduler phases"))
    if args.sacct:
        print()
        print(sacct(result.accounting, max_rows=args.sacct))
    if args.gantt:
        from repro.metrics.gantt import render_gantt, render_sparkline

        print()
        print(render_gantt(result, max_nodes=args.gantt))
        if result.collector is not None:
            print()
            print(render_sparkline(result.collector.timeline(),
                                   peak=args.nodes))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    summary = trace.summary()
    print(format_table([summary], title=f"workload: {trace.name}"))
    mix = trace.app_mix()
    if mix:
        rows = [{"app": app or "(unknown)", "jobs": count}
                for app, count in sorted(mix.items())]
        print()
        print(format_table(rows, title="application mix"))
    sizes: dict[int, int] = {}
    for job in trace:
        sizes[job.num_nodes] = sizes.get(job.num_nodes, 0) + 1
    print()
    print(format_table(
        [{"nodes": n, "jobs": c} for n, c in sorted(sizes.items())],
        title="size histogram",
    ))
    print(f"\noffered load on {args.nodes} nodes: "
          f"{trace.offered_load(args.nodes):.3f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    strategies = args.strategies or list(all_strategy_names())
    resilience = _resilience_from_args(args)
    summaries = []
    reports = []
    for strategy in strategies:
        config = None
        if resilience is not None:
            config = SchedulerConfig(strategy=strategy, resilience=resilience)
        result = run_simulation(
            trace, num_nodes=args.nodes, strategy=strategy, config=config
        )
        summaries.append(summarize(result))
        reports.append(result.resilience)
    if args.json:
        payload = {
            "command": "compare",
            "baseline": args.baseline,
            "nodes": args.nodes,
            "workload": trace.name,
            "jobs": len(trace),
            "summaries": [s.as_dict() for s in summaries],
        }
        if resilience is not None:
            payload["resilience"] = {
                strategy: report.as_dict() if report is not None else None
                for strategy, report in zip(strategies, reports)
            }
        print(format_json(payload))
        return 0
    print(format_comparison(summaries, baseline=args.baseline))
    if resilience is not None:
        rows = [
            {"strategy": strategy, **report.as_dict()}
            for strategy, report in zip(strategies, reports)
            if report is not None
        ]
        if rows:
            print()
            print(format_table(rows, title="resilience"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import experiments as exp

    experiment_id = args.id.lower()
    if experiment_id == "list":
        for eid in exp.experiment_ids():
            parallel = " (supports --workers)" if eid in exp.PARALLEL_EXPERIMENTS else ""
            doc = (exp.EXPERIMENT_REGISTRY[eid].__doc__ or "").strip()
            first_line = doc.splitlines()[0] if doc else ""
            print(f"{eid:>4}  {first_line}{parallel}")
        return 0
    driver = exp.EXPERIMENT_REGISTRY.get(experiment_id)
    if driver is None:
        print(
            f"unknown experiment {args.id!r}; choose from "
            f"{exp.experiment_ids()}",
            file=sys.stderr,
        )
        return 2
    kwargs = {}
    if args.workers > 1 and experiment_id in exp.PARALLEL_EXPERIMENTS:
        kwargs["workers"] = args.workers
    output = driver(**kwargs)
    if args.json:
        print(format_json({
            "command": "experiment",
            "experiment": output.experiment,
            "rows": output.rows,
        }))
        return 0
    print(output.text)
    return 0


def _campaign_settings_from_args(args: argparse.Namespace) -> dict[str, object]:
    """Execution settings in manifest form (what ``resume`` re-reads)."""
    return {
        "workers": args.workers,
        "timeout": args.timeout,
        "retries": args.retries,
        "backoff": args.backoff,
        "quarantine_after": args.quarantine_after,
        "bundle_dir": args.bundle_dir,
        "snapshot_dir": args.snapshot_dir,
        "snapshot_every": args.snapshot_every,
        "rss_budget_mb": args.rss_budget_mb,
        "disk_min_free_mb": args.disk_min_free_mb,
        "telemetry": bool(args.telemetry),
    }


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec

    try:
        if args.spec:
            spec = CampaignSpec.from_file(args.spec)
        else:
            spec = CampaignSpec(
                name=args.name,
                jobs=args.jobs,
                strategies=tuple(args.strategies)
                if args.strategies else ("easy_backfill", "shared_backfill"),
                seeds=tuple(args.seeds),
                loads=tuple(args.loads),
                share_fractions=tuple(args.share_fractions),
                share_thresholds=tuple(args.thresholds),
                cluster_sizes=tuple(args.sizes),
                experiments=tuple(args.experiments) if args.experiments else (),
            )
    except ReproError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    store_dir = Path(args.store) if args.store else Path("campaign_runs") / spec.name
    settings = _campaign_settings_from_args(args)
    if args.join:
        settings["queue"] = True
    return _execute_campaign(
        spec,
        store_dir,
        settings,
        quiet=args.quiet,
        progress_log=args.progress_log,
        jsonl=args.jsonl,
        no_jsonl=args.no_jsonl,
    )


def _usage_error(command: str, message: str, *, kind: str = "ConfigError") -> int:
    """Structured one-line JSON usage/config error on stderr, exit 2.

    The shape matches :func:`_structured_error` (plus the originating
    command) so scripted callers parse one format for every failure.
    """
    print(
        json.dumps(
            {"command": command, "error": kind, "message": message},
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return 2


def _cmd_resume(args: argparse.Namespace) -> int:
    from typing import Mapping as _Mapping

    from repro.campaign import CampaignSpec, ResultStore

    store_dir = Path(args.store)
    if not store_dir.is_dir():
        return _usage_error("resume", f"no such store {store_dir}")
    try:
        manifest = ResultStore(store_dir).read_manifest()
    except ReproError as exc:
        return _usage_error("resume", str(exc), kind=type(exc).__name__)
    settings_raw = manifest.get("settings", {})
    if not isinstance(settings_raw, _Mapping):
        return _usage_error(
            "resume",
            f"store manifest {store_dir / '.campaign.json'} has a "
            f"malformed settings section "
            f"({type(settings_raw).__name__}, expected object)",
        )
    settings = dict(settings_raw)
    if settings.get("queue") and not manifest.get("spec"):
        # A replay fan-out store: the queue items carry absolute paths
        # that only the original command knows how to regenerate.
        return _usage_error(
            "resume",
            "this store is a replay fan-out; re-run the original "
            "`repro replay-trace --strategies ...` command "
            "(completed chains are cached)",
        )
    try:
        spec = CampaignSpec.from_dict(manifest["spec"])  # type: ignore[arg-type]
    except (ReproError, KeyError, TypeError) as exc:
        return _usage_error("resume", str(exc), kind=type(exc).__name__)
    if args.workers > 0:
        settings["workers"] = args.workers
    if args.telemetry:
        settings["telemetry"] = True
    print(f"resuming campaign {spec.name!r} from {store_dir}", file=sys.stderr)
    return _execute_campaign(
        spec,
        store_dir,
        settings,
        quiet=args.quiet,
        progress_log=args.progress_log,
        jsonl="",
        no_jsonl=args.no_jsonl,
    )


class _Executed(NamedTuple):
    """What a campaign executor hands the shared report."""

    #: Stored records of the campaign's runs, in campaign order.
    records: list
    #: The executor's own status line (stdout).
    status: str
    #: Its FAILED, QUARANTINED and SUSPENDED lines (stderr).
    notes: list[str]
    #: ``drained``, ``suspended`` or ``stalled``.
    end: str
    #: Some run failed or was quarantined.
    casualties: bool


def _execute_campaign(
    spec,
    store_dir: Path,
    settings: dict[str, object],
    *,
    quiet: bool,
    progress_log: str,
    jsonl: str,
    no_jsonl: bool,
) -> int:
    """The one campaign front end behind ``campaign`` and ``resume``.

    ``settings["queue"]`` (``--join``, or a store recorded with it) is
    the one choice of executor: the durable queue drained by warm
    workers, else the runner's process pool.  Everything else is
    shared: the settings reader (``queue_config_from_settings``), the
    ``results.jsonl`` export, the results table, the Ctrl-C message
    and the exit codes.
    """
    from repro.campaign import ResultStore
    from repro.campaign.queue import queue_config_from_settings

    try:
        runs = spec.expand()
    except ReproError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    store = ResultStore(store_dir)
    config = queue_config_from_settings(settings, store_dir)
    # A queue manifest records no worker count, so a resumed drain
    # sizes its fleet to this host.
    workers = int(settings.get("workers", os.cpu_count() or 1) or 1)  # type: ignore[arg-type]
    resume = f"`repro resume {store_dir}` continues it"
    execute = _campaign_queue if settings.get("queue") else _campaign_pool
    ran = execute(
        spec, store, runs, settings, config, workers,
        quiet=quiet, progress_log=progress_log, resume=resume,
    )
    if isinstance(ran, int):
        return ran
    if not no_jsonl:
        jsonl_path = Path(jsonl) if jsonl else store_dir / "results.jsonl"
        written = store.export_jsonl(jsonl_path, run_ids=[r.run_id for r in runs])
        print(f"results: {written} records -> {jsonl_path}", file=sys.stderr)
    grid_rows = []
    experiment_lines = []
    for record in ran.records:
        payload = record["result"]
        params = record["params"]
        if payload["kind"] == "simulate":
            workload = params.get("workload", {})
            scheduler = params.get("config", {})
            summary = payload["summary"]
            grid_rows.append({
                "run": record["run_id"][:8],
                "strategy": payload["strategy"],
                "nodes": payload["num_nodes"],
                "seed": workload.get("seed", ""),
                "load": workload.get("offered_load", ""),
                "theta": scheduler.get("share_threshold", ""),
                "makespan_h": summary["makespan_h"],
                "comp_eff": summary["comp_eff"],
                "mean_wait_h": summary["mean_wait_h"],
                "shared_nodes": summary["shared_nodes"],
            })
        else:
            experiment_lines.append(
                f"{payload['experiment']}: {len(payload['rows'])} rows "
                f"({record['run_id']}.json)"
            )
    if grid_rows:
        print(format_table(grid_rows, title=f"campaign: {spec.name}"))
    for line in experiment_lines:
        print(line)
    print(ran.status)
    return _conclude(ran, runs, store_dir, what="campaign", resume=resume)


def _campaign_pool(
    spec, store, runs, settings, config, workers, *, quiet, progress_log,
    resume,
) -> _Executed | int:
    """``repro campaign``'s executor: the runner's process pool, which
    owns the store (its lock) while it runs."""
    from repro.campaign import CampaignRunner
    from repro.campaign.progress import JsonlProgressLog, tee
    from repro.errors import ConfigError
    from repro.snapshot import ResourceGuards

    sinks = []
    if not quiet:
        sinks.append(lambda event: print(event.render(), file=sys.stderr))
    if progress_log:
        sinks.append(JsonlProgressLog(progress_log))
    timeout = config["deadline_s"]
    rss_budget = config["rss_budget_mb"]
    disk_min_free = config["disk_min_free_mb"]
    quarantine_after = int(settings.get("quarantine_after", 2) or 0)
    try:
        guards = None
        if rss_budget > 0 or disk_min_free > 0:
            guards = ResourceGuards(
                rss_budget_mb=rss_budget if rss_budget > 0 else None,
                disk_min_free_mb=disk_min_free if disk_min_free > 0 else None,
                watch_path=store.root,
            )
        # The manifest is what `repro resume <store>` reconstructs the
        # campaign from; refresh it before every execution.
        store.write_manifest(spec.name, spec.to_dict(), settings)
        runner = CampaignRunner(
            store=store,
            workers=workers,
            timeout=timeout if timeout > 0 else None,
            retries=config["retries"],
            backoff=config["backoff"],
            progress=tee(*sinks) if sinks else None,
            quarantine_after=(
                quarantine_after if quarantine_after > 0 else None
            ),
            bundle_dir=config["bundle_dir"],
            snapshot_dir=config["snapshot_dir"],
            snapshot_every=config["snapshot_every"],
            telemetry_dir=config["telemetry_dir"],
            guards=guards,
            install_signal_handlers=True,
        )
    except ReproError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = runner.run(runs)
    except ConfigError as exc:
        # Most prominently: the store's advisory lock is held by a
        # concurrent campaign.
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return _interrupted(store, runs, resume)
    counts = (
        f"{outcome.completed} executed, {outcome.cached} cached, "
        f"{outcome.failed} failed"
    )
    if outcome.quarantined:
        counts += f", {len(outcome.quarantined)} quarantined"
    if outcome.suspended:
        counts += f", {len(outcome.suspended)} suspended"
    status = (
        f"{counts} of {len(runs)} runs "
        f"in {outcome.elapsed_s:.1f}s (workers={workers}, "
        f"store={store.root})"
    )
    notes = [
        f"FAILED {failure.run_id} ({failure.label}) after "
        f"{failure.attempts} attempts: {failure.error}"
        for failure in outcome.failures
    ]
    if outcome.quarantined:
        from repro.diagnostics import write_quarantine_manifest

        manifest = write_quarantine_manifest(
            store.root / "quarantine.json", spec.name, outcome.quarantined
        )
        for poisoned in outcome.quarantined:
            bundle_note = (
                f" (bundle: {poisoned.bundle})" if poisoned.bundle else ""
            )
            notes.append(
                f"QUARANTINED {poisoned.run_id} ({poisoned.label}) "
                f"after {poisoned.incidents} incidents: "
                f"{poisoned.error}{bundle_note}"
            )
        notes.append(f"quarantine manifest: {manifest}")
    for parked in outcome.suspended:
        snap_note = f" (snapshot: {parked.snapshot})" if parked.snapshot else ""
        notes.append(f"SUSPENDED {parked.run_id} ({parked.label}){snap_note}")
    return _Executed(
        outcome.records(),
        status,
        notes,
        "suspended" if outcome.interrupted or outcome.suspended else "drained",
        bool(outcome.failures or outcome.quarantined),
    )


def _campaign_queue(
    spec, store, runs, settings, config, workers, *, quiet, progress_log,
    resume,
) -> _Executed | int:
    """``campaign --join``'s executor: enqueue the runs as durable
    items, then drain them with a warm worker fleet."""
    from repro.campaign.queue import build_queue_store

    # The manifest drops the worker count: the fleet size is a property
    # of each invocation, not of the campaign, so joins with different
    # fleet sizes leave byte-identical stores.
    manifest_settings = {
        key: value for key, value in settings.items() if key != "workers"
    }
    note = None if quiet else (lambda line: print(line, file=sys.stderr))
    try:
        queue, pending = build_queue_store(
            store.root, spec.name, spec.to_dict(), manifest_settings, runs,
            config=config, source="cli",
        )
    except ReproError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    if note:
        note(
            f"queue: {pending} of {len(runs)} runs pending in "
            f"{store.root / '.queue'}"
        )
    return _drain(queue, runs, max(1, workers), note, resume)


def _drain(queue, runs, workers: int, note, resume: str) -> _Executed | int:
    """The queue executor of ``campaign --join`` and ``replay-trace
    --strategies``.

    Drains *queue* with *workers* warm workers under the suspend signal
    handlers, reaps whatever the fleet left leased, and reports the
    stored records, the queue's status line and the FAILED and
    QUARANTINED runs from their terminal documents.  *resume* tells
    the user how to continue a drain cut short.
    """
    from repro.campaign.queue import drain_with_workers
    from repro.snapshot import suspend as _suspend

    store = queue.store
    previous = _suspend.install_signal_handlers()
    try:
        outcome = drain_with_workers(store.root, workers, note=note)
    except KeyboardInterrupt:
        return _interrupted(store, runs, resume)
    finally:
        if previous is not None:
            _suspend.restore_signal_handlers(previous)
    # Final supervisor pass: reap anything the fleet left leased.
    queue.reclaim_stale()
    queue.close_events()
    records = [store.load(r.run_id) for r in runs if store.has(r.run_id)]
    failed = queue.terminal_ids("failed")
    quarantined = queue.terminal_ids("quarantined")
    counts = f"{len(records)} stored, {len(failed)} failed"
    if quarantined:
        counts += f", {len(quarantined)} quarantined"
    notes = []
    for run_id in failed:
        doc = queue.read_terminal("failed", run_id)
        notes.append(
            f"FAILED {run_id} ({doc.get('label', '')}) after "
            f"{doc.get('deliveries', '?')} deliveries: "
            f"{doc.get('error', '')}"
        )
    for run_id in quarantined:
        doc = queue.read_terminal("quarantined", run_id)
        notes.append(
            f"QUARANTINED {run_id} ({doc.get('label', '')}): "
            f"{doc.get('reason', '')}"
        )
    return _Executed(
        records,
        f"{counts} of {len(runs)} runs (queue drain, "
        f"workers={outcome.workers}, respawns={outcome.respawns}, "
        f"store={store.root})",
        notes,
        outcome.status,
        bool(failed or quarantined),
    )


def _interrupted(store, runs, resume: str) -> int:
    """A Ctrl-C past graceful shutdown: say how many runs are stored."""
    done = len(store.completed_ids() & {r.run_id for r in runs})
    print(
        f"\ninterrupted: {done} of {len(runs)} runs stored in "
        f"{store.root}; {resume}",
        file=sys.stderr,
    )
    return EXIT_INTERRUPTED


def _conclude(
    ran: _Executed, runs, store_dir: Path, *, what: str, resume: str
) -> int:
    """Print an executor's notes and how it ended; return its exit code."""
    for line in ran.notes:
        print(line, file=sys.stderr)
    if ran.end == "suspended":
        print(
            f"{what} suspended with {len(runs) - len(ran.records)} runs "
            f"outstanding; {resume}",
            file=sys.stderr,
        )
    elif ran.end == "stalled":
        print(
            f"queue drain stalled (respawn budget exhausted); "
            f"`repro queue status {store_dir}` for the census",
            file=sys.stderr,
        )
    return _exit_status(
        ran.end, casualties=ran.casualties, stored=bool(ran.records)
    )


def _exit_status(end: str, *, casualties: bool, stored: bool) -> int:
    """The documented exit code of a campaign, fan-out or replay that
    ended *end* (``drained``, ``suspended`` or ``stalled``)."""
    if end == "suspended":
        return EXIT_SUSPENDED
    if end == "stalled":
        return 1
    if casualties:
        # Partial success (some results, some casualties) is
        # distinguishable from total failure for calling scripts.
        return EXIT_PARTIAL if stored else 1
    return 0


def _render_queue_status(status: dict, *, as_json: bool, watching: bool) -> None:
    if as_json:
        if watching:
            # One compact JSON object per refresh — a parseable stream.
            print(json.dumps(status, sort_keys=True), flush=True)
        else:
            print(format_json(status))
        return
    heartbeat = (
        f", oldest heartbeat {status['heartbeat_age_max_s']:.1f}s"
        f"{' (' + str(status['stale']) + ' stale)' if status['stale'] else ''}"
        if status.get("leased")
        else ""
    )
    print(
        f"queue {status['store']}: {status['pending']} pending "
        f"({status['claimable']} claimable), {status['leased']} leased, "
        f"{status['completed']} completed, {status['failed']} failed, "
        f"{status['quarantined']} quarantined{heartbeat}",
        flush=True,
    )
    for lease in status["leases"]:
        mark = " STALE" if lease["stale"] else ""
        print(
            f"  lease {lease['run_id']}: held by "
            f"{lease['pid']}@{lease['host']} token {lease['token']} "
            f"(heartbeat {lease['heartbeat_age_s']:.1f}s ago){mark}"
        )


def _cmd_queue_status(args: argparse.Namespace) -> int:
    import time as _time

    from repro.campaign.queue import WorkQueue
    from repro.errors import ConfigError

    store_dir = Path(args.store)
    if not _require_queue(store_dir):
        return 2
    queue = WorkQueue(store_dir)
    watching = args.watch > 0
    while True:
        try:
            status = queue.status()
        except ConfigError as exc:
            print(f"queue error: {exc}", file=sys.stderr)
            return 2
        _render_queue_status(status, as_json=args.json, watching=watching)
        # This census is the same WorkQueue.status() codepath the
        # service's /readyz aggregates — one source of truth.
        if not watching:
            return 0
        if not status["pending"] and not status["leased"]:
            return 0
        _time.sleep(args.watch)


def _cmd_queue_work(args: argparse.Namespace) -> int:
    from repro.campaign.queue import QueueWorker
    from repro.errors import ConfigError

    store_dir = Path(args.store)
    if not _require_queue(store_dir):
        return 2
    note = (
        None if args.quiet else (lambda line: print(line, file=sys.stderr))
    )
    try:
        worker = QueueWorker(
            store_dir, install_signal_handlers=True, note=note
        )
        outcome = worker.drain()
    except ConfigError as exc:
        print(f"queue error: {exc}", file=sys.stderr)
        return 2
    print(
        f"worker {os.getpid()}: {outcome.completed} completed, "
        f"{outcome.failed} failed, {outcome.quarantined} quarantined, "
        f"{outcome.requeued} requeued, {outcome.fenced} fenced "
        f"({outcome.status})",
        file=sys.stderr,
    )
    return outcome.exit_code


def _require_queue(store_dir: Path) -> bool:
    from repro.campaign.queue import has_queue

    if has_queue(store_dir):
        return True
    print(
        f"queue error: {store_dir} has no work queue "
        f"(`repro campaign --join` creates one)",
        file=sys.stderr,
    )
    return False


def _cmd_queue_metrics(args: argparse.Namespace) -> int:
    from repro.observability.events import fleet_metrics, render_prometheus

    store_dir = Path(args.store)
    if not _require_queue(store_dir):
        return 2
    doc = fleet_metrics(store_dir)
    if args.json:
        print(format_json(doc))
    else:
        sys.stdout.write(render_prometheus(doc))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.campaign.queue import WorkQueue
    from repro.observability.events import fleet_metrics
    from repro.observability.top import ANSI_REDRAW, render_dashboard

    # One chained comparison also rejects NaN and inf; a day caps the
    # value below what time.sleep() can take.
    if not 0 < args.interval <= 86400:
        print(
            "top error: --interval must be above 0 and at most 86400 "
            f"seconds, got {args.interval}",
            file=sys.stderr,
        )
        return 2
    store_dir = Path(args.store)
    if not _require_queue(store_dir):
        return 2
    queue = WorkQueue(store_dir)
    single = args.once or args.json
    while True:
        census = queue.status()
        doc = fleet_metrics(store_dir, census=census)
        if args.json:
            print(format_json(doc))
        else:
            frame = render_dashboard(doc, title=f"repro top — {store_dir}")
            if not single:
                sys.stdout.write(ANSI_REDRAW)
            sys.stdout.write(frame)
            sys.stdout.flush()
        drained = not census["pending"] and not census["leased"]
        if single or drained:
            return 0
        _time.sleep(args.interval)


def _cmd_trace_stitched(args: argparse.Namespace) -> int:
    from repro.observability import stitch_store, validate_trace, write_trace

    if not args.record:
        print(
            "trace error: --stitched needs a store directory "
            "(the positional argument)",
            file=sys.stderr,
        )
        return 2
    store_dir = Path(args.record)
    if not _require_queue(store_dir):
        return 2
    document = stitch_store(store_dir)
    spans = [
        e for e in document["traceEvents"] if e.get("ph") == "X"
    ]
    if not spans:
        print(
            f"trace error: no fleet events recorded under "
            f"{store_dir / '.queue' / 'metrics'} (was the queue drained "
            f"with metrics disabled?)",
            file=sys.stderr,
        )
        return 1
    problems = validate_trace(document)
    if problems:
        print(
            f"trace error: stitched document failed validation: "
            f"{problems[:3]}",
            file=sys.stderr,
        )
        return 1
    out = write_trace(args.out, document)
    superseded = sum(
        1 for e in spans if e.get("args", {}).get("superseded")
    )
    print(
        f"stitched trace: {len(spans)} spans ({superseded} superseded) "
        f"across {len(document['otherData']['traces'])} submission "
        f"trace(s) -> {out}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.diagnostics import load_bundle, replay_bundle

    bundle = load_bundle(args.bundle)
    report = replay_bundle(bundle)
    if args.json:
        print(format_json(report.as_dict()))
    else:
        print(report.render())
    return 0 if report.reproduced else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability import TelemetryConfig, perfetto_trace, write_trace

    if args.stitched:
        return _cmd_trace_stitched(args)
    if args.record:
        record_path = Path(args.record)
        try:
            record = json.loads(record_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"trace error: cannot read {record_path}: {exc}",
                  file=sys.stderr)
            return 2
        params = record.get("params") if isinstance(record, dict) else None
        if not isinstance(params, dict) or params.get("kind") != "simulate":
            print(
                f"trace error: {record_path} is not a campaign 'simulate' "
                f"run record",
                file=sys.stderr,
            )
            return 2
        # Deterministic re-execution: same params -> the exact schedule
        # the campaign stored, now with the decision trace armed.
        from repro.slurm.entry import _build_trace as build_campaign_trace

        strategy = str(params["strategy"])
        num_nodes = int(params["num_nodes"])
        config = SchedulerConfig(
            strategy=strategy, **dict(params.get("config", {}))
        )
        trace = build_campaign_trace(params["workload"])
    else:
        strategy = args.strategy
        num_nodes = args.nodes
        config = SchedulerConfig(
            strategy=strategy, share_threshold=args.threshold
        )
        trace = _build_trace(args)
    config.telemetry = TelemetryConfig(enabled=True)
    manager = build_manager(
        trace, num_nodes=num_nodes, strategy=strategy, config=config
    )
    result = manager.run()
    document = perfetto_trace(result, manager.decisions)
    out = write_trace(args.out, document)
    print(
        f"trace: {len(document['traceEvents'])} events "
        f"({strategy}, {num_nodes} nodes) -> {out}"
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.archive import synth_swf
    from repro.errors import ConfigError

    try:
        result = synth_swf(
            args.out,
            jobs=args.jobs,
            nodes=args.nodes,
            seed=args.seed,
            load=args.load,
            share_fraction=args.share_fraction,
            cores_per_node=args.cores,
        )
    except ConfigError as exc:
        print(f"synth error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(format_json(result.as_dict()))
    else:
        print(
            f"synthesised {result.jobs} jobs over {result.span_s / 3600:.1f}h "
            f"({result.nodes} nodes, seed {result.seed}) -> {result.path}"
        )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.archive import ingest_swf, load_archive

    try:
        result = ingest_swf(
            args.swf,
            args.out,
            window_jobs=args.window_jobs,
            chunk_jobs=args.chunk_jobs,
            cores_per_node=args.cores,
            mode=args.mode,
            max_procs=args.max_procs if args.max_procs > 0 else None,
            max_jobs=args.max_jobs if args.max_jobs > 0 else None,
        )
    except OSError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        document = result.as_dict()
        document["windows_detail"] = load_archive(args.out).windows
        print(format_json(document))
    else:
        print(
            f"ingested {result.jobs} jobs into {result.windows} windows "
            f"({result.quarantined} quarantined) -> {result.out_dir} "
            f"[archive {result.archive_id}]"
        )
    return 0


def _replay_trace_fanout(args: argparse.Namespace) -> int:
    """``replay-trace --strategies a b c``: each per-strategy window
    chain becomes one durable queue item (the chain's windows stay
    serial — a correctness requirement — while the independent
    strategies drain in parallel across the worker fleet)."""
    from repro.archive import load_archive
    from repro.campaign.queue import build_queue_store
    from repro.campaign.spec import RunSpec
    from repro.errors import ConfigError

    store_dir = Path(args.store)
    try:
        archive = load_archive(args.archive)
    except ConfigError as exc:
        print(f"replay-trace error: {exc}", file=sys.stderr)
        return 2
    config: dict[str, object] = {}
    if args.backfill_interval > 0:
        config["backfill_interval"] = float(args.backfill_interval)
    if args.threshold != 1.1:
        config["share_threshold"] = float(args.threshold)
    strategies = list(dict.fromkeys(args.strategies))
    runs = []
    extras: dict[str, dict[str, object]] = {}
    for strategy in strategies:
        params: dict[str, object] = {
            "kind": "replay_chain",
            "archive_id": archive.archive_id,
            "strategy": strategy,
            "num_nodes": int(args.nodes),
            "windows": len(archive),
        }
        if config:
            params["config"] = dict(config)
        run = RunSpec.from_params(params)
        runs.append(run)
        # Absolute paths ride outside the content hash: the chain's
        # identity is the archive id + plan, not where it lives.
        extras[run.run_id] = {
            "archive_dir": str(Path(args.archive).resolve()),
            "store_dir": str((store_dir / strategy).resolve()),
        }
    note = (
        None if args.quiet else (lambda line: print(line, file=sys.stderr))
    )
    try:
        queue, pending = build_queue_store(
            store_dir, f"replay-fanout:{archive.name}", None,
            {"queue": True, "kind": "replay_fanout"}, runs,
            config={
                "retries": 0,
                "rss_budget_mb": float(args.rss_budget_mb or 0.0),
                "telemetry_dir": (
                    str(store_dir / "telemetry") if args.telemetry else None
                ),
            },
            extras=extras,
        )
    except ConfigError as exc:
        print(f"replay-trace error: {exc}", file=sys.stderr)
        return 2
    workers = (
        args.workers if args.workers > 0
        else min(len(strategies), max(1, os.cpu_count() or 1))
    )
    if note:
        note(
            f"fanout: {pending} strategy chains pending "
            f"({len(archive)} windows each), {workers} workers"
        )

    resume = (
        "re-run the same command to continue it (completed windows "
        "stay cached per strategy)"
    )
    ran = _drain(queue, runs, workers, note, resume)
    if isinstance(ran, int):
        return ran
    rows = []
    for record in ran.records:
        payload = record["result"]
        stitched = payload.get("stitched", {})
        rows.append({
            "strategy": payload["strategy"],
            "windows": payload["windows"],
            "jobs": stitched.get("jobs", ""),
            "completed": stitched.get("completed", ""),
            "makespan_h": round(
                float(stitched.get("makespan_s", 0.0)) / 3600, 2
            ),
            "mean_wait_h": round(
                float(stitched.get("mean_wait_s", 0.0)) / 3600, 3
            ),
            "store": str(store_dir / str(payload["strategy"])),
        })
    if args.json:
        print(format_json({
            "archive": archive.archive_id,
            "strategies": strategies,
            "status": ran.end,
            "chains": rows,
        }))
    elif rows:
        print(format_table(rows, title=f"replay fanout: {archive.name}"))
    return _conclude(ran, runs, store_dir, what="fanout", resume=resume)


def _cmd_replay_trace(args: argparse.Namespace) -> int:
    from repro.archive import replay_archive
    from repro.errors import ConfigError
    from repro.snapshot import ResourceGuards

    if args.strategies:
        return _replay_trace_fanout(args)
    store_dir = Path(args.store)
    guards = None
    if args.rss_budget_mb > 0:
        store_dir.mkdir(parents=True, exist_ok=True)
        guards = ResourceGuards(
            rss_budget_mb=args.rss_budget_mb,
            watch_path=store_dir,
        )
    config: dict[str, object] = {}
    if args.backfill_interval > 0:
        config["backfill_interval"] = float(args.backfill_interval)
    if args.threshold != 1.1:
        config["share_threshold"] = float(args.threshold)
    progress = (
        None
        if args.quiet
        else (lambda event: print(event.render(), file=sys.stderr))
    )
    try:
        outcome = replay_archive(
            args.archive,
            store_dir,
            strategy=args.strategy,
            num_nodes=args.nodes,
            config=config or None,
            guards=guards,
            progress=progress,
            telemetry_dir=(store_dir / "telemetry" if args.telemetry else None),
            install_signal_handlers=True,
        )
    except ConfigError as exc:
        print(f"replay-trace error: {exc}", file=sys.stderr)
        return 2
    campaign = outcome.campaign
    if args.json:
        print(format_json({
            "chain": outcome.chain,
            "columnar": str(outcome.columnar),
            "windows": len(campaign.order),
            "executed": campaign.completed,
            "cached": campaign.cached,
            "failed": campaign.failed,
            "stitched": outcome.stitched,
        }))
    else:
        print(
            f"replayed {len(campaign.order)} windows "
            f"({campaign.completed} executed, {campaign.cached} cached, "
            f"{campaign.failed} failed) in {campaign.elapsed_s:.1f}s "
            f"[chain {outcome.chain}]"
        )
        if outcome.stitched is not None:
            s = outcome.stitched
            print(
                f"stitched: {s['jobs']} jobs, {s['completed']} completed, "
                f"makespan {float(s['makespan_s']) / 3600:.1f}h, "
                f"mean wait {float(s['mean_wait_s']) / 3600:.2f}h "
                f"(`repro stats {store_dir}` for detail)"
            )
    for failure in campaign.failures:
        print(
            f"FAILED {failure.run_id} ({failure.label}): {failure.error}",
            file=sys.stderr,
        )
    suspended = campaign.interrupted or bool(campaign.suspended)
    if suspended:
        print(
            f"replay suspended; re-run the same command to continue "
            f"(completed windows are cached in {store_dir})",
            file=sys.stderr,
        )
    return _exit_status(
        "suspended" if suspended else "drained",
        casualties=bool(campaign.failures),
        stored=bool(campaign.completed or campaign.cached),
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.observability.stats import aggregate_store

    fmt = "json" if args.json else args.format
    try:
        document = aggregate_store(args.store)
    except ConfigError as exc:
        print(f"stats error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        print(format_json(document))
        return 0
    columnar = document["backend"] == "columnar"
    rows = document["windows" if columnar else "strategies"]
    if fmt == "csv":
        import csv

        if rows:
            writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return 0
    # table
    if columnar:
        if rows:
            print(format_table(rows, title=f"replay store: {args.store}"))
        summary = document.get("summary", {})
        if isinstance(summary, dict):
            line = (
                f"{summary.get('jobs', 0)} jobs "
                f"({summary.get('completed', 0)} completed, "
                f"{summary.get('timeouts', 0)} timeouts) over "
                f"{int(summary.get('windows', 0))} windows; "
                f"makespan {float(summary.get('makespan_s', 0.0)) / 3600:.1f}h, "
                f"mean wait {float(summary.get('mean_wait_s', 0.0)) / 3600:.2f}h"
            )
            strategy = document.get("strategy")
            if strategy:
                line += f" [{strategy}]"
            print(line)
        return 0
    if rows:
        print(format_table(rows, title=f"campaign store: {args.store}"))
    counts = (
        f"{document['runs']} runs ({document['experiments']} experiments), "
        f"{document['quarantined']} quarantined"
    )
    telemetry = document.get("telemetry")
    if isinstance(telemetry, dict):
        exec_info = telemetry.get("exec", {})
        counts += (
            f"; telemetry: {telemetry.get('runs', 0)} sidecars, "
            f"{float(exec_info.get('wall_clock_s', 0.0)):.1f}s wall-clock, "
            f"{int(exec_info.get('resume_count', 0))} resumes"
        )
    print(counts)
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.faultinject.fsck import fsck_path

    try:
        report = fsck_path(args.store, repair=args.repair)
    except ConfigError as exc:
        print(f"fsck error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True, indent=1))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.service import ServiceConfig
    from repro.service.server import serve_main

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        accept_backlog=args.accept_backlog,
        max_streams=args.max_streams,
        deadline_s=args.deadline_s,
        heartbeat_s=args.heartbeat_s,
        retry_after_s=args.retry_after,
        workers=args.workers,
        drain_grace_s=args.drain_grace_s,
    )
    if args.drive and config.workers < 1:
        # Drive mode streams to completion, which needs an executor.
        config = dataclasses.replace(config, workers=1)
    return serve_main(
        Path(args.root), config, drive_spec=args.drive, quiet=args.quiet
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.faultinject.chaos import default_chaos_dir, run_chaos

    work_dir = args.dir or default_chaos_dir()
    if args.workload == "both":
        workloads = ["campaign", "replay"]
    elif args.workload == "all":
        workloads = ["campaign", "replay", "queue", "serve"]
    else:
        workloads = [args.workload]
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr)
    )
    reports = []
    try:
        for workload in workloads:
            reports.append(run_chaos(
                work_dir,
                workload=workload,
                workers=args.workers,
                failpoints=args.failpoints or None,
                progress=progress,
            ))
    except ConfigError as exc:
        print(f"chaos error: {exc}", file=sys.stderr)
        return 2
    finally:
        if not args.keep and not args.dir:
            import shutil

            shutil.rmtree(work_dir, ignore_errors=True)
    if args.json:
        print(json.dumps(
            {"work_dir": work_dir, "sweeps": [r.as_dict() for r in reports]},
            sort_keys=True, indent=1,
        ))
    else:
        for report in reports:
            print(report.render())
        if args.keep or args.dir:
            print(f"work dir kept: {work_dir}")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.analysis import experiments as exp

    print(exp.e2_pairing_matrix().text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Node-sharing batch-scheduling reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one strategy")
    _add_workload_args(p_run)
    _add_resilience_args(p_run)
    p_run.add_argument(
        "--strategy", choices=all_strategy_names(), default="shared_backfill"
    )
    p_run.add_argument("--threshold", type=float, default=1.1,
                       help="pairing compatibility threshold")
    p_run.add_argument("--sacct", type=int, default=0, metavar="N",
                       help="print the first N accounting rows")
    p_run.add_argument("--gantt", type=int, default=0, metavar="ROWS",
                       help="render an ASCII gantt chart over ROWS nodes")
    p_run.add_argument("--json", action="store_true",
                       help="machine-readable JSON instead of tables")
    _add_diagnostics_args(p_run)
    _add_telemetry_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_inspect = sub.add_parser(
        "inspect", help="characterise a workload without simulating it"
    )
    _add_workload_args(p_inspect)
    p_inspect.set_defaults(func=_cmd_inspect)

    p_cmp = sub.add_parser("compare", help="compare strategies on one trace")
    _add_workload_args(p_cmp)
    _add_resilience_args(p_cmp)
    p_cmp.add_argument("--strategies", nargs="*", choices=all_strategy_names())
    p_cmp.add_argument("--baseline", default="easy_backfill")
    p_cmp.add_argument("--json", action="store_true",
                       help="machine-readable JSON instead of tables")
    p_cmp.set_defaults(func=_cmd_compare)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artefact")
    p_exp.add_argument("id", help="experiment id (e1..e24), or 'list'")
    p_exp.add_argument("--workers", type=int, default=1,
                       help="parallelise sweep experiments "
                            "(e8/e10/e15/e19/e21/e22)")
    p_exp.add_argument("--json", action="store_true",
                       help="emit the experiment's data rows as JSON")
    p_exp.set_defaults(func=_cmd_experiment)

    p_camp = sub.add_parser(
        "campaign",
        help="execute a parallel, resumable, cached campaign of runs",
    )
    p_camp.add_argument("--spec", default="",
                        help="JSON campaign spec file (overrides grid flags)")
    p_camp.add_argument("--name", default="campaign",
                        help="campaign name (store subdirectory)")
    p_camp.add_argument("--jobs", type=int, default=400,
                        help="jobs per generated workload")
    p_camp.add_argument("--strategies", nargs="*",
                        choices=all_strategy_names(),
                        help="grid axis (default: easy_backfill shared_backfill)")
    p_camp.add_argument("--seeds", nargs="*", type=int, default=[7],
                        help="grid axis: workload seeds")
    p_camp.add_argument("--loads", nargs="*", type=float, default=[1.5],
                        help="grid axis: offered loads")
    p_camp.add_argument("--share-fractions", nargs="*", type=float,
                        default=[0.85], help="grid axis: shareable fractions")
    p_camp.add_argument("--thresholds", nargs="*", type=float, default=[1.1],
                        help="grid axis: pairing thresholds")
    p_camp.add_argument("--sizes", nargs="*", type=int, default=[128],
                        help="grid axis: cluster sizes")
    p_camp.add_argument("--experiments", nargs="*", default=[],
                        help="named experiment refs (e1..e24, or 'all')")
    p_camp.add_argument("--workers", type=int,
                        default=max(1, os.cpu_count() or 1),
                        help="worker processes (1 = serial fallback)")
    p_camp.add_argument("--store", default="",
                        help="artifact store dir (default campaign_runs/<name>)")
    p_camp.add_argument("--timeout", type=float, default=0.0,
                        help="per-run timeout seconds (0 = none)")
    p_camp.add_argument("--retries", type=int, default=2,
                        help="extra attempts per failed run")
    p_camp.add_argument("--backoff", type=float, default=0.5,
                        help="base seconds of exponential retry backoff")
    p_camp.add_argument("--jsonl", default="",
                        help="results JSONL path (default <store>/results.jsonl)")
    p_camp.add_argument("--no-jsonl", action="store_true",
                        help="skip writing the results JSONL file")
    p_camp.add_argument("--progress-log", default="",
                        help="append progress events as JSONL to this file")
    p_camp.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")
    p_camp.add_argument("--quarantine-after", type=int, default=2,
                        help="isolate a run after N worker crashes / "
                             "watchdog trips (0 = never quarantine)")
    p_camp.add_argument("--bundle-dir", default="",
                        help="replay bundle directory "
                             "(default <store>/bundles)")
    p_camp.add_argument("--snapshot-dir", default="",
                        help="simulator snapshot directory "
                             "(default <store>/snapshots)")
    p_camp.add_argument("--snapshot-every", default="60",
                        help="periodic snapshot trigger: seconds "
                             "('60', '2.5s') or events ('5000e'); "
                             "'0' leaves only suspension snapshots")
    p_camp.add_argument("--rss-budget-mb", type=float, default=0.0,
                        help="suspend a worker's run when its RSS "
                             "exceeds this budget (0 = off)")
    p_camp.add_argument("--disk-min-free-mb", type=float, default=0.0,
                        help="pause dispatch while free space under "
                             "the store is below this (0 = off)")
    p_camp.add_argument("--telemetry", action="store_true",
                        help="write per-run telemetry sidecars under "
                             "<store>/telemetry for `repro stats` to "
                             "merge (results stay byte-identical)")
    p_camp.add_argument("--join", action="store_true",
                        help="drain through the durable work queue under "
                             "<store>/.queue: --workers cooperating "
                             "processes claim per-run leases; extra "
                             "`repro queue work <store>` workers may "
                             "join at any time")
    p_camp.set_defaults(func=_cmd_campaign)

    p_queue = sub.add_parser(
        "queue",
        help="inspect or drain a store's durable work queue",
    )
    queue_sub = p_queue.add_subparsers(dest="queue_command", required=True)
    p_qstat = queue_sub.add_parser(
        "status", help="print the queue's item/lease census"
    )
    p_qstat.add_argument("store", help="a --join campaign's store directory")
    p_qstat.add_argument("--json", action="store_true",
                         help="machine-readable census")
    p_qstat.add_argument("--watch", type=float, default=0.0,
                         metavar="SECONDS",
                         help="refresh the census every SECONDS until "
                              "the queue drains (with --json: one "
                              "compact JSON object per refresh)")
    p_qstat.set_defaults(func=_cmd_queue_status)
    p_qwork = queue_sub.add_parser(
        "work", help="run one cooperative drain worker on a store"
    )
    p_qwork.add_argument("store", help="a --join campaign's store directory")
    p_qwork.add_argument("--quiet", action="store_true",
                         help="suppress per-run progress lines")
    p_qwork.set_defaults(func=_cmd_queue_work)
    p_qmetrics = queue_sub.add_parser(
        "metrics",
        help="render the fleet event sidecars as Prometheus text "
             "(the offline twin of the server's GET /metrics)",
    )
    p_qmetrics.add_argument("store",
                            help="a --join campaign's store directory")
    p_qmetrics.add_argument("--json", action="store_true",
                            help="raw aggregate document instead of "
                                 "Prometheus text")
    p_qmetrics.set_defaults(func=_cmd_queue_metrics)

    p_top = sub.add_parser(
        "top",
        help="live fleet dashboard over one store (workers, leases, "
             "throughput, drain ETA)",
    )
    p_top.add_argument("store", help="a --join campaign's store directory")
    p_top.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="refresh period, up to 86400 (default 1s); "
                            "exits when the queue drains")
    p_top.add_argument("--once", action="store_true",
                       help="print a single frame and exit")
    p_top.add_argument("--json", action="store_true",
                       help="print one frame document as JSON and exit")
    p_top.set_defaults(func=_cmd_top)

    p_serve = sub.add_parser(
        "serve",
        help="serve campaign submissions over HTTP (idempotent submit, "
             "SSE progress, admission control)",
    )
    p_serve.add_argument("--root", default="service_runs",
                         help="service root directory (submissions, "
                              "idempotency keys, per-submission stores)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address")
    p_serve.add_argument("--port", type=int, default=8177,
                         help="bind port (0 = ephemeral; the actual "
                              "port lands in <root>/service.json)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="drain worker subprocesses to supervise "
                              "across submission stores (0 = serve "
                              "only; run `repro queue work` fleets "
                              "yourself)")
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         help="concurrent request handlers before "
                              "admission queues")
    p_serve.add_argument("--accept-backlog", type=int, default=16,
                         help="requests allowed to wait for a handler "
                              "slot; beyond this the server sheds "
                              "with 429 + Retry-After")
    p_serve.add_argument("--max-streams", type=int, default=32,
                         help="open SSE streams allowed at once "
                              "(streams release their admission slot "
                              "once established; this cap bounds them "
                              "instead)")
    p_serve.add_argument("--deadline-s", type=float, default=10.0,
                         help="per-request handler deadline (503 on "
                              "expiry; durable writes are idempotent, "
                              "a retry resumes them)")
    p_serve.add_argument("--heartbeat-s", type=float, default=5.0,
                         help="SSE heartbeat interval — also the "
                              "half-open connection detection bound")
    p_serve.add_argument("--retry-after", type=float, default=1.0,
                         help="Retry-After seconds handed to shed or "
                              "draining clients")
    p_serve.add_argument("--drain-grace-s", type=float, default=10.0,
                         help="seconds granted to in-flight responses "
                              "and the worker fleet on SIGTERM drain")
    p_serve.add_argument("--drive", default="", metavar="SPEC",
                         help="self-drive harness: submit SPEC (a "
                              "campaign spec JSON file) to this server "
                              "twice under one idempotency key, stream "
                              "progress to completion, fetch results, "
                              "then exit (chaos/CI)")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress serve progress lines")
    p_serve.set_defaults(func=_cmd_serve)

    p_res = sub.add_parser(
        "resume",
        help="restart a suspended campaign from its result store",
    )
    p_res.add_argument("store", help="the campaign's --store directory")
    p_res.add_argument("--workers", type=int, default=0,
                       help="override the recorded worker count (0 = keep)")
    p_res.add_argument("--progress-log", default="",
                       help="append progress events as JSONL to this file")
    p_res.add_argument("--quiet", action="store_true",
                       help="suppress per-run progress lines")
    p_res.add_argument("--no-jsonl", action="store_true",
                       help="skip rewriting the results JSONL file")
    p_res.add_argument("--telemetry", action="store_true",
                       help="arm telemetry sidecars even if the campaign "
                            "was recorded without them")
    p_res.set_defaults(func=_cmd_resume)

    p_replay = sub.add_parser(
        "replay", help="re-execute a crash replay bundle deterministically"
    )
    p_replay.add_argument("bundle", help="path to a <run_id>.bundle.json file")
    p_replay.add_argument("--json", action="store_true",
                          help="machine-readable replay report")
    p_replay.set_defaults(func=_cmd_replay)

    p_trace = sub.add_parser(
        "trace", help="export a Chrome/Perfetto trace of one run"
    )
    p_trace.add_argument(
        "record", nargs="?", default="",
        help="a stored campaign run record (<store>/<run_id>.json) to "
             "re-execute deterministically; omit to simulate the "
             "workload flags below; with --stitched: a store directory",
    )
    p_trace.add_argument("--stitched", action="store_true",
                         help="stitch the store's fleet event sidecars "
                              "into one distributed campaign trace "
                              "(server/lease/worker lanes) instead of "
                              "re-executing a run")
    p_trace.add_argument("--out", default="trace.json",
                         help="output path (default trace.json)")
    _add_workload_args(p_trace)
    p_trace.add_argument(
        "--strategy", choices=all_strategy_names(), default="shared_backfill"
    )
    p_trace.add_argument("--threshold", type=float, default=1.1,
                         help="pairing compatibility threshold")
    p_trace.set_defaults(func=_cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="aggregate a campaign store (results + telemetry)"
    )
    p_stats.add_argument("store", help="the campaign's --store directory")
    p_stats.add_argument("--json", action="store_true",
                         help="alias for --format json")
    p_stats.add_argument("--format", choices=("table", "json", "csv"),
                         default="table",
                         help="output format (columnar stores stream; "
                              "no per-run JSON is loaded)")
    p_stats.set_defaults(func=_cmd_stats)

    p_synth = sub.add_parser(
        "synth", help="write a seeded synthetic SWF trace"
    )
    p_synth.add_argument("out", help="output .swf path")
    p_synth.add_argument("--jobs", type=int, default=10000,
                         help="jobs to synthesise")
    p_synth.add_argument("--nodes", type=int, default=128,
                         help="cluster size the trace targets")
    p_synth.add_argument("--seed", type=int, default=0,
                         help="generator seed (same seed = same bytes)")
    p_synth.add_argument("--load", type=float, default=0.9,
                         help="offered utilisation the arrivals target")
    p_synth.add_argument("--share-fraction", type=float, default=0.5,
                         help="fraction of jobs in the shareable queue")
    p_synth.add_argument("--cores", type=int, default=1,
                         help="cores per node written to the trace")
    p_synth.add_argument("--json", action="store_true",
                         help="machine-readable JSON summary")
    p_synth.set_defaults(func=_cmd_synth)

    p_ing = sub.add_parser(
        "ingest",
        help="stream an SWF trace into a replayable window archive",
    )
    p_ing.add_argument("swf", help="source SWF file")
    p_ing.add_argument("out", help="archive output directory")
    p_ing.add_argument("--window-jobs", type=int, default=20000,
                       help="target jobs per replay window")
    p_ing.add_argument("--chunk-jobs", type=int, default=8192,
                       help="parser chunk size (memory bound)")
    p_ing.add_argument("--cores", type=int, default=1,
                       help="cores per node (SWF processor conversion)")
    p_ing.add_argument("--mode", choices=("strict", "lenient"),
                       default="lenient",
                       help="lenient quarantines malformed records")
    p_ing.add_argument("--max-procs", type=int, default=0,
                       help="quarantine jobs above this processor count "
                            "(0 = no limit)")
    p_ing.add_argument("--max-jobs", type=int, default=0,
                       help="stop after this many admitted jobs (0 = all)")
    p_ing.add_argument("--json", action="store_true",
                       help="machine-readable JSON summary")
    p_ing.set_defaults(func=_cmd_ingest)

    p_rt = sub.add_parser(
        "replay-trace",
        help="replay an ingested archive window by window",
    )
    p_rt.add_argument("archive", help="ingested archive directory")
    p_rt.add_argument("--store", required=True,
                      help="replay store directory (columnar records, "
                           "boundary snapshots, stitched summary)")
    p_rt.add_argument(
        "--strategy", choices=all_strategy_names(), default="easy_backfill"
    )
    p_rt.add_argument("--strategies", nargs="*",
                      choices=all_strategy_names(), default=[],
                      help="fan several strategies out as queue items "
                           "(one window chain each, drained by "
                           "--workers processes into per-strategy "
                           "sub-stores); overrides --strategy")
    p_rt.add_argument("--workers", type=int, default=0,
                      help="fanout worker processes "
                           "(0 = one per strategy, capped at CPU count)")
    p_rt.add_argument("--nodes", type=int, default=128, help="cluster size")
    p_rt.add_argument("--backfill-interval", type=float, default=0.0,
                      help="periodic backfill pass interval in seconds "
                           "(0 = event-driven only)")
    p_rt.add_argument("--threshold", type=float, default=1.1,
                      help="pairing compatibility threshold")
    p_rt.add_argument("--rss-budget-mb", type=float, default=0.0,
                      help="RSS budget: a replay over it stops after "
                           "its current window; re-run to resume "
                           "(0 = off)")
    p_rt.add_argument("--telemetry", action="store_true",
                      help="write per-window telemetry sidecars")
    p_rt.add_argument("--quiet", action="store_true",
                      help="suppress per-window progress lines")
    p_rt.add_argument("--json", action="store_true",
                      help="machine-readable JSON summary")
    p_rt.set_defaults(func=_cmd_replay_trace)

    p_fsck = sub.add_parser(
        "fsck",
        help="check a store/archive against its durable-state invariants",
    )
    p_fsck.add_argument(
        "store", help="campaign/replay store, columnar store or archive dir"
    )
    p_fsck.add_argument("--json", action="store_true",
                        help="machine-readable findings")
    p_fsck.add_argument("--repair", action="store_true",
                        help="reap queue leases whose holder pid is "
                             "dead and clear stale failpoint stamps / "
                             ".tmp residue (safe: never touches records)")
    p_fsck.set_defaults(func=_cmd_fsck)

    p_chaos = sub.add_parser(
        "chaos",
        help="crash-consistency sweep: kill at every failpoint, "
             "recover, fsck, compare to baseline",
    )
    p_chaos.add_argument("--workload",
                         choices=("campaign", "replay", "queue", "serve",
                                  "both", "all"),
                         default="both",
                         help="which pipeline(s) to torture: 'both' = "
                              "campaign+replay (default), 'queue' = the "
                              "two-worker cooperative drain, 'serve' = "
                              "the HTTP service self-drive, 'all' = "
                              "everything")
    p_chaos.add_argument("--dir", default="",
                         help="work directory (kept; default: a fresh "
                              "temp dir, removed unless --keep)")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="campaign worker processes (default 2)")
    p_chaos.add_argument("--failpoints", nargs="*", default=[],
                         help="sweep only these failpoints "
                              "(default: the whole catalog)")
    p_chaos.add_argument("--keep", action="store_true",
                         help="keep the work directory for inspection")
    p_chaos.add_argument("--quiet", action="store_true",
                         help="suppress per-trial progress lines")
    p_chaos.add_argument("--json", action="store_true",
                         help="machine-readable sweep report")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_mat = sub.add_parser("matrix", help="print the pairing matrix")
    p_mat.set_defaults(func=_cmd_matrix)
    return parser


def _structured_error(exc: ReproError) -> str:
    """One JSON line describing an escaped error, for scripted callers."""
    payload: dict[str, object] = {
        "error": type(exc).__name__,
        "message": str(exc),
    }
    info = getattr(exc, "crash_info", None)
    if info is not None and hasattr(info, "replay_signature"):
        payload["crash"] = info.replay_signature()
    bundle = getattr(exc, "bundle_path", None)
    if bundle:
        payload["bundle"] = str(bundle)
    return json.dumps(payload, sort_keys=True)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed early (`repro stats ... | head`): the
        # conventional quiet exit, not a traceback.  Detach stdout so
        # the interpreter's shutdown flush doesn't raise again (a
        # captured/redirected stdout may have no fd — skip in that case).
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError, io.UnsupportedOperation):
            pass
        return EXIT_SIGPIPE
    except ReproError as exc:
        print(_structured_error(exc), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Every command, not just `campaign`, reports a clean
        # conventional 128+SIGINT status instead of a traceback.
        print("\ninterrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
