"""Command-line interface: campaigns, figures, listings, propagation.

Usage (also available as ``python -m repro``):

.. code-block:: none

    repro campaign  --algorithm II --faults 500 [--database results.db]
                    [--workers 4] [--events events.jsonl] [--metrics]
                    [--metrics-snapshot metrics.json]
                    [--prune] [--validate-pruning]
                    [--resume CAMPAIGN_ID] [--abort-after N] [--chaos JSON]
    repro obs       [summary] --events events.jsonl [--events more.jsonl]
    repro obs       status --events events.jsonl [--json]
    repro obs       watch  --events events.jsonl [--interval 2] [--once] [--json]
    repro obs       export [--events events.jsonl] [--snapshot metrics.json]
                    [--format prometheus|json] [--output FILE]
    repro serve     --root runs/ [--workers N] [--once] [--ttl 30]
    repro submit    --root runs/ --algorithm II --faults 500
    repro status    --root runs/ [--campaign ID] [--json]
    repro cancel    --root runs/ --campaign ID
    repro compare   --faults 500
    repro figure    --name fig03|fig04|fig05
    repro listing   --algorithm I
    repro propagate --element line3.data --bit 30 --time 12000

Every command is deterministic for a given ``--seed``.

Exit codes for interrupted campaigns distinguish who stopped the run:
130 for operator Ctrl-C (SIGINT), 143 for SIGTERM, and 75
(``EX_TEMPFAIL``) for queue-driven aborts — a cancel request or a
revoked lease — which a wrapper may safely retry or resume.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.analysis import render_comparison_table, render_outcome_table
from repro.analysis.asciiplot import ascii_chart
from repro.control import PIController
from repro.errors import (
    CampaignAborted,
    CampaignError,
    DatabaseError,
    ObservabilityError,
    ServiceError,
)
from repro.faults.models import FaultDescriptor, FaultTarget
from repro.goofi import (
    CampaignConfig,
    CampaignDatabase,
    ScifiCampaign,
    TargetSystem,
    trace_propagation,
)
from repro.obs import (
    CampaignFollower,
    CampaignStatusReducer,
    DEFAULT_STALL_AFTER,
    MetricsRegistry,
    Telemetry,
    manifest_path_for,
    prometheus_text,
    read_events,
    read_manifest,
    read_snapshot,
    registry_from_events,
    render_events_summary,
    render_status,
    status_metrics,
)
from repro.plant import ClosedLoop, SAMPLE_TIME, paper_load_profile
from repro.thor.disassembler import disassemble_program
from repro.thor.scanchain import CACHE_PARTITION, REGISTER_PARTITION
from repro.workloads import compile_algorithm_i, compile_algorithm_ii


def _workload(algorithm: str):
    if algorithm.upper() in ("I", "1"):
        return compile_algorithm_i(), "Algorithm I"
    if algorithm.upper() in ("II", "2"):
        return compile_algorithm_ii(), "Algorithm II"
    raise SystemExit(f"unknown algorithm {algorithm!r} (use I or II)")


def _config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """Build a campaign configuration from the shared config flags."""
    workload, name = _workload(args.algorithm)
    chaos = None
    if args.chaos:
        import tempfile

        from repro.goofi import ChaosSpec

        chaos = ChaosSpec.from_json(
            args.chaos, tempfile.mkdtemp(prefix="repro-chaos-")
        )
    return CampaignConfig(
        workload=workload,
        name=name,
        faults=args.faults,
        seed=args.seed,
        iterations=args.iterations,
        partitions=args.partitions,
        prune=args.prune,
        collapse=args.collapse,
        chaos=chaos,
    )


#: ``CampaignAborted.reason`` → process exit status.  Only operator
#: interrupts get the conventional signal codes; queue-driven aborts
#: (cancel requested, lease revoked) exit 75, BSD's ``EX_TEMPFAIL``.
_ABORT_EXIT_CODES = {"sigint": 130, "sigterm": 143}
_ABORT_EXIT_DEFAULT = 75


def _cmd_campaign(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.validate_pruning:
        from repro.goofi.pruning import validate_pruning

        report = validate_pruning(config, workers=args.workers)
        print(report.render())
        return 0 if report.ok else 1
    if args.validate_collapse:
        from repro.goofi.pruning import validate_collapse

        report = validate_collapse(config, workers=args.workers)
        print(report.render())
        return 0 if report.ok else 1
    if args.resume is not None and not args.database:
        raise SystemExit("--resume requires --database")
    database = CampaignDatabase(args.database) if args.database else None
    telemetry = None
    if args.events or args.metrics or args.metrics_snapshot:
        try:
            # A resumed campaign appends to the original event log so the
            # combined file carries the run's full history.
            telemetry = Telemetry(
                events_path=args.events,
                append=args.resume is not None,
                snapshot_path=args.metrics_snapshot,
            )
        except OSError as exc:
            raise SystemExit(f"cannot write {args.events}: {exc.strerror or exc}")

    def progress(done, total, outcome):
        if args.verbose and (done % 50 == 0 or done == total):
            print(f"  {done}/{total} ({outcome.category.value})", file=sys.stderr)
        if args.abort_after is not None and done >= args.abort_after:
            # The tests' kill switch: behaves exactly like Ctrl-C at
            # this point of the campaign.
            raise KeyboardInterrupt

    campaign = ScifiCampaign(config, database=database)
    try:
        result = campaign.run(
            progress=progress,
            workers=args.workers,
            telemetry=telemetry,
            resume_from=args.resume,
        )
    except CampaignAborted as exc:
        # Streamed results were flushed and the campaign row is marked
        # aborted.  The exit code says who stopped the run: operator
        # SIGINT/SIGTERM get the conventional 128+signal codes, while a
        # queue-driven abort (cancel, revoked lease) exits 75 so
        # wrappers can tell the two apart and retry/resume safely.
        print(f"campaign aborted ({exc.reason}): {exc}", file=sys.stderr)
        if exc.campaign_id is not None and args.database:
            print(
                f"resume with: repro campaign ... --database {args.database}"
                f" --resume {exc.campaign_id}",
                file=sys.stderr,
            )
        return _ABORT_EXIT_CODES.get(exc.reason, _ABORT_EXIT_DEFAULT)
    except (CampaignError, DatabaseError) as exc:
        # Resume refusals (fingerprint mismatch, unknown campaign id)
        # are user errors, not crashes.
        raise SystemExit(str(exc))
    finally:
        if telemetry is not None:
            telemetry.close()
        if database is not None:
            database.close()
    if args.dossier:
        from repro.analysis import campaign_dossier

        print(campaign_dossier(result))
    else:
        print(render_outcome_table(result.summary()))
        severe = result.summary().severe_share_of_value_failures()
        print(f"severe share of value failures: {severe.format()}")
    if telemetry is not None:
        if args.metrics:
            print()
            print(telemetry.metrics.render())
            if telemetry.tracer is not None:
                print()
                print(telemetry.tracer.render())
        if args.events:
            print(f"events written to {args.events}")
        if args.metrics_snapshot:
            print(f"metrics snapshot at {args.metrics_snapshot}")
    if database is not None:
        print(f"stored in {args.database}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import CampaignService

    if args.detach:
        import subprocess

        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--root",
            args.root,
            "--workers",
            "1",
            "--ttl",
            str(args.ttl),
            "--poll",
            str(args.poll),
        ]
        if args.once:
            command.append("--once")
        pids = []
        for index in range(args.workers):
            worker_id = args.worker_id or f"serve-{os.getpid()}"
            child = subprocess.Popen(
                command + ["--worker-id", f"{worker_id}-{index}"],
                start_new_session=True,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            pids.append(child.pid)
        print(
            f"started {len(pids)} detached worker(s) on {args.root}:"
            f" pids {' '.join(str(p) for p in pids)}"
        )
        return 0

    worker_id = args.worker_id or f"serve-{os.getpid()}"

    def _loop(name: str, counts: List[int], slot: int) -> None:
        # Each worker keeps its own service handle: SQLite connections
        # and campaign databases never cross threads.
        with CampaignService(args.root) as service:
            try:
                counts[slot] = service.serve(
                    name,
                    ttl=args.ttl,
                    poll=args.poll,
                    once=args.once,
                    kill_after=args.kill_after,
                )
            except CampaignAborted:
                # The lease was already released; the campaign resumes
                # under the next worker to claim it.
                pass

    if args.workers <= 1:
        with CampaignService(args.root) as service:
            try:
                resolved = service.serve(
                    worker_id,
                    ttl=args.ttl,
                    poll=args.poll,
                    once=args.once,
                    kill_after=args.kill_after,
                )
            except CampaignAborted as exc:
                print(f"worker interrupted ({exc.reason}): {exc}", file=sys.stderr)
                return _ABORT_EXIT_CODES.get(exc.reason, _ABORT_EXIT_DEFAULT)
        print(f"{worker_id}: resolved {resolved} campaign job(s)")
        return 0

    import threading

    counts = [0] * args.workers
    threads = [
        threading.Thread(
            target=_loop, args=(f"{worker_id}-{index}", counts, index)
        )
        for index in range(args.workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(f"{worker_id}: resolved {sum(counts)} campaign job(s)")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import CampaignService

    config = _config_from_args(args)
    with CampaignService(args.root) as service:
        campaign_id = service.submit_campaign(
            config, workers=args.campaign_workers
        )
    print(f"campaign {campaign_id} queued under {args.root}")
    print(f"watch with: repro status --root {args.root} --campaign {campaign_id}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import CampaignService, service_status_lines

    with CampaignService(args.root) as service:
        if args.campaign is None:
            if args.json:
                print(
                    json.dumps(
                        {
                            "campaigns": service.list_campaigns(),
                            "stale_leases": service.queue.stale_leases(),
                        },
                        sort_keys=True,
                    )
                )
            else:
                for line in service_status_lines(service):
                    print(line)
                stale = service.queue.stale_leases()
                if stale:
                    print(f"{stale} stale lease(s) expired over the queue lifetime")
            return 0
        try:
            state, snapshot = service.status_snapshot(args.campaign)
        except ServiceError as exc:
            raise SystemExit(str(exc))
        if args.json:
            print(
                json.dumps(
                    {
                        "campaign_id": args.campaign,
                        "job": state,
                        "campaign": (
                            snapshot.to_dict() if snapshot is not None else None
                        ),
                    },
                    sort_keys=True,
                )
            )
            return 0
        lease = state.get("lease")
        holder = ""
        if isinstance(lease, dict):
            stale = " (stale)" if lease.get("stale") else ""
            holder = f", leased by {lease['worker']}{stale}"
        print(f"campaign {args.campaign}: {state['status']}{holder}")
        if state.get("expiries"):
            print(f"lease expiries so far: {state['expiries']}")
        if snapshot is not None:
            print()
            print(render_status(snapshot))
        return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import CampaignService

    with CampaignService(args.root) as service:
        try:
            status = service.cancel(args.campaign)
        except ServiceError as exc:
            raise SystemExit(str(exc))
    print(f"campaign {args.campaign}: {status}")
    if status not in ("cancelled",):
        print(
            "cancel requested; the leasing worker aborts at its next heartbeat",
        )
    return 0


def _expand_event_paths(patterns: List[str]) -> List[str]:
    """Expand ``--events`` values: each may be a path or a glob pattern.

    Unmatched non-glob paths are kept so the subsequent read reports a
    proper "cannot read" error instead of silently summarizing nothing.
    """
    paths: List[str] = []
    for pattern in patterns:
        matches = sorted(glob.glob(pattern))
        paths.extend(matches if matches else [pattern])
    seen = set()
    return [p for p in paths if not (p in seen or seen.add(p))]


def _read_manifest_for(paths: List[str]) -> Optional[Dict[str, object]]:
    """The first readable manifest sidecar among the event paths, if any."""
    for path in paths:
        sidecar = manifest_path_for(path)
        if os.path.exists(sidecar):
            try:
                return read_manifest(sidecar)
            except (OSError, ObservabilityError):
                return None
    return None


def _fold_status(followers, args: argparse.Namespace):
    """One poll across all followers, folded into a status snapshot."""
    reducer = args._reducer
    for follower in followers:
        reducer.fold_many(follower.poll())
    status = reducer.status(now=time.time())
    status.manifest = _read_manifest_for([f.path for f in followers])
    return status


def _print_status(status, as_json: bool) -> None:
    if as_json:
        print(json.dumps(status.to_dict(), sort_keys=True), flush=True)
    else:
        print(render_status(status), flush=True)


def _obs_summary(paths: List[str]) -> int:
    events: List[Dict[str, object]] = []
    for path in paths:
        try:
            events.extend(read_events(path))
        except OSError as exc:
            raise SystemExit(f"cannot read {path}: {exc.strerror or exc}")
        except ObservabilityError as exc:
            raise SystemExit(str(exc))  # read_events errors already carry the path
    try:
        print(render_events_summary(events))
    except ObservabilityError as exc:
        raise SystemExit(f"{', '.join(paths)}: {exc}")
    return 0


def _obs_status(args: argparse.Namespace, paths: List[str]) -> int:
    if not any(os.path.exists(path) for path in paths):
        raise SystemExit(f"cannot read {paths[0]}: no such file")
    followers = [CampaignFollower(path) for path in paths]
    _print_status(_fold_status(followers, args), args.json)
    return 0


def _obs_watch(args: argparse.Namespace, paths: List[str]) -> int:
    followers = [CampaignFollower(path) for path in paths]
    try:
        while True:
            status = _fold_status(followers, args)
            _print_status(status, args.json)
            if args.once or status.state in ("finished", "aborted"):
                return 0
            time.sleep(args.interval)
            if not args.json:
                print(flush=True)  # frame separator
    except KeyboardInterrupt:
        return 130


def _obs_export(args: argparse.Namespace, paths: List[str]) -> int:
    if not paths and not args.snapshot:
        raise SystemExit("repro obs export: provide --events and/or --snapshot")
    registry = MetricsRegistry()
    snapshot_ts = None
    if args.snapshot:
        try:
            snapshot_ts, snapped = read_snapshot(args.snapshot)
        except OSError as exc:
            raise SystemExit(f"cannot read {args.snapshot}: {exc.strerror or exc}")
        except ObservabilityError as exc:
            raise SystemExit(str(exc))
        registry.merge(snapped)
    if paths:
        records: List[Dict[str, object]] = []
        for follower in (CampaignFollower(path) for path in paths):
            records.extend(follower.poll())
        if not args.snapshot:
            # No live registry available: rebuild the classification
            # counters from the stream itself.
            registry.merge(registry_from_events(records))
        reducer = args._reducer
        reducer.fold_many(records)
        registry.merge(status_metrics(reducer.status(now=time.time())))
    if args.format == "prometheus":
        text = prometheus_text(registry)
    else:
        text = (
            json.dumps(
                {"ts": snapshot_ts, "metrics": registry.to_dict()},
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"metrics written to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    paths = _expand_event_paths(args.events or [])
    if not paths and args.mode != "export":
        raise SystemExit("repro obs: --events is required")
    # One reducer per invocation, shared by the poll helpers so `watch`
    # folds incrementally across frames.
    args._reducer = CampaignStatusReducer(stall_after=args.stall_after)
    if args.mode == "summary":
        return _obs_summary(paths)
    if args.mode == "status":
        return _obs_status(args, paths)
    if args.mode == "watch":
        return _obs_watch(args, paths)
    return _obs_export(args, paths)


def _cmd_compare(args: argparse.Namespace) -> int:
    summaries = []
    for algorithm in ("I", "II"):
        workload, name = _workload(algorithm)
        config = CampaignConfig(
            workload=workload,
            name=name,
            faults=args.faults,
            seed=args.seed,
            iterations=args.iterations,
        )
        summaries.append(ScifiCampaign(config).run().summary())
    print(render_comparison_table(summaries[0], summaries[1]))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    trace = ClosedLoop(PIController()).run()
    if args.name == "fig03":
        chart = ascii_chart(
            trace.times,
            [trace.reference, trace.speed],
            ["reference r (rpm)", "actual speed y (rpm)"],
            title="Figure 3: reference vs actual engine speed",
            y_min=1500.0,
            y_max=3500.0,
        )
    elif args.name == "fig04":
        load = paper_load_profile()
        times = np.arange(650) * SAMPLE_TIME
        chart = ascii_chart(
            times,
            [np.asarray(load.samples())],
            ["engine load torque"],
            title="Figure 4: engine load",
            y_min=0.0,
        )
    elif args.name == "fig05":
        chart = ascii_chart(
            trace.times,
            [trace.throttle],
            ["u_lim (degrees)"],
            title="Figure 5: fault-free controller output",
            y_min=0.0,
            y_max=70.0,
        )
    else:
        raise SystemExit(f"unknown figure {args.name!r} (fig03/fig04/fig05)")
    print(chart)
    return 0


def _cmd_listing(args: argparse.Namespace) -> int:
    workload, name = _workload(args.algorithm)
    print(f"; {name} — {len(workload.program.code)} instructions")
    for line in disassemble_program(workload.program):
        print(line)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.tcc import compile_program, parse_program

    source = Path(args.source).read_text()
    program = parse_program(source)
    if len(program.inputs) != 2 or len(program.outputs) != 1:
        raise SystemExit(
            "the engine loop drives programs with two inputs (r, y) and "
            f"one output; {program.name!r} has {len(program.inputs)}/"
            f"{len(program.outputs)}"
        )
    compiled = compile_program(program)
    target = TargetSystem(compiled, iterations=args.iterations)
    reference = target.run_reference()
    outputs = np.asarray(reference.outputs)
    times = np.arange(len(outputs)) * SAMPLE_TIME
    print(
        ascii_chart(
            times,
            [outputs],
            [f"{program.name} output"],
            title=f"{args.source}: closed-loop output on the simulated CPU",
        )
    )
    print(
        f"{len(compiled.program.code)} instructions, "
        f"{reference.total_instructions} executed over "
        f"{args.iterations} iterations"
    )
    return 0


def _cmd_propagate(args: argparse.Namespace) -> int:
    workload, _name = _workload(args.algorithm)
    target = TargetSystem(workload, iterations=args.iterations)
    target.run_reference()
    partition = (
        CACHE_PARTITION if args.element.startswith("line") else REGISTER_PARTITION
    )
    fault = FaultDescriptor(
        FaultTarget(partition, args.element, args.bit), args.time
    )
    report = trace_propagation(target, fault, max_instructions=args.max_instructions)
    for line in report.summary_lines():
        print(line)
    return 0


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The campaign-configuration flags shared by ``campaign`` and
    ``submit`` (both build a :class:`CampaignConfig` from them)."""
    parser.add_argument("--algorithm", default="I")
    parser.add_argument("--faults", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--iterations", type=int, default=650)
    parser.add_argument("--partitions", nargs="*", default=None)
    parser.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="skip simulating faults whose outcome the reference run's "
        "def/use access trace proves (see docs/performance.md)",
    )
    parser.add_argument(
        "--collapse",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="simulate one representative per outcome-equivalence class "
        "of live faults and replay its result for the rest "
        "(see docs/performance.md)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="JSON",
        help="inject deterministic worker crashes, e.g. "
        "'{\"crashes\": {\"3\": 1}, \"mode\": \"exit\"}' (chaos "
        "testing only; see docs/robustness.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-injection experiments on the simulated control system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run one SCIFI campaign")
    _add_config_arguments(campaign)
    campaign.add_argument("--database", default=None)
    campaign.add_argument(
        "--dossier",
        action="store_true",
        help="print the full analysis dossier instead of the plain table",
    )
    campaign.add_argument("--verbose", action="store_true")
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the injection phase (default: 1, serial)",
    )
    campaign.add_argument(
        "--events",
        default=None,
        help="write JSONL telemetry events to this path",
    )
    campaign.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print the campaign metrics registry",
    )
    campaign.add_argument(
        "--metrics-snapshot",
        default=None,
        metavar="PATH",
        help="periodically dump the metrics registry to this JSON file "
        "so 'repro obs export' can scrape the running campaign",
    )
    campaign.add_argument(
        "--validate-pruning",
        action="store_true",
        help="run the campaign with and without pruning and fail "
        "(exit 1) unless every per-experiment outcome matches",
    )
    campaign.add_argument(
        "--validate-collapse",
        action="store_true",
        help="run the campaign with pruning+collapse and "
        "against the plain baseline; fail (exit 1) unless every "
        "per-experiment outcome matches",
    )
    campaign.add_argument(
        "--resume",
        type=int,
        default=None,
        metavar="CAMPAIGN_ID",
        help="continue the stored campaign with this id (requires "
        "--database); only not-yet-completed experiments are simulated "
        "and the summary is bit-identical to an uninterrupted run "
        "(see docs/robustness.md)",
    )
    campaign.add_argument(
        "--abort-after",
        type=int,
        default=None,
        metavar="N",
        help="interrupt the campaign (as if by Ctrl-C) once N "
        "experiments are done — the crash-safety smoke tests' kill "
        "switch",
    )
    campaign.set_defaults(func=_cmd_campaign)

    serve = sub.add_parser(
        "serve", help="run campaign-service queue workers on a root directory"
    )
    serve.add_argument(
        "--root", required=True, help="service root (queue + campaign dirs)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="queue workers to run (default: 1)",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="exit once the queue is drained instead of polling forever",
    )
    serve.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="idle poll interval (default: 0.5)",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="lease time-to-live; a worker that stops heartbeating for "
        "this long loses its campaign to the next worker (default: 30)",
    )
    serve.add_argument(
        "--worker-id",
        default=None,
        help="lease-holder name (default: serve-<pid>)",
    )
    serve.add_argument(
        "--detach",
        action="store_true",
        help="spawn the workers as detached background processes and exit",
    )
    serve.add_argument(
        "--kill-after",
        type=int,
        default=None,
        metavar="N",
        help="SIGKILL this worker once N experiments are done — the "
        "chaos smoke tests' machine-loss switch",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="queue a campaign for the service workers"
    )
    submit.add_argument(
        "--root", required=True, help="service root (queue + campaign dirs)"
    )
    _add_config_arguments(submit)
    submit.add_argument(
        "--campaign-workers",
        type=int,
        default=1,
        metavar="K",
        help="worker processes the campaign's injection phase uses "
        "(default: 1, serial)",
    )
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="queue + live progress of service campaigns"
    )
    status.add_argument(
        "--root", required=True, help="service root (queue + campaign dirs)"
    )
    status.add_argument(
        "--campaign",
        type=int,
        default=None,
        metavar="ID",
        help="one campaign's job state and live status (default: list all)",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable snapshot instead of the panel",
    )
    status.set_defaults(func=_cmd_status)

    cancel = sub.add_parser("cancel", help="cancel a queued or running campaign")
    cancel.add_argument(
        "--root", required=True, help="service root (queue + campaign dirs)"
    )
    cancel.add_argument("--campaign", type=int, required=True, metavar="ID")
    cancel.set_defaults(func=_cmd_cancel)

    obs = sub.add_parser(
        "obs",
        help="inspect campaign telemetry: summary, live status, watch, export",
    )
    obs.add_argument(
        "mode",
        nargs="?",
        default="summary",
        choices=["summary", "status", "watch", "export"],
        help="summary: post-hoc report (default); status: one live "
        "progress/health snapshot; watch: re-render status until the "
        "campaign ends; export: Prometheus/JSON metrics",
    )
    obs.add_argument(
        "--events",
        action="append",
        default=None,
        metavar="PATH",
        help="JSONL event file; repeatable, glob patterns allowed "
        "(e.g. 'runs/*.jsonl') — multiple files are merged",
    )
    obs.add_argument(
        "--json",
        action="store_true",
        help="status/watch: print the machine-readable snapshot instead "
        "of the human panel",
    )
    obs.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="watch: poll interval (default: 2)",
    )
    obs.add_argument(
        "--once",
        action="store_true",
        help="watch: render a single frame and exit",
    )
    obs.add_argument(
        "--stall-after",
        type=float,
        default=DEFAULT_STALL_AFTER,
        metavar="SECONDS",
        help="seconds without a heartbeat before a worker (or the "
        f"campaign) is reported stalled (default: {DEFAULT_STALL_AFTER:g})",
    )
    obs.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="export: metrics snapshot file written by "
        "'repro campaign --metrics-snapshot'",
    )
    obs.add_argument(
        "--format",
        choices=["prometheus", "json"],
        default="prometheus",
        help="export: output format (default: prometheus text exposition)",
    )
    obs.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="export: write to this file instead of stdout",
    )
    obs.set_defaults(func=_cmd_obs)

    compare = sub.add_parser("compare", help="Algorithm I vs II (Table 4)")
    compare.add_argument("--faults", type=int, default=200)
    compare.add_argument("--seed", type=int, default=2001)
    compare.add_argument("--iterations", type=int, default=650)
    compare.set_defaults(func=_cmd_compare)

    figure = sub.add_parser("figure", help="render a fault-free figure")
    figure.add_argument("--name", required=True, choices=["fig03", "fig04", "fig05"])
    figure.set_defaults(func=_cmd_figure)

    listing = sub.add_parser("listing", help="disassemble a workload")
    listing.add_argument("--algorithm", default="I")
    listing.set_defaults(func=_cmd_listing)

    run = sub.add_parser(
        "run", help="compile a mini-language program and run it in the loop"
    )
    run.add_argument("--source", required=True)
    run.add_argument("--iterations", type=int, default=650)
    run.set_defaults(func=_cmd_run)

    propagate = sub.add_parser(
        "propagate", help="detail-mode propagation of one fault"
    )
    propagate.add_argument("--algorithm", default="I")
    propagate.add_argument("--element", required=True)
    propagate.add_argument("--bit", type=int, required=True)
    propagate.add_argument("--time", type=int, required=True)
    propagate.add_argument("--iterations", type=int, default=120)
    propagate.add_argument("--max-instructions", type=int, default=2000)
    propagate.set_defaults(func=_cmd_propagate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe early (`... | head`, `grep -q`):
        # the conventional silent exit, 128 + SIGPIPE.  stdout's fd is
        # pointed at devnull so interpreter shutdown does not raise
        # while flushing the broken stream.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
