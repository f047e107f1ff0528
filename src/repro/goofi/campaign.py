"""Campaign orchestration: configuration, set-up, injection, analysis.

:class:`ScifiCampaign` drives a full scan-chain fault-injection campaign
against the simulated CPU, following the paper's §3.3 flow and producing
a Tables 2/3-ready :class:`~repro.analysis.report.CampaignSummary`.

Campaign execution is crash-safe end to end (``docs/robustness.md``):
classified outcomes stream into the database as chunks finish, failed
worker chunks are requeued with capped exponential backoff and bisected
to isolate poison experiments, a broken process pool is rebuilt (and
ultimately degraded to serial execution), repeat offenders are recorded
with ``provenance='quarantined'`` instead of aborting the run, SIGINT
and SIGTERM flush in-flight results and mark the campaign ``aborted``,
and ``run(resume_from=...)`` continues an interrupted campaign to a
summary bit-identical to an uninterrupted one.

Chunk dispatch runs through the lease-based
:class:`~repro.goofi.workqueue.WorkQueue` (the retry/split/quarantine
bookkeeping above lives in its ``nack``), so the same queue semantics
serve this one-box ``ProcessPoolExecutor`` and the multi-process
campaign service (:mod:`repro.service`).
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.classify import Outcome, classify_experiment
from repro.analysis.report import CampaignSummary, ClassifiedExperiment
from repro.errors import AbortRequested, CampaignAborted, CampaignError
from repro.faults.models import FaultDescriptor, LocationSpace, sample_fault_plan
from repro.goofi.database import CampaignDatabase
from repro.goofi.environment import EngineEnvironment
from repro.goofi.pool import ReferencePool, WorkerPayload, worker_target
from repro.goofi.pruning import (
    collapse_live_plan,
    preclassify_pairs,
    replay_equivalent,
    synthesize_run,
)
from repro.goofi.recovery import (
    ChaosSpec,
    RecoveryPolicy,
    ResultSink,
    backoff_seconds,
    chaos_maybe_crash,
    check_fingerprint,
    config_fingerprint,
    quarantined_run,
)
from repro.goofi.target import ExperimentRun, TargetSystem
from repro.goofi.workqueue import LeasedJob, WorkQueue
from repro.obs.events import EventLog, merge_event_shards, now
from repro.obs.metrics import MetricsRegistry
from repro.obs.status import write_manifest
from repro.obs.telemetry import (
    Telemetry,
    campaign_finished_event,
    campaign_started_event,
    experiment_event,
    heartbeat_event,
    record_outcome,
)
from repro.plant.profiles import ITERATIONS
from repro.tcc.codegen import CompiledProgram


@dataclass
class CampaignConfig:
    """Set-up phase parameters (§3.3.2).

    Attributes:
        workload: the compiled workload to inject into.
        name: campaign label used in summaries and the database.
        faults: number of fault-injection experiments.
        seed: RNG seed for the uniform location/time sampling.
        iterations: loop iterations per experiment (paper: 650).
        partitions: restrict injection to these scan-chain partitions
            (default: all — ``cache`` and ``registers``).
        watchdog_factor: experiment watchdog as a multiple of the longest
            fault-free iteration.
        early_exit: enable the provably-safe early termination when the
            faulted state re-converges to the reference.
        prune: record the reference run's def/use access trace and skip
            simulating faults whose outcome it proves (overwritten before
            the next read, or never touched again) — the predicted
            experiments classify identically to simulated ones, see
            ``docs/performance.md``.  Off by default.
        collapse: group live faults into outcome-equivalence classes
            (same first live read consuming the same delivered value),
            simulate one representative per class and replay its result
            for the rest (``provenance='equivalent'``).  Also records
            the access trace.  Off by default.
        batch_size: accepted and validated (it must be positive) but
            changes nothing: every experiment runs one at a time on the
            target's :meth:`~repro.thor.cpu.CPU.run`.  It stays only
            because the benchmark in ``perfbench/`` still sets it.
        environment_factory: builds the environment simulator.
        recovery: retry/backoff/quarantine policy of the crash-safety
            machinery (``docs/robustness.md``); never affects outcomes,
            only how failures are survived.
        chaos: optional deterministic worker-crash injection used by the
            chaos tests and the CI smoke; ``None`` in production.
    """

    workload: CompiledProgram
    name: str = "campaign"
    faults: int = 500
    seed: int = 2001
    iterations: int = ITERATIONS
    partitions: Optional[List[str]] = None
    watchdog_factor: float = 10.0
    early_exit: bool = True
    prune: bool = False
    collapse: bool = False
    batch_size: int = 1
    environment_factory: Callable[[], EngineEnvironment] = EngineEnvironment
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    chaos: Optional[ChaosSpec] = None

    def __post_init__(self) -> None:
        if self.faults <= 0:
            raise CampaignError("faults must be positive")
        if self.iterations <= 0:
            raise CampaignError("iterations must be positive")
        if self.batch_size <= 0:
            raise CampaignError("batch_size must be positive")


@dataclass
class CampaignResult:
    """All experiments of one campaign, classified.

    Attributes:
        config: the campaign configuration.
        experiments: raw per-experiment observations.  For a resumed
            campaign, experiments completed before the interruption are
            reconstructed from the database (fault, termination fields
            and outcome, but no output trace).
        outcomes: §4.1 classification per experiment (same order).
        reference_outputs: the golden output sequence.
        partition_sizes: injectable bits per partition.
        wall_seconds: total injection-phase wall time (this run only).
    """

    config: CampaignConfig
    experiments: List[ExperimentRun]
    outcomes: List[Outcome]
    reference_outputs: List[float]
    partition_sizes: dict
    wall_seconds: float = 0.0

    def summary(self) -> CampaignSummary:
        """Aggregate into a Tables 2/3-ready summary."""
        records = [
            ClassifiedExperiment(partition=run.fault.target.partition, outcome=outcome)
            for run, outcome in zip(self.experiments, self.outcomes)
        ]
        return CampaignSummary(
            records=records,
            partition_sizes=self.partition_sizes,
            name=self.config.name,
        )


def _null_span(_name: str):
    """The zero-overhead stand-in for a tracer span."""
    return nullcontext()


def _run_chunk(args):
    """Worker entry point: run one slice of a fault plan.

    Top-level (picklable) by necessity; runs against the process-wide
    target system built by the pool initializer from the golden run the
    parent computed once and shipped, so no reference run happens here.
    ``chunk`` carries ``(plan index, fault)`` pairs so telemetry can be
    re-ordered into plan order afterwards; its experiments run one at a
    time, in chunk order.

    When telemetry is enabled the worker records into its own
    :class:`~repro.obs.MetricsRegistry` (returned as a dict for the
    parent to merge) and writes ``experiment_finished`` events to its
    own shard file — worker processes never share a file descriptor.
    Every ``heartbeat_every`` experiments (and once at chunk end) the
    worker also appends a ``worker_heartbeat`` record and flushes the
    shard, so a live ``repro obs status`` poll of the shard files sees
    per-worker progress and throughput while the chunk is still running.

    Returns ``(submission_id, results, registry_dict, seconds)`` where
    ``results`` holds ``(plan index, run, outcome)`` triples.
    """
    (
        chunk,
        submission_id,
        shard_path,
        metrics_enabled,
        early_exit,
        chaos,
        heartbeat_every,
    ) = args
    registry = MetricsRegistry() if metrics_enabled else None
    events = EventLog(shard_path) if shard_path else None
    target = worker_target()
    started = time.perf_counter()
    results = []
    # The worker process outlives this chunk; reset the metrics binding
    # afterwards so it does not leak into the next phase.
    target.metrics = registry
    try:
        reference_outputs = target.reference.outputs
        for index, fault in chunk:
            chaos_maybe_crash(chaos, index)
            run = target.run_experiment(fault, early_exit)
            outcome = ScifiCampaign._classify(run, reference_outputs)
            if registry is not None:
                record_outcome(registry, run, outcome)
            if events is not None:
                events.emit(
                    "experiment_finished",
                    **experiment_event(index, run, outcome),
                )
                done = len(results) + 1
                if done == len(chunk) or (
                    heartbeat_every and done % heartbeat_every == 0
                ):
                    events.emit(
                        "worker_heartbeat",
                        **heartbeat_event(
                            worker=submission_id,
                            done=done,
                            total=len(chunk),
                            seconds=time.perf_counter() - started,
                        ),
                    )
                    events.flush()
            results.append((index, run, outcome))
    finally:
        target.metrics = None
    if events is not None:
        events.close()
    seconds = time.perf_counter() - started
    return (
        submission_id,
        results,
        registry.to_dict() if registry is not None else None,
        seconds,
    )


class ScifiCampaign:
    """A scan-chain implemented fault-injection campaign (§3.3.1 SCIFI)."""

    def __init__(
        self,
        config: CampaignConfig,
        database: Optional[CampaignDatabase] = None,
    ):
        self.config = config
        self.database = database
        self.target = TargetSystem(
            workload=config.workload,
            environment=config.environment_factory(),
            iterations=config.iterations,
            watchdog_factor=config.watchdog_factor,
        )
        # Streaming-persistence state of the in-flight run, used by the
        # abort path to flush and mark the campaign resumable.
        self._sink: Optional[ResultSink] = None
        self._campaign_id: Optional[int] = None
        self._workers: int = 1

    def location_space(self) -> LocationSpace:
        """The injectable locations after partition restriction."""
        space = self.target.scan_chain.location_space()
        if self.config.partitions:
            targets = [t for t in space if t.partition in self.config.partitions]
            if not targets:
                raise CampaignError(
                    f"no targets in partitions {self.config.partitions!r}"
                )
            space = LocationSpace(targets)
        return space

    def run(
        self,
        progress: Optional[Callable[[int, int, Outcome], None]] = None,
        workers: int = 1,
        telemetry: Optional[Telemetry] = None,
        pool: Optional[ReferencePool] = None,
        resume_from: Optional[int] = None,
    ) -> CampaignResult:
        """Execute the campaign: reference run, sampling, injection, analysis.

        Args:
            progress: optional callback ``(done, total, outcome)`` invoked
                after each experiment.  With ``workers > 1`` it fires as
                chunk results arrive, so ``done`` still counts every
                experiment but outcomes report in completion order.
            workers: number of worker processes.  ``1`` (default) runs
                serially in this process; ``N > 1`` fans the live plan
                out over N processes, executed in injection-time order
                through adaptively sized chunks drawn on demand (see
                ``docs/performance.md``).  Results are bit-identical to
                the serial run (every experiment is independent and
                fully determined by its fault), just reordered back
                into plan order.
            telemetry: optional :class:`~repro.obs.Telemetry` bundle.
                When given, the run records phase spans, per-experiment
                metrics and JSONL events; per-worker registries/shards
                are merged so serial and parallel runs report identical
                aggregate telemetry.  ``None`` (default) is a no-op.
            pool: optional :class:`~repro.goofi.pool.ReferencePool` to
                run the parallel phase on.  The pool's warm workers are
                reused (and left running for the caller's next phase);
                without one the parallel path spins up and tears down
                its own.  Implies the pool's worker count.
            resume_from: continue the stored campaign with this database
                id: its completed experiments are reloaded, the fault
                plan is re-derived from the stored seed/config (refusing
                on any outcome-relevant mismatch) and only the remainder
                is simulated.  The resumed summary is bit-identical to
                an uninterrupted run's.  Requires a database.

        Raises:
            CampaignAborted: the run was interrupted (SIGINT, SIGTERM or
                an :class:`~repro.errors.AbortRequested` raised from the
                progress callback); in-flight results were flushed and
                the campaign row (if any) is marked ``aborted`` — pass
                its id back as ``resume_from`` to continue.  The
                exception's ``reason`` says which (``"sigint"``,
                ``"sigterm"``, or the requested reason such as
                ``"cancel"``), which the CLI maps to distinct exit
                codes.
        """
        config = self.config
        if pool is not None:
            workers = pool.workers
        if resume_from is not None and self.database is None:
            raise CampaignError("resume_from requires a campaign database")
        span = telemetry.span if telemetry is not None else _null_span
        if telemetry is not None:
            telemetry.emit(
                "campaign_started", **campaign_started_event(config, workers)
            )
            if telemetry.metrics is not None and workers <= 1:
                self.target.metrics = telemetry.metrics

        self._sink = None
        self._campaign_id = None
        # A SIGINT (operator Ctrl-C) or SIGTERM (service supervisor
        # stopping a worker) must stop the campaign *between* database
        # commits: the handlers raise KeyboardInterrupt (SIGTERM through
        # the AbortRequested subclass, so the reason survives), and the
        # abort path below flushes in-flight results and marks the
        # campaign resumable.
        previous_handlers: List[Tuple[int, object]] = []
        for signum, handler in (
            (signal.SIGINT, self._handle_sigint),
            (signal.SIGTERM, self._handle_sigterm),
        ):
            try:
                previous_handlers.append((signum, signal.signal(signum, handler)))
            except ValueError:
                pass  # not in the main thread

        try:
            result = self._run_phases(
                progress, workers, telemetry, span, pool, resume_from
            )
        except KeyboardInterrupt as exc:
            reason = getattr(exc, "reason", None) or "sigint"
            campaign_id = self._abort(telemetry, reason=reason)
            hint = (
                f" — resume with run(resume_from={campaign_id})"
                if campaign_id is not None
                else ""
            )
            raise CampaignAborted(
                f"campaign interrupted{hint}",
                campaign_id=campaign_id,
                reason=reason,
            ) from None
        except BaseException:
            # Flush whatever telemetry and results exist so post-mortem
            # `repro obs` works, mark the campaign resumable, re-raise.
            self._abort(telemetry, reason="error")
            raise
        finally:
            for signum, previous in previous_handlers:
                try:
                    signal.signal(signum, previous)
                except (ValueError, TypeError):
                    pass
            # The metrics binding registers a global EDM listener;
            # unhook it so a later campaign (or pool phase) in the same
            # process never double-counts detections.
            self.target.metrics = None
            self._sink = None
        return result

    @staticmethod
    def _handle_sigint(_signum, _frame) -> None:
        raise KeyboardInterrupt

    @staticmethod
    def _handle_sigterm(_signum, _frame) -> None:
        raise AbortRequested("sigterm")

    def _abort(
        self, telemetry: Optional[Telemetry], reason: str = "sigint"
    ) -> Optional[int]:
        """Best-effort cleanup on interruption: flush streamed results,
        mark the campaign row aborted (resumable), flush telemetry.

        Never raises — the caller is already propagating the original
        failure.
        """
        campaign_id = self._campaign_id
        sink = self._sink
        stored = 0
        if sink is not None:
            try:
                sink.flush()
            except Exception:
                pass
            stored = sink.stored
        if campaign_id is not None and self.database is not None:
            try:
                self.database.abort_campaign(campaign_id)
            except Exception:
                pass
        if telemetry is not None:
            try:
                telemetry.emit(
                    "campaign_aborted",
                    ts=now(),
                    campaign_id=campaign_id,
                    completed=stored,
                    reason=reason,
                )
                telemetry.finish()
            except Exception:
                pass
            try:
                self._write_manifest(telemetry, "aborted", self._workers)
            except Exception:
                pass
        return campaign_id

    def _write_manifest(
        self,
        telemetry: Optional[Telemetry],
        status: str,
        workers: int,
        wall_seconds: Optional[float] = None,
    ) -> None:
        """(Re)write the campaign's ``manifest.json`` sidecar.

        The manifest maps the event stream back to its identity and
        artifacts — config fingerprint, seed, campaign id, database and
        snapshot paths — so ``repro obs status`` (and the service tier
        above it) can correlate a log with its stored results without
        parsing either.
        """
        if telemetry is None or telemetry.manifest_path is None:
            return
        config = self.config
        write_manifest(
            telemetry.manifest_path,
            {
                "status": status,
                "name": config.name,
                "seed": config.seed,
                "faults": config.faults,
                "iterations": config.iterations,
                "workers": workers,
                "fingerprint": config_fingerprint(config),
                "campaign_id": self._campaign_id,
                "wall_seconds": wall_seconds,
                "updated_ts": now(),
                "artifacts": {
                    "events": telemetry.events.path,
                    "database": (
                        self.database.path if self.database is not None else None
                    ),
                    "metrics_snapshot": (
                        telemetry.snapshotter.path
                        if telemetry.snapshotter is not None
                        else None
                    ),
                },
            },
        )

    def _run_phases(
        self,
        progress,
        workers: int,
        telemetry: Optional[Telemetry],
        span,
        pool: Optional[ReferencePool],
        resume_from: Optional[int],
    ) -> CampaignResult:
        config = self.config
        with span("campaign"):
            with span("reference_run"):
                reference = self.target.run_reference(
                    record_access=config.prune or config.collapse
                )
                if telemetry is not None and telemetry.metrics is not None:
                    telemetry.metrics.gauge("reference_instructions").set(
                        reference.total_instructions
                    )
            with span("set_up"):
                space = self.location_space()
                rng = np.random.default_rng(config.seed)
                plan = sample_fault_plan(
                    space=space,
                    total_instructions=reference.total_instructions,
                    count=config.faults,
                    rng=rng,
                )
                partition_sizes = {
                    partition: space.partition_size(partition)
                    for partition in space.partitions
                }

            # Open (or reopen) the campaign row; completed experiments of
            # a resumed campaign are reloaded and never re-simulated.
            resumed_results: Dict[int, Tuple[ExperimentRun, Outcome]] = {}
            campaign_id: Optional[int] = None
            sink: Optional[ResultSink] = None
            if self.database is not None:
                fingerprint = config_fingerprint(config)
                if resume_from is not None:
                    with span("resume"):
                        resumed_results = self._load_resume_state(
                            resume_from, fingerprint, plan
                        )
                        campaign_id = resume_from
                        if telemetry is not None:
                            if telemetry.metrics is not None:
                                telemetry.metrics.counter(
                                    "resumed_experiments"
                                ).inc(len(resumed_results))
                            telemetry.emit(
                                "campaign_resumed",
                                ts=now(),
                                campaign_id=campaign_id,
                                completed=len(resumed_results),
                            )
                else:
                    campaign_id = self.database.begin_campaign(
                        config, partition_sizes, fingerprint
                    )
                sink = ResultSink(
                    self.database, campaign_id, config.recovery.db_batch
                )
            self._sink = sink
            self._campaign_id = campaign_id
            self._workers = workers
            if telemetry is not None:
                # Leftover shards of an earlier aborted run over the same
                # path would feed stale records to live status polls (and
                # the end-of-run merge); the manifest makes the fresh run
                # discoverable before its first experiment lands.
                telemetry.remove_stale_shards()
                self._write_manifest(telemetry, "running", workers)
                telemetry.checkpoint()

            # Pre-classify the remainder against the def/use liveness
            # map: predicted experiments are synthesised from the
            # reference and never enter the injection loop below.
            remaining: List[Tuple[int, FaultDescriptor]] = [
                (i, fault)
                for i, fault in enumerate(plan)
                if i not in resumed_results
            ]
            predicted_results: Dict[int, Tuple[ExperimentRun, Outcome]] = {}
            live_plan: List[Tuple[int, FaultDescriptor]] = remaining
            if config.prune:
                with span("pruning"):
                    liveness = self.target.liveness
                    if liveness is None:
                        raise CampaignError(
                            "pruning requested but no liveness map recorded"
                        )
                    pruned = preclassify_pairs(remaining, liveness)
                    live_plan = pruned.live
                    for index, fault, classification in pruned.predicted:
                        run = synthesize_run(fault, classification, reference)
                        predicted_results[index] = (
                            run,
                            self._classify(run, reference.outputs),
                        )
                    if telemetry is not None and telemetry.metrics is not None:
                        for _i, _f, classification in pruned.predicted:
                            telemetry.metrics.counter(
                                "pruned_experiments",
                                prediction=classification.value,
                            ).inc()
            # Equivalence collapse: group the live remainder into
            # outcome-equivalence classes; only class representatives
            # stay in the live plan, the members replay their
            # representative's simulated result once it exists.
            equivalence_classes: Dict[int, List[Tuple[int, FaultDescriptor]]] = {}
            if config.collapse:
                with span("collapse"):
                    liveness = self.target.liveness
                    if liveness is None:
                        raise CampaignError(
                            "collapse requested but no liveness map recorded"
                        )
                    collapsed = collapse_live_plan(live_plan, liveness)
                    live_plan = collapsed.representatives
                    equivalence_classes = collapsed.members
                    if telemetry is not None:
                        if telemetry.metrics is not None:
                            telemetry.metrics.counter(
                                "collapsed_experiments"
                            ).inc(collapsed.collapsed)
                            telemetry.metrics.counter(
                                "equivalence_classes"
                            ).inc(collapsed.classes)
                        telemetry.emit(
                            "equivalence_collapse",
                            ts=now(),
                            live=len(live_plan) + collapsed.collapsed,
                            representatives=len(live_plan),
                            classes=collapsed.classes,
                            collapsed=collapsed.collapsed,
                        )
            if telemetry is not None and telemetry.metrics is not None:
                telemetry.metrics.counter("simulated_experiments").inc(
                    len(live_plan)
                )

            started = time.perf_counter()
            with span("injection"):
                if workers <= 1:
                    experiments, outcomes = self._run_serial(
                        plan,
                        reference,
                        telemetry,
                        progress,
                        predicted_results,
                        resumed_results,
                        sink,
                        live_plan=live_plan,
                        equivalence_classes=equivalence_classes,
                    )
                else:
                    experiments, outcomes = self._run_parallel(
                        live_plan,
                        len(plan),
                        workers,
                        progress=progress,
                        telemetry=telemetry,
                        predicted_results=predicted_results,
                        resumed_results=resumed_results,
                        pool=pool,
                        sink=sink,
                        equivalence_classes=equivalence_classes,
                    )
            wall = time.perf_counter() - started

            with span("analysis"):
                result = CampaignResult(
                    config=config,
                    experiments=experiments,
                    outcomes=outcomes,
                    reference_outputs=list(reference.outputs),
                    partition_sizes=partition_sizes,
                    wall_seconds=wall,
                )
                if sink is not None:
                    sink.flush()
                    self.database.finish_campaign(campaign_id, wall)

        if telemetry is not None:
            telemetry.emit(
                "campaign_finished", **campaign_finished_event(outcomes, wall)
            )
            telemetry.finish()
            self._write_manifest(telemetry, "complete", workers, wall_seconds=wall)
        return result

    def _load_resume_state(
        self,
        campaign_id: int,
        fingerprint: Dict[str, object],
        plan: List[FaultDescriptor],
    ) -> Dict[int, Tuple[ExperimentRun, Outcome]]:
        """Reload a stored campaign's completed experiments.

        Refuses when the stored configuration fingerprint diverges from
        the current one, and cross-checks every stored fault against the
        re-derived plan — any drift means the stored indices would not
        identify the same experiments.
        """
        check_fingerprint(
            self.database.campaign_fingerprint(campaign_id), fingerprint
        )
        stored = self.database.completed_experiments(campaign_id)
        resumed: Dict[int, Tuple[ExperimentRun, Outcome]] = {}
        for index, experiment in stored.items():
            if index >= len(plan):
                raise CampaignError(
                    f"stored experiment index {index} exceeds the plan "
                    f"({len(plan)} faults) — cannot resume"
                )
            fault = plan[index]
            if (
                fault.target.partition != experiment.partition
                or fault.target.element != experiment.element
                or fault.target.bit != experiment.bit
                or fault.time != experiment.time
            ):
                raise CampaignError(
                    f"stored experiment {index} ({experiment.partition}/"
                    f"{experiment.element}[{experiment.bit}]@t={experiment.time}) "
                    f"does not match the re-derived plan ({fault.label()}) "
                    "— cannot resume"
                )
            run = ExperimentRun(
                fault=fault,
                outputs=[],
                early_exit_iteration=experiment.early_exit_iteration,
                timed_out=experiment.timed_out,
                instructions_executed=experiment.instructions_executed,
                predicted=experiment.provenance == "predicted",
                quarantined=experiment.provenance == "quarantined",
                equivalent=experiment.provenance == "equivalent",
                representative_index=experiment.representative_index,
            )
            resumed[index] = (run, experiment.outcome)
        self.database.reopen_campaign(campaign_id)
        return resumed

    # -- serial execution ------------------------------------------------------
    def _replay_equivalents(
        self, rep_index, run, outcome, equivalence_classes, by_index, streamable
    ) -> None:
        """Copy a representative's simulated result to its class members.

        A quarantined stand-in proves nothing about the class, so its
        members are left unresolved and fall through to individual
        simulation.  The classification is reused as-is: it depends
        only on fields :func:`replay_equivalent` copies verbatim.
        """
        members = equivalence_classes.get(rep_index)
        if not members or run.quarantined:
            return
        for m_index, m_fault in members:
            if m_index in by_index:
                continue
            m_run = replay_equivalent(m_fault, run, rep_index)
            by_index[m_index] = (m_run, outcome)
            streamable.add(m_index)

    def _run_serial(
        self,
        plan,
        reference,
        telemetry,
        progress,
        predicted_results,
        resumed_results,
        sink,
        live_plan=None,
        equivalence_classes=None,
    ):
        by_index: Dict[int, Tuple[ExperimentRun, Outcome]] = {}
        by_index.update(resumed_results)
        by_index.update(predicted_results)
        equivalence_classes = equivalence_classes or {}
        # Indices the sink must store besides the freshly simulated
        # ones: predictions, pre-simulations, equivalence replays.
        streamable = set(predicted_results)
        heartbeat_every = self.config.recovery.heartbeat_every
        started = time.perf_counter()
        if live_plan:
            # Pre-simulation: live faults run ahead of the plan loop in
            # injection-time order (so consecutive experiments restore
            # to nearby boundaries).  The plan loop below then streams
            # and reports the stored pairs in plan order, exactly as a
            # plan-order run would have.
            pending = [(i, f) for i, f in live_plan if i not in by_index]
            pending.sort(key=lambda item: item[1].time)
            for i, fault in pending:
                pair = self._run_one_recovered(
                    i, fault, reference.outputs, telemetry
                )
                by_index[i] = pair
                streamable.add(i)
                self._replay_equivalents(
                    i, pair[0], pair[1], equivalence_classes, by_index, streamable
                )
        for i, fault in enumerate(plan):
            pair = by_index.get(i)
            fresh = pair is None
            if fresh:
                pair = self._run_one_recovered(i, fault, reference.outputs, telemetry)
                by_index[i] = pair
                self._replay_equivalents(
                    i, pair[0], pair[1], equivalence_classes, by_index, streamable
                )
            run, outcome = pair
            if sink is not None and (fresh or i in streamable):
                sink.add(i, run, outcome)
            if telemetry is not None and i not in resumed_results:
                if telemetry.metrics is not None:
                    record_outcome(telemetry.metrics, run, outcome)
                telemetry.emit(
                    "experiment_finished",
                    **experiment_event(i, run, outcome),
                )
            if progress is not None:
                progress(i + 1, len(plan), outcome)
            if (
                telemetry is not None
                and heartbeat_every
                and (i + 1) % heartbeat_every == 0
            ):
                # The serial loop is "worker 0": same liveness surface as
                # a parallel run, flushed so live polls see progress.
                telemetry.emit(
                    "worker_heartbeat",
                    **heartbeat_event(
                        worker=0,
                        done=i + 1,
                        total=len(plan),
                        seconds=time.perf_counter() - started,
                    ),
                )
                telemetry.checkpoint()
        if sink is not None:
            sink.flush()
        if telemetry is not None:
            telemetry.checkpoint()
        experiments = [by_index[i][0] for i in range(len(plan))]
        outcomes = [by_index[i][1] for i in range(len(plan))]
        return experiments, outcomes

    def _run_one_recovered(
        self, index, fault, reference_outputs, telemetry
    ) -> Tuple[ExperimentRun, Outcome]:
        """One in-process experiment with retry, backoff and quarantine.

        KeyboardInterrupt always propagates (the abort path handles it);
        any other failure is retried up to the policy's budget and then
        quarantined, so one poison experiment never sinks the campaign.
        ``'exit'``-mode chaos is skipped here — it models a worker
        process kill and must never take down the parent.
        """
        policy = self.config.recovery
        chaos = self.config.chaos
        failures = 0
        while True:
            try:
                if chaos is not None and chaos.mode == "raise":
                    chaos_maybe_crash(chaos, index)
                run = self.target.run_experiment(
                    fault, early_exit=self.config.early_exit
                )
                return run, self._classify(run, reference_outputs)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                failures += 1
                if telemetry is not None:
                    if telemetry.metrics is not None:
                        telemetry.metrics.counter("retries").inc()
                    telemetry.emit(
                        "chunk_requeued",
                        ts=now(),
                        experiments=1,
                        attempt=failures - 1,
                        killed=False,
                        reason=repr(exc),
                    )
                if failures >= policy.max_chunk_retries:
                    return self._quarantine_pair(index, fault, telemetry)
                policy.sleep(backoff_seconds(failures - 1, policy))

    def _quarantine_pair(
        self, index, fault, telemetry
    ) -> Tuple[ExperimentRun, Outcome]:
        """Record one experiment as quarantined (counter + event only;
        the caller persists and classifies it like any other result)."""
        run = quarantined_run(fault, self.target.reference.outputs)
        outcome = self._classify(run, self.target.reference.outputs)
        if telemetry is not None:
            if telemetry.metrics is not None:
                telemetry.metrics.counter("quarantined_experiments").inc()
            telemetry.emit(
                "experiment_quarantined",
                ts=now(),
                index=index,
                partition=fault.target.partition,
                element=fault.target.element,
                bit=fault.target.bit,
                injection_time=fault.time,
            )
        return run, outcome

    # -- parallel execution ----------------------------------------------------
    def _run_parallel(
        self,
        live_plan,
        total,
        workers,
        progress=None,
        telemetry=None,
        predicted_results=None,
        resumed_results=None,
        pool=None,
        sink=None,
        equivalence_classes=None,
    ):
        """Fan the live plan out over worker processes, preserving plan order.

        ``live_plan`` holds ``(plan index, fault)`` pairs that need
        simulation; ``predicted_results`` maps plan indices to their
        pruning-synthesised pairs and ``resumed_results`` to pairs
        reloaded from the database.  Chunk results are consumed as they
        complete so the ``progress`` callback reports during parallel
        runs too; worker telemetry (metrics registries, event shards) is
        merged at the end.

        This is the self-healing loop: a chunk whose worker raises is
        requeued with capped exponential backoff, a chunk that breaks
        the process pool triggers a pool rebuild, repeatedly failing
        chunks are bisected to isolate the poison experiment, an
        experiment that kills a worker twice (or exhausts its retry
        budget) is quarantined, and when pool rebuilds are exhausted the
        remainder runs serially in this process.  Every successful
        chunk's results are streamed to the database before the next
        chunk is consumed.

        Predicted experiments are recorded into the parent's registry and
        written to a pseudo-shard (submission id 0, which no worker
        uses) so the shard merge interleaves their events back into plan
        order alongside the workers' simulated ones.

        With equivalence collapse the live plan holds only class
        representatives; each member's result is replayed in the parent
        as its representative's chunk arrives.  A representative that
        ends up quarantined replays nothing — its members are requeued
        as an ordinary chunk and simulated individually.
        """
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        config = self.config
        policy = config.recovery
        predicted_results = predicted_results or {}
        resumed_results = resumed_results or {}
        equivalence_classes = equivalence_classes or {}
        metrics_enabled = telemetry is not None and telemetry.metrics is not None
        reference_outputs = self.target.reference.outputs
        payload = WorkerPayload(
            workload=config.workload,
            iterations=config.iterations,
            watchdog_factor=config.watchdog_factor,
            environment_factory=config.environment_factory,
            reference=self.target.reference,
        )
        own_pool = pool is None
        if pool is None:
            pool = ReferencePool(workers)
        by_index: Dict[int, Tuple[ExperimentRun, Outcome]] = {}
        by_index.update(resumed_results)
        by_index.update(predicted_results)
        # ``(submission id, path)`` pairs; ordered numerically before the
        # merge.  Sorting the bare paths would be lexicographic —
        # ``shard10`` before ``shard2`` — as soon as submissions reach 10.
        shards: List[Tuple[int, str]] = []
        done = 0
        if predicted_results and telemetry is not None:
            if telemetry.metrics is not None:
                for run, outcome in predicted_results.values():
                    record_outcome(telemetry.metrics, run, outcome)
            predicted_shard = telemetry.shard_path(0)
            if predicted_shard is not None:
                with EventLog(predicted_shard) as shard_log:
                    for index in sorted(predicted_results):
                        run, outcome = predicted_results[index]
                        shard_log.emit(
                            "experiment_finished",
                            **experiment_event(index, run, outcome),
                        )
                shards.append((0, predicted_shard))
        if sink is not None:
            for index in sorted(predicted_results):
                run, outcome = predicted_results[index]
                sink.add(index, run, outcome)
            sink.flush()
        for index in sorted(set(resumed_results) | set(predicted_results)):
            done += 1
            if progress is not None:
                progress(done, total, by_index[index][1])

        # Chunk dispatch runs through the lease-based work queue — in
        # the campaign database when there is one (so the queue tables
        # are inspectable next to the results), else a private in-memory
        # queue.  The parent leases jobs on behalf of its pool workers;
        # retry, split and quarantine accounting is the queue's ``nack``.
        work = (
            self.database.work_queue(policy)
            if self.database is not None
            else WorkQueue(policy=policy)
        )
        topic = f"campaign-{self._campaign_id or 0}-chunks"
        # Stale rows from an earlier aborted run over the same campaign
        # would replay already-completed chunks; this run re-derives its
        # remaining plan from the results table instead.
        work.purge(topic)
        lease_worker = f"pool-{os.getpid()}"
        # Locality-aware scheduling: the live plan is executed in
        # injection-time order (consecutive experiments restore to
        # nearby boundaries) and cut into contiguous chunks drawn on
        # demand, sized so one chunk costs about
        # ``target_chunk_seconds`` at the measured throughput — small
        # chunks near the end keep the straggler tail short.  Chunks
        # enter the queue as they are drawn (a targeted lease keeps an
        # older requeued job from being claimed in their place).  Plan
        # order is restored when results arrive, so outcomes, storage
        # and merged telemetry are unchanged.
        reservoir: deque = deque(sorted(live_plan, key=lambda item: item[1].time))
        chunk_size = max(
            policy.min_chunk_size,
            min(
                policy.max_chunk_size,
                max(1, len(reservoir) // (workers * 8)),
            ),
        )
        active: Dict[object, Tuple[LeasedJob, int, Optional[str]]] = {}
        submission = 0
        rebuilds = 0
        fallback = False

        def counter_inc(name: str, amount: int = 1) -> None:
            if metrics_enabled:
                telemetry.metrics.counter(name).inc(amount)

        def emit(event: str, **payload_kv) -> None:
            if telemetry is not None:
                telemetry.emit(event, **payload_kv)

        def record_result(index, run, outcome) -> None:
            nonlocal done
            by_index[index] = (run, outcome)
            done += 1
            if sink is not None:
                sink.add(index, run, outcome)
            if progress is not None:
                progress(done, total, outcome)

        def quarantine(index, fault) -> None:
            run, outcome = self._quarantine_pair(index, fault, telemetry)
            if metrics_enabled:
                record_outcome(telemetry.metrics, run, outcome)
            emit("experiment_finished", **experiment_event(index, run, outcome))
            record_result(index, run, outcome)
            if sink is not None:
                sink.flush()
            # A quarantined representative proves nothing about its
            # equivalence class: simulate the members individually.
            members = equivalence_classes.pop(index, None)
            if members:
                work.enqueue(list(members), topic=topic)

        def replay_members(index, run, outcome) -> None:
            """Replay an arrived representative's result for its class."""
            for m_index, m_fault in equivalence_classes.get(index, ()):
                if m_index in by_index:
                    continue
                m_run = replay_equivalent(m_fault, run, index)
                if metrics_enabled:
                    record_outcome(telemetry.metrics, m_run, outcome)
                emit(
                    "experiment_finished",
                    **experiment_event(m_index, m_run, outcome),
                )
                record_result(m_index, m_run, outcome)

        def handle_failure(
            job: LeasedJob,
            shard,
            killed: bool,
            reason: str,
            certain: bool = True,
        ):
            """Nack one failed job: the queue requeues, splits or — once
            a single experiment crosses its kill/failure budget —
            declares it exhausted, at which point it is quarantined here.

            ``certain`` says the failure is attributable to this job
            (an ordinary exception always is; a pool break only when the
            job was alone in flight).  Only certain failures count
            toward a single experiment's quarantine thresholds.
            """
            if shard is not None and os.path.exists(shard):
                os.remove(shard)  # discard the dead worker's partial events
            verdict = work.nack(
                job.lease_id, killed=killed, certain=certain, reason=reason
            )
            if verdict.action == "exhausted":
                index, fault = verdict.items[0]
                quarantine(index, fault)
                return
            counter_inc("requeued_chunks")
            counter_inc("retries", len(job.items))
            emit(
                "chunk_requeued",
                ts=now(),
                experiments=len(job.items),
                attempt=job.attempt,
                killed=killed,
                reason=reason,
            )
            emit(
                "job_state",
                ts=now(),
                job=job.job_id,
                state=verdict.action,
                attempt=verdict.attempt,
                experiments=len(job.items),
                suspect=verdict.suspect,
            )
            # Pool mode owns the backoff sleep (the queue leaves the
            # requeued job immediately available), so tests can inject a
            # no-op sleep exactly as before.
            policy.sleep(verdict.delay)

        def submit_job(job: LeasedJob) -> bool:
            """Submit one leased job; False when the pool turned out broken."""
            nonlocal submission
            submission += 1
            shard = (
                telemetry.shard_path(submission) if telemetry is not None else None
            )
            args = (
                job.items,
                submission,
                shard,
                metrics_enabled,
                config.early_exit,
                config.chaos,
                policy.heartbeat_every,
            )
            try:
                future = pool.submit(_run_chunk, args)
            except BrokenProcessPool:
                # The job never ran: hand its lease back untouched so it
                # keeps its place at the front of the queue.
                work.release(job.lease_id)
                return False
            active[future] = (job, submission, shard)
            emit(
                "lease_granted",
                ts=now(),
                job=job.job_id,
                lease=job.lease_id,
                worker=submission,
                experiments=len(job.items),
                attempt=job.attempt,
                suspect=job.suspect,
            )
            return True

        try:
            if pool.prepare(payload):
                # A warm pool was torn down because its workers were
                # built for an incompatible payload — surface the cost.
                counter_inc("pool_respawns")
                emit(
                    "worker_pool_respawned",
                    ts=now(),
                    reason=pool.last_respawn_reason,
                )
            while (work.pending(topic) or reservoir or active) and not fallback:
                broken = False
                # Suspect jobs (in flight during an earlier pool break —
                # a break takes down *every* in-flight future, so which
                # chunk killed the worker is unknowable from the
                # exception alone) run in isolation, one in flight at a
                # time, so a repeat break has certain attribution; only
                # certain kills count toward quarantine.  Without this,
                # innocent experiments that happened to share the pool
                # with a poison one would accumulate its kills and get
                # quarantined alongside it.
                while not broken and not active:
                    job = work.lease(
                        lease_worker, topic=topic, suspect_only=True
                    )
                    if job is None:
                        break
                    broken = not submit_job(job)
                if not active:
                    while not broken:
                        job = work.lease(lease_worker, topic=topic)
                        if job is None:
                            break
                        broken = not submit_job(job)
                # Draw fresh chunks from the sorted reservoir to keep
                # every worker busy — but never alongside a suspect,
                # whose isolation is what makes a repeat pool break
                # attributable.
                if not broken and not any(
                    entry[0].suspect for entry in active.values()
                ):
                    while reservoir and not broken and len(active) < workers:
                        items = [
                            reservoir.popleft()
                            for _ in range(min(chunk_size, len(reservoir)))
                        ]
                        job_id = work.enqueue(items, topic=topic)
                        job = work.lease(
                            lease_worker, topic=topic, job_id=job_id
                        )
                        if job is None:
                            break
                        broken = not submit_job(job)
                if active and not broken:
                    in_flight = len(active)
                    done_set, _pending = concurrent.futures.wait(
                        list(active), return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    for future in done_set:
                        job, chunk_submission, shard = active.pop(future)
                        try:
                            (_sub, chunk_result, registry_dict, seconds) = (
                                future.result()
                            )
                        except BrokenProcessPool:
                            broken = True
                            handle_failure(
                                job,
                                shard,
                                killed=True,
                                reason="worker process died (pool broken)",
                                certain=in_flight == 1,
                            )
                        except Exception as exc:
                            handle_failure(
                                job, shard, killed=False, reason=repr(exc)
                            )
                        else:
                            # The ack is idempotent by plan index: only
                            # newly acked indices are recorded, so a
                            # result that arrives twice (e.g. a future
                            # that completed in the same instant its
                            # pool broke and was requeued) counts once.
                            newly = set(
                                work.ack(
                                    job.lease_id,
                                    [i for i, _run, _outcome in chunk_result],
                                )
                            )
                            for index, run, outcome in chunk_result:
                                if index not in newly:
                                    continue
                                record_result(index, run, outcome)
                                replay_members(index, run, outcome)
                            if sink is not None:
                                sink.flush()
                            if chunk_result and seconds > 0:
                                # Throughput feedback: aim the next chunk
                                # at ~target_chunk_seconds of work.
                                rate = len(chunk_result) / seconds
                                new_size = max(
                                    policy.min_chunk_size,
                                    min(
                                        policy.max_chunk_size,
                                        int(rate * policy.target_chunk_seconds),
                                    ),
                                )
                                if new_size != chunk_size:
                                    chunk_size = new_size
                                    emit(
                                        "chunk_resized",
                                        ts=now(),
                                        size=new_size,
                                        rate=rate,
                                    )
                            if telemetry is not None:
                                if registry_dict is not None:
                                    telemetry.metrics.merge(
                                        MetricsRegistry.from_dict(registry_dict)
                                    )
                                if shard is not None:
                                    shards.append((chunk_submission, shard))
                                telemetry.emit(
                                    "worker_chunk_done",
                                    ts=time.time(),
                                    worker=chunk_submission,
                                    experiments=len(chunk_result),
                                    seconds=seconds,
                                )
                                # Chunk boundary: push the live surface
                                # (event flush + due metrics snapshot)
                                # so status polls see this chunk.
                                telemetry.checkpoint()
                if broken:
                    # The pool is unusable: every in-flight chunk is
                    # lost.  Requeue them as suspects (any of them may
                    # have killed the worker) and rebuild, degrading to
                    # serial when the budget is out.
                    for future, (job, _sub, shard) in list(active.items()):
                        future.cancel()
                        handle_failure(
                            job,
                            shard,
                            killed=True,
                            reason="chunk lost to a broken worker pool",
                            certain=False,
                        )
                    active.clear()
                    rebuilds += 1
                    rebuilt = False
                    if rebuilds <= policy.max_pool_rebuilds:
                        emit("worker_pool_rebuilt", ts=now(), rebuilds=rebuilds)
                        try:
                            pool.rebuild(payload)
                            rebuilt = True
                        except Exception:
                            rebuilt = False
                    if not rebuilt:
                        fallback = True
        except BaseException:
            # Interrupted (SIGINT) or crashed mid-injection: the chunks
            # that did complete have both durable results (the sink
            # flushed them) and closed shard files — splice those events
            # into the main log before propagating, so the on-disk
            # stream matches the database and a resumed run can append
            # the remainder to a complete history.
            try:
                self._merge_worker_shards(telemetry, shards)
            except Exception:
                pass
            raise
        finally:
            if own_pool:
                pool.close()

        try:
            if fallback and (work.pending(topic) or reservoir):
                # Graceful degradation: pull every still-pending job out
                # of the queue and run the remainder in this process.
                leftover = work.drain(topic)
                leftover.extend(reservoir)
                reservoir.clear()
                emit("serial_fallback", ts=now(), experiments=len(leftover))
                pending = deque(leftover)
                while pending:
                    index, fault = pending.popleft()
                    if index in by_index:
                        continue
                    run, outcome = self._run_one_recovered(
                        index, fault, reference_outputs, telemetry
                    )
                    if metrics_enabled:
                        record_outcome(telemetry.metrics, run, outcome)
                    emit(
                        "experiment_finished", **experiment_event(index, run, outcome)
                    )
                    record_result(index, run, outcome)
                    if run.quarantined:
                        # No replay from a stand-in result: the class
                        # members join the serial queue instead.
                        pending.extend(equivalence_classes.get(index, ()))
                    else:
                        replay_members(index, run, outcome)
                if sink is not None:
                    sink.flush()
        except BaseException:
            try:
                self._merge_worker_shards(telemetry, shards)
            except Exception:
                pass
            raise

        self._merge_worker_shards(telemetry, shards)
        work.close()
        experiments = []
        outcomes = []
        for index in range(total):
            run, outcome = by_index[index]
            experiments.append(run)
            outcomes.append(outcome)
        return experiments, outcomes

    @staticmethod
    def _merge_worker_shards(
        telemetry: Optional[Telemetry], shards: List[Tuple[int, str]]
    ) -> None:
        """Splice completed worker shards into the main event log.

        Consumes ``shards`` so a second call (e.g. the normal-path merge
        after an exception-path merge already ran) is a no-op.
        """
        if telemetry is not None and telemetry.events is not None and shards:
            merge_event_shards(
                telemetry.events, [path for _index, path in sorted(shards)]
            )
            shards.clear()
            telemetry.events.flush()

    @staticmethod
    def _classify(run: ExperimentRun, reference_outputs: List[float]) -> Outcome:
        detected_by = (
            run.detection.mechanism.value if run.detection is not None else None
        )
        return classify_experiment(
            observed=run.outputs,
            reference=reference_outputs,
            detected_by=detected_by,
            final_state_differs=run.final_state_differs,
        )
