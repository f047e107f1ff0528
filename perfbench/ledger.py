"""Outside-in tracing: spans around the program's public callables.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
replaces public functions and methods of each layer with wrappers that
record a span — name, start, end, parent — in memory, and puts the
originals back when it is uninstalled.  Pool workers are forked from the
traced parent, so they inherit the wrappers; a worker appends its spans
to a spool file of its own (one line per span, flushed as written,
because a pool worker exits without running ``atexit`` hooks), which
the parent reads after the campaign.

:func:`layer_metrics` turns the spans of one traced campaign into the
per-layer ledger.  :class:`FirstCall` is the one hook the untraced run
keeps: it timestamps the first call into the injection layer and removes
itself, so ``setup_s`` costs nothing per experiment.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Spans that structure the tree but are not a layer of their own; the
#: campaign's self time is what no layer span below them covers.
STRUCTURAL = frozenset({"campaign", "campaign.run", "service.run_once"})

#: Injection-layer spans; nested ones (an experiment inside a batch call)
#: are not counted twice.
TARGET_SPANS = ("target.experiment", "target.batch")

#: ``(name, unit, better)`` of every per-layer metric, in print order.
LAYER_METRICS = [
    ("trace.campaign_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "share", "higher"),
    ("campaign.self_s", "s", "lower"),
    ("target.construct_ms", "ms", "lower"),
    ("target.reference_s", "s", "lower"),
    ("target.reference_record_s", "s", "lower"),
    ("target.reference_record_share", "share", "lower"),
    ("target.busy_s", "s", "lower"),
    ("target.experiment_ms.p50", "ms", "lower"),
    ("target.experiment_ms.p95", "ms", "lower"),
    ("target.experiment_calls", "count", "lower"),
    ("target.batch_ms", "ms", "lower"),
    ("target.batch_calls", "count", "lower"),
    ("target.minstr_per_s", "Minstr/s", "higher"),
    ("target.instructions", "count", "lower"),
    ("target.early_exit_share", "share", "higher"),
    ("dataplane.seat_us", "us", "lower"),
    ("dataplane.payload_bytes", "bytes", "lower"),
    ("dataplane.pickle_ms", "ms", "lower"),
    ("dataplane.unpickle_ms", "ms", "lower"),
    ("pruning.preclassify_ms", "ms", "lower"),
    ("pruning.synthesize_ms", "ms", "lower"),
    ("pruning.predicted_share", "share", "higher"),
    ("faults.sample_ms", "ms", "lower"),
    ("analysis.classify_us", "us", "lower"),
    ("analysis.summary_ms", "ms", "lower"),
    ("database.store_batch_ms", "ms", "lower"),
    ("database.rows", "count", "lower"),
    ("database.begin_finish_ms", "ms", "lower"),
    ("database.read_ms", "ms", "lower"),
    ("obs.emit_us", "us", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.merge_ms", "ms", "lower"),
    ("pool.prepare_s", "s", "lower"),
    ("pool.submits", "count", "lower"),
    ("pool.roundtrip_ms", "ms", "lower"),
    ("pool.wait_s", "s", "lower"),
    ("pool.respawns", "count", "lower"),
    ("workqueue.lease_ms", "ms", "lower"),
    ("workqueue.ack_ms", "ms", "lower"),
    ("workqueue.heartbeat_ms", "ms", "lower"),
    ("workqueue.requeues", "count", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.overhead_s", "s", "lower"),
]

#: Per-campaign span totals of the parent process, printed as a share of
#: the traced campaign (worker totals and per-call figures are not).
CAMPAIGN_PARTS = frozenset({
    "trace.overhead_s", "campaign.self_s", "target.construct_ms",
    "target.reference_s", "target.reference_record_s", "pruning.preclassify_ms",
    "pruning.synthesize_ms", "faults.sample_ms", "analysis.summary_ms",
    "database.store_batch_ms", "database.begin_finish_ms", "obs.merge_ms",
    "pool.prepare_s", "pool.wait_s", "workqueue.lease_ms", "workqueue.ack_ms",
    "workqueue.heartbeat_ms", "service.submit_ms", "service.overhead_s",
})


class FirstCall:
    """Timestamp the first call of any of ``(owner, attribute)`` targets.

    The wrapper restores every original on its first call, so only one
    call per campaign pays for it.  With ``at_return`` the timestamp is
    taken when that first call returns (a pool's first submit is where
    the executor forks its workers).
    """

    def __init__(self, targets, at_return: bool = False):
        self._targets = list(targets)
        self._originals = [getattr(owner, attr) for owner, attr in self._targets]
        self._at_return = at_return
        self.time: Optional[float] = None

    def arm(self) -> None:
        self.time = None
        for (owner, attr), original in zip(self._targets, self._originals):
            setattr(owner, attr, self._wrap(original))

    def disarm(self) -> None:
        for (owner, attr), original in zip(self._targets, self._originals):
            setattr(owner, attr, original)

    def _wrap(self, original):
        probe = self

        def first_call(*args, **kwargs):
            probe.disarm()
            if not probe._at_return:
                probe.time = time.perf_counter()
                return original(*args, **kwargs)
            result = original(*args, **kwargs)
            probe.time = time.perf_counter()
            return result

        return first_call


def _reference_label(args, kwargs) -> str:
    record = kwargs.get("record_access", args[1] if len(args) > 1 else False)
    return "target.reference_record" if record else "target.reference"


def _simulated(target, run) -> tuple:
    """``(instructions simulated, early exit)`` of one experiment: the
    run ends at ``instructions_executed`` and started from the reference
    boundary of its injection iteration."""
    reference = target.reference
    boundary = reference.instructions_at[reference.locate(run.fault.time)]
    return run.instructions_executed - boundary, run.early_exit_iteration is not None


def _experiment_info(args, result, _start) -> dict:
    instructions, early = _simulated(args[0], result)
    return {"experiments": 1, "instructions": instructions, "early_exits": int(early)}


def _batch_info(args, result, _start) -> dict:
    pairs = [_simulated(args[0], run) for run in result]
    return {
        "experiments": len(pairs),
        "instructions": sum(n for n, _ in pairs),
        "early_exits": sum(int(e) for _, e in pairs),
    }


class Tracer:
    """Records spans from wrappers around each layer's public callables."""

    def __init__(self, spool_dir: str, trace_path: str):
        self.spool_dir = spool_dir
        #: Where :meth:`dump` writes the spans when the run ends.
        self.trace_path = trace_path
        self.pid = os.getpid()
        self._main_thread = threading.get_ident()
        #: ``[label, start, end, parent index, info]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Parent-side submit-to-done seconds of every pool future.
        self.roundtrips: List[float] = []
        #: Objects the seat probe and payload measurement need.
        self.captured: Dict[str, object] = {}
        self._spool = None
        self._patches: List[tuple] = []

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        import concurrent.futures

        import repro.analysis
        import repro.goofi.campaign as campaign_mod
        from repro.goofi.campaign import CampaignResult, ScifiCampaign
        from repro.goofi.database import CampaignDatabase
        from repro.goofi.pool import ReferencePool
        from repro.goofi.target import TargetSystem
        from repro.goofi.workqueue import WorkQueue
        from repro.obs.events import EventLog
        from repro.service import CampaignService

        def capture(key):
            def keep(_args, result, _start):
                self.captured[key] = result

            return keep

        def rows(args, _result, _start):
            return {"rows": len(args[2])}

        def requeued(_args, result, _start):
            return {"requeues": len(result) if isinstance(result, list) else 1}

        def prepared(_args, result, _start):
            return {"respawns": int(bool(result))}

        def campaign_run(args, _result, _start):
            self.captured["campaign"] = args[0]

        def pruned(_args, result, _start):
            self.captured["pruned"] = result
            return {"predicted": len(result.predicted), "total": result.total}

        layers = [
            (TargetSystem, "__init__", "target.construct", None),
            (TargetSystem, "run_reference", _reference_label, capture("reference")),
            (TargetSystem, "run_experiment", "target.experiment", _experiment_info),
            (TargetSystem, "run_experiment_batch", "target.batch", _batch_info),
            (campaign_mod, "sample_fault_plan", "faults.sample", capture("plan")),
            (campaign_mod, "preclassify_pairs", "pruning.preclassify", pruned),
            (campaign_mod, "synthesize_run", "pruning.synthesize", None),
            (campaign_mod, "classify_experiment", "analysis.classify", None),
            (campaign_mod, "merge_event_shards", "obs.merge", None),
            (CampaignResult, "summary", "analysis.summary", None),
            (repro.analysis, "render_outcome_table", "analysis.summary", None),
            (ScifiCampaign, "run", "campaign.run", campaign_run),
            (CampaignDatabase, "begin_campaign", "database.begin_finish", None),
            (CampaignDatabase, "finish_campaign", "database.begin_finish", None),
            (CampaignDatabase, "store_experiment_batch", "database.store_batch", rows),
            (CampaignDatabase, "completed_experiments", "database.read", None),
            (CampaignDatabase, "load_summary", "database.read", None),
            (EventLog, "emit", "obs.emit", None),
            (ReferencePool, "prepare", "pool.prepare", prepared),
            (ReferencePool, "rebuild", "pool.rebuild", None),
            (ReferencePool, "submit", "pool.submit", self._watch_future),
            (concurrent.futures, "wait", "pool.wait", None),
            (WorkQueue, "lease", "workqueue.lease", None),
            (WorkQueue, "ack", "workqueue.ack", None),
            (WorkQueue, "heartbeat", "workqueue.heartbeat", None),
            (WorkQueue, "nack", "workqueue.requeue", requeued),
            (WorkQueue, "expire_due", "workqueue.requeue", requeued),
            (CampaignService, "submit_campaign", "service.submit", None),
            (CampaignService, "run_once", "service.run_once", None),
        ]
        for owner, attr, label, info in layers:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(label, original, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._spool is not None:
            self._spool.close()
            self._spool = None

    def reset(self) -> None:
        """Forget the spans of the previous campaign."""
        self.spans = []
        self._stack = []
        self.roundtrips = []
        self.captured = {}

    # -- recording -----------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields the span record."""
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _watch_future(self, _args, future, started: float) -> None:
        roundtrips = self.roundtrips
        future.add_done_callback(
            lambda _f: roundtrips.append(time.perf_counter() - started)
        )

    def _wrap(self, label, original, info):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._become_worker()
            if threading.get_ident() != tracer._main_thread:
                return original(*args, **kwargs)
            name = label(args, kwargs) if callable(label) else label
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if info is not None:
                span[4] = info(args, result, span[1])
            if tracer._spool is not None:
                parent = tracer.spans[span[3]][0] if span[3] is not None else None
                tracer._spool.write(json.dumps([name, span[1], span[2], parent, span[4]]) + "\n")
            return result

        return traced

    def _become_worker(self) -> None:
        """First traced call in a forked worker: drop the parent's spans
        and open this process's spool file."""
        self.pid = os.getpid()
        self._main_thread = threading.get_ident()
        self.reset()
        path = os.path.join(self.spool_dir, f"spans-{self.pid}.jsonl")
        self._spool = open(path, "a", encoding="utf-8", buffering=1)

    def collect_worker_spans(self) -> List[list]:
        """Read and delete the spool files of finished workers."""
        spans = []
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.jsonl"))):
            with open(path, "r", encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
            os.remove(path)
        return spans

    def dump(self, worker_spans: List[list], campaign: int) -> None:
        """Append one campaign's spans to the trace file as JSON lines."""
        with open(self.trace_path, "a", encoding="utf-8") as handle:
            for name, start, end, parent, info in self.spans:
                parent_name = self.spans[parent][0] if parent is not None else None
                handle.write(json.dumps(
                    {"campaign": campaign, "process": "parent", "name": name,
                     "start": start, "end": end, "parent": parent_name, "info": info}
                ) + "\n")
            for name, start, end, parent, info in worker_spans:
                handle.write(json.dumps(
                    {"campaign": campaign, "process": "worker", "name": name,
                     "start": start, "end": end, "parent": parent, "info": info}
                ) + "\n")


# -- the ledger --------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: List[list], worker_spans: List[list], roundtrips: List[float]) -> Dict[str, float]:
    """The per-layer ledger of one traced campaign (without the probes)."""
    names = [s[0] for s in spans]
    parents = [names[s[3]] if s[3] is not None else None for s in spans]
    flat = [(s[0], s[2] - s[1], parent, s[4]) for s, parent in zip(spans, parents)]
    flat += [(name, end - start, parent, info) for name, start, end, parent, info in worker_spans]

    def durations(name):
        return [d for n, d, _p, _i in flat if n == name]

    def total(name):
        return sum(durations(name))

    root = [s for s in spans if s[0] == "campaign"]
    campaign_s = root[0][2] - root[0][1]

    # Layer spans not nested in another layer span cover the campaign.
    covered = 0.0
    layer_ancestor = [False] * len(spans)
    for index, span in enumerate(spans):
        parent = span[3]
        if parent is None:
            continue
        inside = layer_ancestor[parent] or spans[parent][0] not in STRUCTURAL
        layer_ancestor[index] = inside
        if not inside and span[0] not in STRUCTURAL:
            covered += span[2] - span[1]

    outer = [(d, i) for n, d, p, i in flat if n in TARGET_SPANS and p not in TARGET_SPANS]
    busy = sum(d for d, _i in outer)
    instructions = sum(i["instructions"] for _d, i in outer)
    experiments = sum(i["experiments"] for _d, i in outer)
    early = sum(i["early_exits"] for _d, i in outer)
    experiment_ms = [d * 1e3 for d in durations("target.experiment")]
    preclassify = [i for n, _d, _p, i in flat if n == "pruning.preclassify"]
    predicted = sum(i["predicted"] for i in preclassify)
    planned = sum(i["total"] for i in preclassify)
    run_once = total("service.run_once")

    return {
        "trace.campaign_s": campaign_s,
        "trace.coverage": covered / campaign_s,
        "campaign.self_s": campaign_s - covered,
        "target.construct_ms": total("target.construct") * 1e3,
        "target.reference_s": total("target.reference"),
        "target.reference_record_s": total("target.reference_record"),
        "target.reference_record_share": total("target.reference_record") / campaign_s,
        "target.busy_s": busy,
        "target.experiment_ms.p50": _median(experiment_ms),
        "target.experiment_ms.p95": _percentile(experiment_ms, 0.95),
        "target.experiment_calls": len(experiment_ms),
        "target.batch_ms": _median([d * 1e3 for d in durations("target.batch")]),
        "target.batch_calls": len(durations("target.batch")),
        "target.minstr_per_s": instructions / busy / 1e6 if busy else 0.0,
        "target.instructions": instructions,
        "target.early_exit_share": early / experiments if experiments else 0.0,
        "pruning.preclassify_ms": total("pruning.preclassify") * 1e3,
        "pruning.synthesize_ms": total("pruning.synthesize") * 1e3,
        "pruning.predicted_share": predicted / planned if planned else 0.0,
        "faults.sample_ms": total("faults.sample") * 1e3,
        "analysis.classify_us": _median(durations("analysis.classify")) * 1e6,
        "analysis.summary_ms": total("analysis.summary") * 1e3,
        "database.store_batch_ms": total("database.store_batch") * 1e3,
        "database.rows": sum(i["rows"] for n, _d, _p, i in flat if n == "database.store_batch"),
        "database.begin_finish_ms": total("database.begin_finish") * 1e3,
        "database.read_ms": total("database.read") * 1e3,
        "obs.emit_us": _median(durations("obs.emit")) * 1e6,
        "obs.events": len(durations("obs.emit")),
        "obs.merge_ms": total("obs.merge") * 1e3,
        "pool.prepare_s": total("pool.prepare"),
        "pool.submits": len(durations("pool.submit")),
        "pool.roundtrip_ms": _median(roundtrips) * 1e3,
        "pool.wait_s": total("pool.wait"),
        "pool.respawns": len(durations("pool.rebuild"))
        + sum(i["respawns"] for n, _d, _p, i in flat if n == "pool.prepare"),
        "workqueue.lease_ms": total("workqueue.lease") * 1e3,
        "workqueue.ack_ms": total("workqueue.ack") * 1e3,
        "workqueue.heartbeat_ms": total("workqueue.heartbeat") * 1e3,
        "workqueue.requeues": sum(i["requeues"] for n, _d, _p, i in flat if n == "workqueue.requeue"),
        "service.submit_ms": total("service.submit") * 1e3,
        "service.overhead_s": run_once - total("campaign.run") if run_once else 0.0,
    }


def seat_probe(target, faults) -> float:
    """Median microseconds of ``restore_boundary`` over the boundaries of
    ``faults`` in execution (injection-time) order."""
    reference = target.reference
    boundaries = [reference.locate(f.time) for f in sorted(faults, key=lambda f: f.time)]
    seconds = []
    for boundary in boundaries:
        start = time.perf_counter()
        target.restore_boundary(boundary)
        seconds.append(time.perf_counter() - start)
    return _median(seconds) * 1e6


def payload_probe(reference, repeats: int = 5) -> Dict[str, float]:
    """Size and median (un)pickle time of the shipped reference run."""
    dumps, loads = [], []
    blob = b""
    for _ in range(repeats):
        start = time.perf_counter()
        blob = pickle.dumps(reference)
        dumps.append(time.perf_counter() - start)
        start = time.perf_counter()
        pickle.loads(blob)
        loads.append(time.perf_counter() - start)
    return {
        "dataplane.payload_bytes": len(blob),
        "dataplane.pickle_ms": _median(dumps) * 1e3,
        "dataplane.unpickle_ms": _median(loads) * 1e3,
    }
