"""Crash-safety machinery for fault-injection campaigns.

The paper's subject is surviving faults — executable assertions plus
best-effort recovery — and the injection harness itself follows the same
philosophy.  This module holds the pieces
:class:`~repro.goofi.campaign.ScifiCampaign` uses to make campaign
execution crash-safe and self-healing:

* :class:`RecoveryPolicy` — retry budgets, capped exponential backoff,
  quarantine thresholds and the database batch size;
* :class:`ResultSink` — streams classified experiments into the
  database in batched transactions, so every outcome is durable the
  moment its chunk finishes rather than at campaign end;
* :func:`config_fingerprint` / :func:`workload_digest` — the stored
  identity a resumed campaign is checked against before re-deriving its
  fault plan;
* :func:`quarantined_run` — the conservative stand-in result recorded
  (``provenance='quarantined'``) for an experiment that repeatedly
  crashed its worker, so a poison experiment never aborts a campaign;
* :class:`ChaosSpec` — the test/CI hook that injects deterministic
  worker crashes ("crash on experiment N, K times"), counted across
  processes through exclusive marker files.

See ``docs/robustness.md`` for the failure model and policy rationale.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignError
from repro.goofi.target import ExperimentRun


@dataclass
class RecoveryPolicy:
    """Knobs of the campaign's worker-failure recovery.

    Attributes:
        max_chunk_retries: failures a single experiment may accumulate
            (worker exceptions, counted once its chunk has been bisected
            down to size one) before it is quarantined.
        quarantine_after: worker *kills* (process deaths) a single
            experiment may cause before it is quarantined.  The paper's
            best-effort stance: two strikes and the experiment is
            recorded as poisoned instead of aborting the campaign.
        backoff_base: first requeue delay in seconds.
        backoff_cap: upper bound on any requeue delay.
        max_pool_rebuilds: times a broken process pool is rebuilt before
            the campaign degrades to serial in-process execution.
        db_batch: experiments per streaming database transaction.
        heartbeat_every: experiments between two ``worker_heartbeat``
            events (and live event-log flushes) in the execution loops;
            the cadence of the live status surface (`docs/
            observability.md`).  Like every knob here it never affects
            outcomes and is not part of the campaign fingerprint.
        target_chunk_seconds: the locality-aware scheduler's target wall
            time per worker chunk; completed-chunk throughput feeds back
            into the next chunk's size so slow phases keep chunks small
            (short straggler tails) and fast phases amortise dispatch
            overhead over larger ones.
        min_chunk_size: lower bound on an adaptively sized chunk.
        max_chunk_size: upper bound on an adaptively sized chunk.
        lease_ttl: default work-queue lease lifetime in seconds — how
            long a leased job may go without a heartbeat before
            :meth:`~repro.goofi.workqueue.WorkQueue.expire_due` requeues
            it.  Generous by default: the in-process pool dispatcher
            holds its own leases and must never self-expire mid-chunk;
            service workers pass a tight ttl explicitly.
        sleep: injectable delay function (tests replace it to avoid
            real waiting); never part of the campaign fingerprint.
    """

    max_chunk_retries: int = 3
    quarantine_after: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_pool_rebuilds: int = 2
    db_batch: int = 32
    heartbeat_every: int = 25
    target_chunk_seconds: float = 1.0
    min_chunk_size: int = 4
    max_chunk_size: int = 128
    lease_ttl: float = 600.0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)


def backoff_seconds(attempt: int, policy: RecoveryPolicy) -> float:
    """Capped exponential backoff for the ``attempt``-th requeue (0-based)."""
    return min(policy.backoff_cap, policy.backoff_base * (2.0 ** attempt))


def split_chunk(
    items: Sequence[Tuple[int, object]]
) -> Tuple[List[Tuple[int, object]], List[Tuple[int, object]]]:
    """Bisect a failing chunk to isolate a poison experiment.

    Returns the two non-empty halves; callers must not pass chunks of
    size one (those are retried or quarantined, never split).
    """
    if len(items) < 2:
        raise CampaignError("cannot split a chunk of fewer than two experiments")
    middle = len(items) // 2
    return list(items[:middle]), list(items[middle:])


# -- campaign identity (resume refuses on mismatch) ---------------------------
def workload_digest(workload) -> str:
    """A stable digest of a compiled workload's loadable image.

    Covers the code words, the initial data image and the entry point —
    everything that determines the reference run and therefore the fault
    plan.  Compilation is deterministic, so recompiling the same
    algorithm in a later process yields the same digest.
    """
    program = workload.program
    digest = hashlib.blake2b(digest_size=16)
    for word in program.code:
        digest.update(int(word).to_bytes(4, "little"))
    for address in sorted(program.data):
        digest.update(int(address).to_bytes(4, "little"))
        digest.update(int(program.data[address]).to_bytes(4, "little"))
    digest.update(int(program.entry).to_bytes(4, "little"))
    return digest.hexdigest()


def config_fingerprint(config) -> Dict[str, object]:
    """The resume-relevant identity of a campaign configuration.

    Only fields that change the fault plan or experiment outcomes are
    included: the workload image, fault count, seed, iteration count,
    partition restriction and watchdog factor.  Options proven
    outcome-invariant by the equivalence tests (``early_exit``,
    ``prune``, ``collapse``) and ``batch_size``, which changes nothing,
    may differ between the original and the resumed run without
    affecting bit-identity of the summary.  Fields removed from the configuration were never part of
    the fingerprint, so databases written with them resume unchanged.
    """
    return {
        "workload": workload_digest(config.workload),
        "faults": config.faults,
        "seed": config.seed,
        "iterations": config.iterations,
        "partitions": list(config.partitions) if config.partitions else None,
        "watchdog_factor": config.watchdog_factor,
    }


def check_fingerprint(stored: Optional[Dict[str, object]], current: Dict[str, object]) -> None:
    """Refuse a resume whose configuration diverged from the stored one."""
    if stored is None:
        raise CampaignError(
            "campaign has no stored configuration fingerprint "
            "(written before schema v4?) — cannot resume safely"
        )
    if stored != current:
        differing = sorted(
            key
            for key in set(stored) | set(current)
            if stored.get(key) != current.get(key)
        )
        raise CampaignError(
            "resume refused: configuration mismatch on "
            f"{', '.join(differing)} (stored {stored!r}, current {current!r})"
        )


# -- streaming persistence -----------------------------------------------------
class ResultSink:
    """Batches classified experiments into the campaign database.

    Each :meth:`flush` is one SQLite transaction, so a crash mid-stream
    loses at most the unflushed tail — never half a batch.  ``None``
    databases make every method a no-op, keeping campaign code branchless.
    """

    def __init__(self, database, campaign_id: Optional[int], batch_size: int = 32):
        self.database = database if campaign_id is not None else None
        self.campaign_id = campaign_id
        self.batch_size = max(1, batch_size)
        self.stored = 0
        self._pending: List[Tuple[int, object, object]] = []

    def add(self, plan_index: int, run, outcome) -> None:
        """Queue one classified experiment; flushes at the batch size."""
        if self.database is None:
            return
        self._pending.append((plan_index, run, outcome))
        if len(self._pending) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Commit every queued experiment in one transaction."""
        if self.database is None or not self._pending:
            return
        self.database.store_experiment_batch(self.campaign_id, self._pending)
        self.stored += len(self._pending)
        self._pending = []


# -- quarantine ----------------------------------------------------------------
def quarantined_run(fault, reference_outputs: Sequence[float]) -> ExperimentRun:
    """The conservative stand-in result for a worker-killing experiment.

    Nothing can be observed from an experiment whose simulation dies, so
    it is recorded as if its run had timed out with the output held at
    the initial value and a differing final state — a deterministic,
    conservative stand-in (how severely it classifies depends on how far
    the reference trajectory moves from its initial output).  The run is
    flagged ``quarantined`` so it is stored with
    ``provenance='quarantined'`` and analyses can exclude or re-examine
    it; resumed runs reproduce the same stand-in bit for bit.
    """
    held = reference_outputs[0] if reference_outputs else 0.0
    return ExperimentRun(
        fault=fault,
        outputs=[held] * len(reference_outputs),
        timed_out=True,
        final_state_differs=True,
        instructions_executed=0,
        quarantined=True,
    )


# -- chaos injection (tests and the CI smoke) ----------------------------------
class ChaosError(RuntimeError):
    """The injected worker failure (deliberately not a ReproError: it
    simulates an arbitrary bug or resource kill inside a worker)."""


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic worker-crash injection for chaos tests.

    Attributes:
        marker_dir: directory for cross-process crash accounting; each
            crash claims one exclusive marker file, so budgets hold even
            though workers are respawned between attempts.
        crashes: plan index -> number of times that experiment crashes.
        mode: ``"raise"`` raises :class:`ChaosError` inside the worker
            (the pool survives); ``"exit"`` calls ``os._exit`` (the
            worker dies and the pool breaks, like an OOM kill).
    """

    marker_dir: str
    crashes: Dict[int, int]
    mode: str = "raise"

    @classmethod
    def from_json(cls, text: str, marker_dir: str) -> "ChaosSpec":
        """Parse ``{"3": 1}`` or ``{"crashes": {"3": 1}, "mode": "exit"}``."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise CampaignError("chaos spec must be a JSON object")
        mode = "raise"
        crashes = payload
        if "crashes" in payload:
            crashes = payload["crashes"]
            mode = payload.get("mode", "raise")
        if mode not in ("raise", "exit"):
            raise CampaignError(f"chaos mode must be raise/exit, not {mode!r}")
        return cls(
            marker_dir=marker_dir,
            crashes={int(k): int(v) for k, v in crashes.items()},
            mode=str(mode),
        )


def chaos_maybe_crash(spec: Optional[ChaosSpec], index: int) -> None:
    """Crash if ``spec`` still has crash budget for plan ``index``.

    The budget is claimed through ``O_EXCL`` marker files, so exactly
    ``crashes[index]`` crashes happen across any number of worker
    processes and retries.
    """
    if spec is None:
        return
    budget = spec.crashes.get(index, 0)
    for attempt in range(budget):
        path = os.path.join(spec.marker_dir, f"crash-{index}-{attempt}")
        try:
            handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(handle)
        if spec.mode == "exit":
            os._exit(1)
        raise ChaosError(f"chaos: injected crash on experiment {index}")
