"""Fault-plan pruning from the reference run's def/use liveness.

Given the :class:`~repro.faults.liveness.LivenessMap` recorded during
``run_reference(record_access=True)``, :func:`preclassify_plan` splits a
sampled fault plan into

* **live** faults — the bit is read before any full overwrite, so only
  simulation can tell the outcome; and
* **predicted** faults — the bit is provably overwritten (written with an
  independent value before its next read) or provably latent (never
  touched again), so the experiment's result is known without running it.

:func:`synthesize_run` turns a predicted fault into an
:class:`~repro.goofi.target.ExperimentRun` that classifies — through the
ordinary §4.1 classifier — into exactly the :class:`Outcome` the
simulation would have produced: reference outputs with an unchanged
final state for *overwritten*, reference outputs with a differing final
state for *latent*.  Because :class:`Outcome` is a frozen dataclass,
predicted and simulated outcomes compare equal, which is what lets
:func:`validate_pruning` assert full per-experiment equivalence.

The same liveness map powers *equivalence collapse* of the live
remainder: :func:`collapse_live_plan` groups live single-bit faults
whose first live read is the same dynamic access consuming the same
delivered value — provably outcome-identical trajectories, see
:meth:`~repro.faults.liveness.LivenessMap.first_live_read` — so the
campaign simulates one representative per class and
:func:`replay_equivalent` copies its result to the other members
(``provenance='equivalent'``).  At the default fault density the plan
samples ~500 faults over ~3.5M element·time sites, so two faults
hitting the same first-read site are rare: expect classes of size 1
almost always, i.e. collapse is a correctness-preserving *cap* on
duplicate work, not a guaranteed speedup (``docs/performance.md``).

:func:`validate_pruning` and :func:`validate_collapse` share one
harness that first runs a small throwaway warm-up campaign so both
timed legs see identical warm-start conditions — process pool spawned,
dispatch tables predecoded — instead of the first leg silently paying
the cold-start tax (which used to bias the reported wall-clock ratio
*against* pruning).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.classify import Outcome
from repro.analysis.report import render_outcome_table
from repro.errors import CampaignError
from repro.faults.liveness import Liveness, LivenessMap
from repro.faults.models import FaultDescriptor
from repro.goofi.target import ExperimentRun, ReferenceRun


@dataclass
class PrunedPlan:
    """A fault plan split by the def/use pre-classification.

    Attributes:
        live: ``(plan index, fault)`` pairs that must be simulated.
        predicted: ``(plan index, fault, classification)`` triples whose
            outcome is provable from the reference trace.
    """

    live: List[Tuple[int, FaultDescriptor]]
    predicted: List[Tuple[int, FaultDescriptor, Liveness]]

    @property
    def total(self) -> int:
        """Size of the original plan."""
        return len(self.live) + len(self.predicted)

    @property
    def reduction(self) -> float:
        """Fraction of experiments that need no simulation."""
        return len(self.predicted) / self.total if self.total else 0.0


def preclassify_plan(
    plan: Sequence[FaultDescriptor], liveness: LivenessMap
) -> PrunedPlan:
    """Split a fault plan into live and predicted experiments."""
    return preclassify_pairs(list(enumerate(plan)), liveness)


def preclassify_pairs(
    pairs: Sequence[Tuple[int, FaultDescriptor]], liveness: LivenessMap
) -> PrunedPlan:
    """:func:`preclassify_plan` over pre-indexed ``(plan index, fault)``
    pairs — the resume path prunes only the not-yet-completed remainder
    of a plan, whose indices are not contiguous."""
    live: List[Tuple[int, FaultDescriptor]] = []
    predicted: List[Tuple[int, FaultDescriptor, Liveness]] = []
    for index, fault in pairs:
        classification = liveness.classify_fault(fault)
        if classification is Liveness.LIVE:
            live.append((index, fault))
        else:
            predicted.append((index, fault, classification))
    return PrunedPlan(live=live, predicted=predicted)


def synthesize_run(
    fault: FaultDescriptor,
    classification: Liveness,
    reference: ReferenceRun,
) -> ExperimentRun:
    """Build the run a predicted fault would have produced.

    An overwritten fault re-converges to the reference, so its outputs
    match and the final state is identical; a latent fault also delivers
    the reference outputs (nothing ever read the bit) but the flip
    survives into the final-state hash.
    """
    if classification is Liveness.LIVE:
        raise CampaignError("live faults must be simulated, not synthesised")
    return ExperimentRun(
        fault=fault,
        # Predicted runs deliver the reference trace verbatim.
        outputs=list(reference.outputs),
        final_state_differs=classification is Liveness.LATENT,
        predicted=True,
    )


# -- equivalence collapse ------------------------------------------------------
#: A collapse-class key: ``(partition, element, trace ordinal of the
#: first live read, consumed mask, delivered masked value)``.  Equal
#: keys put the machine into the identical full state at the consuming
#: read (the pre-read state is reference ⊕ flip for both, and an equal
#: delivered value at the same site forces the same flipped bit), so
#: the whole subsequent trajectory coincides.
CollapseKey = Tuple[str, str, int, int, int]


@dataclass
class CollapsedPlan:
    """The live plan after grouping outcome-equivalent faults.

    Attributes:
        representatives: ``(plan index, fault)`` pairs to simulate —
            one per equivalence class, plus every live fault that has
            no collapse key (multi-bit, always-live or uncovered).
        members: representative plan index → the other
            ``(plan index, fault)`` pairs of its class, whose results
            are replayed from the representative's.  Only classes with
            at least one non-representative member appear.
    """

    representatives: List[Tuple[int, FaultDescriptor]]
    members: Dict[int, List[Tuple[int, FaultDescriptor]]] = field(
        default_factory=dict
    )

    @property
    def collapsed(self) -> int:
        """Live faults that need no simulation of their own."""
        return sum(len(group) for group in self.members.values())

    @property
    def classes(self) -> int:
        """Number of multi-member equivalence classes."""
        return len(self.members)


def collapse_key(
    fault: FaultDescriptor, liveness: LivenessMap
) -> Optional[CollapseKey]:
    """The fault's collapse-class key, or ``None`` if it must not collapse.

    Only single-bit faults with a localisable first live read get a
    key: a multi-bit fault's bits interact (one bit may be consumed
    while another is still latent), and always-live or uncovered
    elements have no trace site to anchor the equivalence on.
    """
    if len(fault.targets) != 1:
        return None
    target = fault.targets[0]
    site = liveness.first_live_read(target, fault.time)
    if site is None:
        return None
    return (
        target.partition,
        target.element,
        site.ordinal,
        site.mask,
        site.delivered,
    )


def collapse_live_plan(
    pairs: Sequence[Tuple[int, FaultDescriptor]], liveness: LivenessMap
) -> CollapsedPlan:
    """Group live faults into outcome-equivalence classes.

    The first class member in plan order becomes the representative, so
    every collapsed member's plan index is strictly greater than its
    representative's — the execution loops exploit this (a member's
    replay always happens after its representative simulated).
    """
    representatives: List[Tuple[int, FaultDescriptor]] = []
    members: Dict[int, List[Tuple[int, FaultDescriptor]]] = {}
    leaders: Dict[CollapseKey, int] = {}
    for index, fault in pairs:
        key = collapse_key(fault, liveness)
        if key is None:
            representatives.append((index, fault))
            continue
        leader = leaders.get(key)
        if leader is None:
            leaders[key] = index
            representatives.append((index, fault))
        else:
            members.setdefault(leader, []).append((index, fault))
    return CollapsedPlan(representatives=representatives, members=members)


def replay_equivalent(
    fault: FaultDescriptor,
    representative: ExperimentRun,
    representative_index: int,
) -> ExperimentRun:
    """The run an equivalent fault shares with its class representative.

    Every observable field is copied from the simulated
    representative — same outputs, same detection (or none), same
    termination — because the collapse invariant guarantees the two
    trajectories are identical from the consuming read onward and
    reference-identical before it.
    """
    if representative.quarantined or representative.predicted:
        raise CampaignError(
            "equivalence replay needs a simulated representative run"
        )
    return ExperimentRun(
        fault=fault,
        outputs=list(representative.outputs),
        detection=representative.detection,
        detected_iteration=representative.detected_iteration,
        final_state_differs=representative.final_state_differs,
        early_exit_iteration=representative.early_exit_iteration,
        timed_out=representative.timed_out,
        instructions_executed=representative.instructions_executed,
        equivalent=True,
        representative_index=representative_index,
    )


# -- validation ----------------------------------------------------------------
@dataclass
class ValidationReport:
    """Result of running one campaign with and without pruning.

    Attributes:
        faults: plan size.
        simulated: experiments actually simulated in the pruned run.
        predicted: experiments predicted from the liveness map.
        mismatches: ``(plan index, pruned outcome, unpruned outcome)``
            triples where the two runs disagree (must be empty).
        summaries_match: the rendered Tables 2/3 summaries are identical.
        pruned_wall_seconds: injection-phase wall time of the candidate
            (pruned / collapsed) leg.
        unpruned_wall_seconds: injection-phase wall time of the plain
            baseline leg.  Both legs run after a throwaway warm-up
            campaign, so neither pays the pool-spawn/predecode
            cold-start tax the other skipped.
        equivalent: experiments replayed from an equivalence-class
            representative in the candidate leg (collapse validation
            only; 0 for plain pruning validation).
    """

    faults: int
    simulated: int
    predicted: int
    mismatches: List[Tuple[int, Outcome, Outcome]]
    summaries_match: bool
    pruned_wall_seconds: float
    unpruned_wall_seconds: float
    equivalent: int = 0

    @property
    def reduction(self) -> float:
        """Fraction of the plan that was not simulated."""
        return (
            (self.predicted + self.equivalent) / self.faults
            if self.faults
            else 0.0
        )

    @property
    def ok(self) -> bool:
        """True when pruning changed nothing observable."""
        return not self.mismatches and self.summaries_match

    def render(self) -> str:
        """Human-readable validation verdict."""
        lines = [
            f"pruning validation over {self.faults} faults:",
            f"  simulated            {self.simulated}",
            f"  predicted            {self.predicted}"
            f"  ({self.reduction:.1%} reduction)",
            f"  equivalent           {self.equivalent}",
            f"  outcome mismatches   {len(self.mismatches)}",
            f"  summaries identical  {'yes' if self.summaries_match else 'NO'}",
            f"  wall seconds         {self.pruned_wall_seconds:.2f} pruned"
            f" vs {self.unpruned_wall_seconds:.2f} unpruned",
        ]
        for index, pruned, unpruned in self.mismatches[:10]:
            lines.append(
                f"  MISMATCH at plan index {index}: "
                f"pruned={pruned.category.value} "
                f"unpruned={unpruned.category.value}"
            )
        if len(self.mismatches) > 10:
            lines.append(f"  ... and {len(self.mismatches) - 10} more")
        lines.append("  verdict              " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


#: Fault count of the throwaway warm-up campaign (scaled up so every
#: pool worker gets at least a couple of chunks to chew on).
_WARMUP_FAULTS = 8


def _warm_up(config, workers: int, pool) -> None:
    """Run a small throwaway campaign before timing anything.

    The first campaign a process (or worker pool) runs pays one-time
    costs the later ones do not: spawning and initialising the pool
    workers, populating the process-wide predecode/dispatch tables,
    importing numpy into each worker.  When ``validate_pruning`` timed
    its first leg cold and its second leg warm, those costs were
    silently billed to whichever leg ran first.  This warm-up pays them
    on a tiny plan (same workload, iterations and watchdog — so the
    pool payload stays compatible and the timed legs reuse the warm
    workers without a respawn) and its wall time is discarded.
    """
    from repro.goofi.campaign import ScifiCampaign

    warm = replace(
        config,
        name=f"{config.name} (warm-up)",
        faults=max(_WARMUP_FAULTS, 2 * workers),
        prune=False,
        collapse=False,
        chaos=None,
    )
    if pool is not None:
        ScifiCampaign(warm).run(pool=pool)
    else:
        ScifiCampaign(warm).run(workers=workers)


def _validate(candidate_config, baseline_config, workers: int) -> ValidationReport:
    """Run the candidate and baseline campaigns warm, compare totally.

    The comparison is per-experiment :class:`Outcome` equality at every
    plan index plus byte-identical rendered summary tables.  Both runs
    share the fingerprint-relevant configuration (and thus the seed and
    fault plan), so any difference is a misclassification in the
    candidate's shortcut machinery.
    """
    from repro.goofi.campaign import ScifiCampaign
    from repro.goofi.pool import ReferencePool

    if workers > 1:
        # Both runs share one warm worker pool: the golden runs are
        # value-identical, so neither campaign respawns workers.
        with ReferencePool(workers) as pool:
            _warm_up(candidate_config, workers, pool)
            candidate = ScifiCampaign(candidate_config).run(pool=pool)
            baseline = ScifiCampaign(baseline_config).run(pool=pool)
    else:
        _warm_up(candidate_config, workers, None)
        candidate = ScifiCampaign(candidate_config).run(workers=workers)
        baseline = ScifiCampaign(baseline_config).run(workers=workers)
    mismatches = [
        (index, p, u)
        for index, (p, u) in enumerate(zip(candidate.outcomes, baseline.outcomes))
        if p != u
    ]
    predicted = sum(1 for run in candidate.experiments if run.predicted)
    equivalent = sum(1 for run in candidate.experiments if run.equivalent)
    return ValidationReport(
        faults=len(candidate.experiments),
        simulated=len(candidate.experiments) - predicted - equivalent,
        predicted=predicted,
        mismatches=mismatches,
        summaries_match=(
            render_outcome_table(candidate.summary())
            == render_outcome_table(baseline.summary())
        ),
        pruned_wall_seconds=candidate.wall_seconds,
        unpruned_wall_seconds=baseline.wall_seconds,
        equivalent=equivalent,
    )


def validate_pruning(config, workers: int = 1) -> ValidationReport:
    """Run one campaign twice — pruned and unpruned — and compare.

    The comparison is total: per-experiment :class:`Outcome` equality at
    every plan index plus byte-identical rendered summary tables.  Both
    runs share the configuration (and thus the seed and fault plan), so
    any difference is a pruning misclassification.  A throwaway warm-up
    campaign runs first so the reported wall-clock ratio compares two
    equally warm legs.
    """
    return _validate(
        replace(config, prune=True), replace(config, prune=False), workers
    )


def validate_collapse(config, workers: int = 1) -> ValidationReport:
    """Validate the full shortcut stack against the plain baseline.

    The candidate leg runs with pruning, equivalence collapse and the
    configured batch size; the baseline leg disables all three
    (``prune=False, collapse=False, batch_size=1``).  The comparison is
    the same total-equivalence check as :func:`validate_pruning` — any
    outcome divergence or summary-table difference fails it.
    """
    candidate = replace(config, prune=True, collapse=True)
    baseline = replace(config, prune=False, collapse=False, batch_size=1)
    return _validate(candidate, baseline, workers)
