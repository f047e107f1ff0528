"""The target system: CPU + workload + environment, with checkpointing.

:class:`TargetSystem` executes the closed loop the paper describes: the
workload runs on the simulated CPU, exchanging reference/speed/throttle
with the :class:`~repro.goofi.environment.EngineEnvironment` at every
yield.  It provides

* :meth:`run_reference` — the fault-free golden execution, recording the
  output sequence, a full restorable snapshot at every iteration
  boundary, a state hash per boundary and the dynamic instruction count
  (used to map sampled injection times to boundaries);
* :meth:`run_experiment` — one fault-injection experiment: restore the
  boundary checkpoint, replay to the injection instruction, flip the bit
  through the scan chain, then run to the termination condition.

Early exit: when the faulted run's full state hash equals the reference
hash at the same boundary, every subsequent instruction is determined to
be identical, so the reference output suffix is spliced in.  A test
verifies that disabling this optimisation yields identical outcomes.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import CampaignError
from repro.faults.liveness import AccessRecorder, LivenessMap
from repro.faults.models import FaultDescriptor
from repro.goofi.environment import EngineEnvironment
from repro.tcc.codegen import CompiledProgram
from repro.obs.metrics import DETECTION_LATENCY_BUCKETS, INSTRUCTIONS_BUCKETS
from repro.thor.cpu import CPU, StepResult
from repro.thor.edm import DetectionEvent, add_detection_listener
from repro.thor.scanchain import ScanChain


def _hash_state(cpu: CPU, environment: EngineEnvironment) -> bytes:
    """Incremental full-state boundary digest.

    The code and rodata images almost never change between boundaries
    (code is write-protected; only fault injection or a restore touches
    them), so a blake2b hasher pre-fed with that prefix is cached on the
    memory map, keyed by the regions' mutation versions, and merely
    *copied* per boundary.  The volatile remainder — registers, cache,
    data/stack RAM, MMIO, environment — is always hashed live; the
    data/stack byte images themselves come from the regions'
    version-keyed packed caches, so an untouched region costs one dict
    probe instead of a repack.  Any version change (poke,
    ``corrupt_word_bit``, restore) invalidates the prefix and falls back
    to a full rebuild.  Digests are bit-identical to
    :func:`_hash_state_fresh` by construction (same byte order, same
    content) — an equivalence test enforces it.
    """
    memory = cpu.memory
    key = (memory.code.version, memory.rodata.version)
    cached = memory.hash_prefix_cache
    if cached is None or cached[0] != key:
        prefix = hashlib.blake2b(digest_size=16)
        prefix.update(memory.code.state_bytes())
        prefix.update(memory.rodata.state_bytes())
        cached = (key, prefix)
        memory.hash_prefix_cache = cached
    digest = cached[1].copy()
    digest.update(cpu.register_state_bytes())
    digest.update(cpu.cache.state_bytes())
    digest.update(memory.data.state_bytes())
    digest.update(memory.stack.state_bytes())
    digest.update(memory.mmio.state_bytes())
    digest.update(environment.state_bytes())
    return digest.digest()


def _hash_state_fresh(cpu: CPU, environment: EngineEnvironment) -> bytes:
    """:func:`_hash_state` rebuilt entirely from the live state, with no
    cached prefix or packed images — the reference implementation the
    digest-equivalence test compares against."""
    memory = cpu.memory
    digest = hashlib.blake2b(digest_size=16)
    digest.update(memory.code.pack_fresh())
    digest.update(memory.rodata.pack_fresh())
    digest.update(cpu.register_state_bytes())
    digest.update(cpu.cache.state_bytes())
    digest.update(memory.data.pack_fresh())
    digest.update(memory.stack.pack_fresh())
    digest.update(memory.mmio.state_bytes())
    digest.update(environment.state_bytes())
    return digest.digest()


@dataclass
class ReferenceRun:
    """The golden execution of the workload.

    Attributes:
        outputs: delivered throttle per iteration.
        hashes: full-state hash at every iteration boundary
            (``hashes[k]`` is the state before iteration ``k`` executes;
            there are ``iterations + 1`` entries).
        snapshots: one full restorable snapshot per boundary (same
            indexing).  Consecutive snapshots share the ``bytes`` images
            of RAM regions that did not change between them.
        instructions_at: dynamic instruction count at each boundary.
        total_instructions: instruction count of the whole run.
        max_iteration_instructions: the longest iteration, used to size
            the experiment watchdog.
    """

    outputs: List[float]
    hashes: List[bytes]
    snapshots: List[Dict[str, object]]
    instructions_at: List[int]
    total_instructions: int
    max_iteration_instructions: int

    def locate(self, instruction_time: int) -> int:
        """Boundary index whose iteration contains ``instruction_time``."""
        if not 0 <= instruction_time < self.total_instructions:
            raise CampaignError(
                f"injection time {instruction_time} outside the run "
                f"(0..{self.total_instructions - 1})"
            )
        # instructions_at is sorted ascending; the rightmost boundary at
        # or before instruction_time owns the iteration it falls in.
        return bisect_right(self.instructions_at, instruction_time) - 1


@dataclass
class ExperimentRun:
    """Raw observations of one fault-injection experiment.

    Attributes:
        fault: the injected fault.
        outputs: the delivered output sequence (spliced/held as needed so
            its length always equals the reference's, except for detected
            experiments, where delivery stopped at the detection).
        detection: the hardware detection that terminated the run, if any.
        detected_iteration: iteration during which the detection fired.
        final_state_differs: final state differs from the reference's.
        early_exit_iteration: boundary at which the state re-converged to
            the reference (None if it never did).
        timed_out: the workload stopped yielding and the watchdog expired.
        instructions_executed: dynamic instructions actually simulated.
        predicted: the run was synthesised from the reference by the
            def/use pruning (no simulation happened).
        quarantined: the experiment repeatedly crashed its worker and
            was recorded with a conservative stand-in result instead of
            a simulation (``provenance='quarantined'`` in the database).
        equivalent: the run was replayed from an outcome-equivalent
            representative fault (equivalence collapse) instead of
            being simulated (``provenance='equivalent'``).
        representative_index: plan index of the representative whose
            simulated outcome this run replays (``equivalent`` only).
    """

    fault: FaultDescriptor
    outputs: List[float]
    detection: Optional[DetectionEvent] = None
    detected_iteration: Optional[int] = None
    final_state_differs: bool = False
    early_exit_iteration: Optional[int] = None
    timed_out: bool = False
    instructions_executed: int = 0
    predicted: bool = False
    quarantined: bool = False
    equivalent: bool = False
    representative_index: Optional[int] = None


#: Workload variables primed when the run starts at an operating point
#: (Figure 3 begins already tracking 2000 rpm).  Actuator-valued state
#: (the integral part and its backups) is set to the steady throttle;
#: measurement-valued state (a PID's previous-measurement and backup) is
#: set to the initial reference speed.
WARM_STATE_NAMES = ("x", "x_old", "u_old")
WARM_MEASUREMENT_NAMES = ("y_prev", "yp_old")


class TargetSystem:
    """The complete fault-injection target."""

    def __init__(
        self,
        workload: CompiledProgram,
        environment: Optional[EngineEnvironment] = None,
        iterations: int = 650,
        watchdog_factor: float = 10.0,
        warm_start: bool = True,
        metrics=None,
    ):
        if iterations <= 0:
            raise CampaignError("iterations must be positive")
        self.workload = workload
        self.environment = environment if environment is not None else EngineEnvironment()
        self.iterations = iterations
        self.watchdog_factor = watchdog_factor
        self.warm_start = warm_start
        self.cpu = CPU()
        self.scan_chain = ScanChain(self.cpu)
        self.reference: Optional[ReferenceRun] = None
        #: Def/use liveness of the reference run, populated by
        #: :meth:`run_reference` with ``record_access=True`` (used by the
        #: campaign's fault pruning); ``None`` otherwise.
        self.liveness: Optional[LivenessMap] = None
        self._metrics = None
        self._remove_metrics_listener: Optional[Callable[[], None]] = None
        self.metrics = metrics

    @property
    def metrics(self):
        """Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        set, every experiment records its instruction count, detection
        latency and EDM firings (None: zero-overhead no-op)."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        # One EDM listener per campaign, registered here rather than per
        # experiment: the detection-listener list is global, so owners
        # must set ``metrics = None`` when the campaign finishes.
        if self._remove_metrics_listener is not None:
            self._remove_metrics_listener()
            self._remove_metrics_listener = None
        self._metrics = registry
        if registry is not None:
            def _count_detection(event: DetectionEvent) -> None:
                registry.counter(
                    "edm_firings", mechanism=event.mechanism.value
                ).inc()

            self._remove_metrics_listener = add_detection_listener(_count_detection)

    def boundary_hash(self) -> bytes:
        """The full-state digest at the current iteration boundary."""
        return _hash_state(self.cpu, self.environment)

    def _warm_start_workload(self) -> None:
        """Prime the controller-state globals to the steady operating point."""
        addresses = self.workload.variable_addresses
        values = {name: self.environment.initial_throttle() for name in WARM_STATE_NAMES}
        initial_speed = self.environment.reference.value(0.0)
        values.update({name: initial_speed for name in WARM_MEASUREMENT_NAMES})
        for name, value in values.items():
            if name in addresses:
                bits = struct.unpack("<I", struct.pack("<f", value))[0]
                self.cpu.memory.poke(addresses[name], bits)

    # -- golden execution ------------------------------------------------------
    def run_reference(self, record_access: bool = False) -> ReferenceRun:
        """Execute the workload fault-free and record all checkpoints.

        With ``record_access=True`` the run additionally collects the
        def/use access trace of every injectable state element (plus the
        tracked data-space memory words) and freezes it into
        :attr:`liveness` for the campaign's fault pruning.  The CPU
        records through its predecoded recording handlers (register
        accesses) and the cache/memory recorder hooks; with a trace hook
        attached the traced interpreter reports every access through
        the hooks instead.  Both produce the same traces.
        Recording changes nothing about the reference itself — the hooks
        only observe.
        """
        cpu = self.cpu
        env = self.environment
        cpu.load(self.workload.program)
        env.reset()
        if self.warm_start:
            self._warm_start_workload()
        env.write_inputs(cpu.memory.mmio)

        recorder: Optional[AccessRecorder] = None
        if record_access:
            # Attach after load(): the loader rebuilds memory/cache and
            # its pokes are initial state, not architectural accesses.
            recorder = AccessRecorder()
            layout = cpu.layout
            recorder.track_memory_range(layout.rodata_base, layout.rodata_size)
            recorder.track_memory_range(layout.data_base, layout.data_size)
            recorder.track_memory_range(layout.stack_base, layout.stack_size)
            cpu.recorder = recorder
            cpu.cache.recorder = recorder
            cpu.memory.recorder = recorder

        outputs: List[float] = []
        hashes: List[bytes] = [self.boundary_hash()]
        snapshots: List[Dict[str, object]] = [self._snapshot()]
        instructions_at: List[int] = [0]
        max_iteration = 0
        # Generous budget for the golden run; it must always yield.
        budget = 1_000_000
        try:
            for k in range(self.iterations):
                before = cpu.instruction_index
                result = cpu.run(budget)
                if result is not StepResult.YIELD:
                    raise CampaignError(
                        f"reference run failed at iteration {k}: {result} "
                        f"{cpu.detection}"
                    )
                iteration_cost = cpu.instruction_index - before
                max_iteration = max(max_iteration, iteration_cost)
                outputs.append(env.exchange(cpu.memory.mmio))
                hashes.append(self.boundary_hash())
                snapshots.append(self._snapshot())
                instructions_at.append(cpu.instruction_index)
        finally:
            cpu.recorder = None
            cpu.cache.recorder = None
            cpu.memory.recorder = None
        if recorder is not None:
            self.liveness = LivenessMap.from_recorder(
                recorder, cpu.instruction_index
            )
        self.reference = ReferenceRun(
            outputs=outputs,
            hashes=hashes,
            snapshots=snapshots,
            instructions_at=instructions_at,
            total_instructions=cpu.instruction_index,
            max_iteration_instructions=max_iteration,
        )
        return self.reference

    def _snapshot(self) -> Dict[str, object]:
        return {
            "cpu": self.cpu.snapshot(),
            "env": self.environment.snapshot(),
        }

    def _restore(self, snapshot: Dict[str, object]) -> None:
        self.cpu.restore(snapshot["cpu"])  # type: ignore[arg-type]
        self.environment.restore(snapshot["env"])  # type: ignore[arg-type]

    def restore_boundary(self, boundary: int) -> None:
        """Seat the machine at reference boundary ``boundary``.

        The supported entry point for snapshot consumers (detail replay,
        lockstep, memory-fault experiments).  It is a full restore of
        the boundary's snapshot, in which RAM regions left unchanged
        since the previous restore are skipped.
        """
        reference = self.reference
        if reference is None:
            raise CampaignError("run_reference() must come first")
        self._restore(reference.snapshots[boundary])

    # -- one experiment -----------------------------------------------------------
    def run_experiment(
        self, fault: FaultDescriptor, early_exit: bool = True
    ) -> ExperimentRun:
        """Inject one fault and observe the run to its termination."""
        run = self._execute_experiment(fault, early_exit)
        self._record_metrics(run)
        return run

    def _record_metrics(self, run: ExperimentRun) -> None:
        metrics = self._metrics
        if metrics is None:
            return
        metrics.histogram(
            "instructions_per_experiment", INSTRUCTIONS_BUCKETS
        ).observe(run.instructions_executed)
        if run.detection is not None:
            metrics.histogram(
                "detection_latency_instructions", DETECTION_LATENCY_BUCKETS
            ).observe(run.detection.instruction_index - run.fault.time)
        if run.early_exit_iteration is not None:
            metrics.counter("early_exits").inc()
        if run.timed_out:
            metrics.counter("timeouts").inc()

    def _execute_experiment(
        self, fault: FaultDescriptor, early_exit: bool = True
    ) -> ExperimentRun:
        reference = self.reference
        if reference is None:
            raise CampaignError("run_reference() must come first")
        start_iteration = reference.locate(fault.time)
        cpu = self.cpu
        env = self.environment
        self._restore(reference.snapshots[start_iteration])

        # Replay the fault-free prefix of the injection iteration.
        replay = fault.time - reference.instructions_at[start_iteration]
        if cpu.run(replay) is not StepResult.OK:
            raise CampaignError(
                f"detection during fault-free replay: {cpu.detection}"
            )

        # Inject: read the chain, invert the bit(s), write it back.
        # Multi-bit fault models expose several targets at one instant.
        for target in fault.targets:
            self.scan_chain.flip(target)

        outputs: List[float] = reference.outputs[:start_iteration]
        watchdog = int(
            reference.max_iteration_instructions * self.watchdog_factor
        ) + 500
        run = ExperimentRun(fault=fault, outputs=outputs)

        for k in range(start_iteration, self.iterations):
            result = cpu.run(watchdog)
            run.instructions_executed = cpu.instruction_index
            if result is StepResult.DETECTED:
                run.detection = cpu.detection
                run.detected_iteration = k
                return run
            if result is not StepResult.YIELD:
                # HALTED, or OK with the watchdog budget exhausted: the
                # workload stopped delivering outputs.  The actuator
                # holds its last command for the rest of the window.
                run.timed_out = True
                held = outputs[-1] if outputs else env.initial_throttle()
                while len(outputs) < self.iterations:
                    outputs.append(held)
                run.final_state_differs = True
                return run
            outputs.append(env.exchange(cpu.memory.mmio))
            if early_exit and self.boundary_hash() == reference.hashes[k + 1]:
                outputs.extend(reference.outputs[k + 1 :])
                run.early_exit_iteration = k + 1
                run.final_state_differs = False
                return run
        run.final_state_differs = self.boundary_hash() != reference.hashes[-1]
        return run

    def run_experiment_batch(
        self, faults: List[FaultDescriptor], early_exit: bool = True
    ) -> List[ExperimentRun]:
        """:meth:`run_experiment` for each fault in turn.

        No campaign path calls this.  It stays only because the
        benchmark in ``perfbench/`` looks it up by name (its set-up
        probe and its per-layer ledger).
        """
        return [self.run_experiment(fault, early_exit) for fault in faults]
