"""Benchmark: pruning + equivalence collapse against the plain baseline.

Runs the full shortcut stack (pruning and equivalence collapse) against
the classic baseline (no pruning, no collapse) on the default 500-fault
campaign and gates three things:

1. the injection-phase wall-clock speedup of the full stack is >= 2x,
2. the full stack is outcome-equivalent (zero per-experiment
   mismatches, byte-identical summary tables),
3. collapse alone (no pruning) passes the same equivalence check — a
   divergence introduced by collapse cannot hide behind pruning.

Both timed legs run after a throwaway warm-up campaign (see
``repro.goofi.pruning._warm_up``), so neither pays the cold-start tax.
The snapshot lands in ``results/BENCH_equivalence.json`` — the artifact
the CI smoke step and ``docs/performance.md`` reference.
"""

import json

from _common import bench_faults, bench_iterations, emit

from repro.goofi import CampaignConfig, validate_collapse
from repro.goofi.pruning import _validate, replace
from repro.workloads import compile_algorithm_i

#: The >= 2x gate holds at the default 500-fault / 650-iteration size.
#: CI runs a downsized campaign (REPRO_BENCH_FAULTS / _ITERATIONS) whose
#: shorter experiments amortise less fixed per-experiment overhead, so
#: reduced sizes gate at a lower floor — the equivalence gates stay
#: hard either way.
FULL_SIZE_GATE = 2.0
REDUCED_SIZE_GATE = 1.5


def _config():
    return CampaignConfig(
        workload=compile_algorithm_i(),
        name="equivalence bench",
        faults=bench_faults(),
        iterations=bench_iterations(),
    )


def _measure():
    config = _config()
    # Full stack: prune + collapse against the plain baseline.
    full = validate_collapse(config)
    # Collapse alone (no pruning): same equivalence gate.
    collapse_only = _validate(replace(config, collapse=True), config, workers=1)
    return full, collapse_only


def _leg(report):
    return {
        "simulated": report.simulated,
        "predicted": report.predicted,
        "equivalent": report.equivalent,
        "mismatches": len(report.mismatches),
        "summaries_match": report.summaries_match,
        "candidate_wall_seconds": round(report.pruned_wall_seconds, 3),
        "baseline_wall_seconds": round(report.unpruned_wall_seconds, 3),
    }


def test_equivalence_speedup(benchmark):
    full, collapse_only = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    speedup = (
        full.unpruned_wall_seconds / full.pruned_wall_seconds
        if full.pruned_wall_seconds
        else None
    )
    full_size = bench_faults() >= 500 and bench_iterations() >= 650
    gate = FULL_SIZE_GATE if full_size else REDUCED_SIZE_GATE
    payload = {
        "faults": full.faults,
        "speedup_gate": gate,
        "speedup": round(speedup, 2) if speedup else None,
        "full_stack": _leg(full),
        "collapse_only": _leg(collapse_only),
    }
    emit(
        "BENCH_equivalence.json",
        json.dumps(payload, indent=2, sort_keys=True),
    )
    emit("equivalence_validation.txt", full.render())

    # Collapse alone, and the stack as a whole, must change nothing
    # observable.
    assert full.ok, full.render()
    assert collapse_only.ok, collapse_only.render()
    # The headline gate: the full stack halves injection wall time (at
    # the default campaign size; reduced CI sizes gate lower).
    assert speedup is not None and speedup >= gate, payload
