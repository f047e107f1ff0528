#!/usr/bin/env python
"""Benchmark: interpreter fast path, incremental hashing, shared reference.

Measures the campaign engine's optimised execution stack — predecoded
dispatch tables, incremental boundary hashing and the golden reference
shared across workers — and gates it on bit-identical outcomes.

Records into ``results/BENCH_interpreter.json``:

* reference-run instructions/sec;
* end-to-end wall-clock of the default 500-fault campaign, serial and
  ``--workers 4``;
* the dynamic opcode mix (via :class:`repro.thor.profiler.Profiler`)
  that justifies the dispatch-table ordering;
* a golden-equivalence verdict, from two oracles:

  - the committed fixture ``tests/golden_campaign_outcomes.json``
    (digests of the reference runs, per-experiment rows and outcome
    tables of short Algorithm I/II campaigns): the optimised reference,
    the serial and the parallel campaign at the fixture's size must
    reproduce every digest;
  - the traced decode-and-branch interpreter, selected by attaching a
    no-op trace hook: at the benchmark's own size the optimised
    reference and serial campaign must equal the traced ones, and the
    parallel campaign must equal the serial one, row for row and table
    for table.

Exits non-zero when any equivalence check diverges — the CI smoke step
runs ``bench_interpreter.py --quick`` and relies on that gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import test_campaign_golden as golden  # noqa: E402
from repro.analysis.report import render_outcome_table  # noqa: E402
from repro.goofi.campaign import CampaignConfig, ScifiCampaign  # noqa: E402
from repro.goofi.target import TargetSystem  # noqa: E402
from repro.thor.profiler import Profiler  # noqa: E402
from repro.workloads import compile_algorithm_ii  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results" / "BENCH_interpreter.json"


def measure_reference(workload, iterations, traced=False):
    """Time one golden reference run; returns (instr/sec, ReferenceRun)."""
    target = TargetSystem(workload, iterations=iterations)
    if traced:
        target.cpu.trace_hook = golden.trace_nothing
    started = time.perf_counter()
    reference = target.run_reference()
    seconds = time.perf_counter() - started
    return reference.total_instructions / seconds, reference


def measure_campaign(config, workers, traced=False):
    """Time one full campaign; returns (seconds, CampaignResult)."""
    campaign = ScifiCampaign(config)
    if traced:
        campaign.target.cpu.trace_hook = golden.trace_nothing
    started = time.perf_counter()
    result = campaign.run(workers=workers)
    return time.perf_counter() - started, result


def opcode_mix(workload, iterations, top=15):
    """The reference run's dynamic opcode distribution."""
    target = TargetSystem(workload, iterations=iterations)
    with Profiler(target.cpu) as profiler:
        target.run_reference()
    report = profiler.report
    return {
        "total_instructions": report.total,
        "top": [
            {
                "opcode": mnemonic,
                "count": count,
                "share": round(count / report.total, 4),
            }
            for mnemonic, count in report.by_opcode.most_common(top)
        ],
        "memory_traffic_share": round(report.memory_traffic_share(), 4),
    }


def fixture_checks(workers):
    """Reproduce every digest of the committed golden fixture."""
    fixture = json.loads(golden.FIXTURE.read_text())
    checks = {
        "fixture_reference_identical": True,
        "fixture_traced_reference_identical": True,
        "fixture_serial_campaign_identical": True,
        "fixture_parallel_campaign_identical": True,
    }
    for algorithm, compile_workload in golden._COMPILERS.items():
        expected = fixture[algorithm]
        workload = compile_workload()
        for key, traced in (
            ("fixture_reference_identical", False),
            ("fixture_traced_reference_identical", True),
        ):
            _rate, reference = measure_reference(
                workload, golden.ITERATIONS, traced=traced
            )
            checks[key] &= (
                golden.reference_digests(reference) == expected["reference"]
            )
        config = golden.scifi_config(algorithm, workload)
        for key, run_workers in (
            ("fixture_serial_campaign_identical", 1),
            ("fixture_parallel_campaign_identical", workers),
        ):
            _seconds, result = measure_campaign(config, run_workers)
            checks[key] &= golden.campaign_digests(result) == expected["scifi"]
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizing: fewer faults/iterations, same checks",
    )
    parser.add_argument("--faults", type=int, default=None)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", type=Path, default=RESULTS)
    args = parser.parse_args(argv)

    faults = args.faults or (100 if args.quick else 500)
    iterations = args.iterations or (200 if args.quick else 650)
    workload = compile_algorithm_ii()
    config = CampaignConfig(
        workload=workload,
        name="interpreter bench",
        faults=faults,
        iterations=iterations,
    )

    print(f"interpreter bench: faults={faults} iterations={iterations}")

    # -- reference-run instruction rate ----------------------------------------
    rate, reference = measure_reference(workload, iterations)
    print(f"reference  {rate:10.0f} instr/s")

    # -- end-to-end campaigns --------------------------------------------------
    serial_s, serial = measure_campaign(config, 1)
    print(f"serial     {serial_s:8.2f} s")
    parallel_s, parallel = measure_campaign(config, args.workers)
    print(f"workers={args.workers}  {parallel_s:8.2f} s")

    # -- golden equivalence ----------------------------------------------------
    _rate, traced_reference = measure_reference(workload, iterations, traced=True)
    _seconds, traced_serial = measure_campaign(config, 1, traced=True)
    rows = golden.experiment_rows(serial)
    table = render_outcome_table(serial.summary())
    equivalence = {
        **fixture_checks(args.workers),
        "traced_reference_identical": golden.reference_digests(reference)
        == golden.reference_digests(traced_reference),
        "traced_serial_outcomes_identical": rows
        == golden.experiment_rows(traced_serial),
        "parallel_outcomes_identical": rows == golden.experiment_rows(parallel),
        "summary_tables_identical": (
            table
            == render_outcome_table(traced_serial.summary())
            == render_outcome_table(parallel.summary())
        ),
    }
    ok = all(equivalence.values())
    print("golden equivalence:", "OK" if ok else f"DIVERGED {equivalence}")

    payload = {
        "config": {
            "workload": "Algorithm II",
            "faults": faults,
            "iterations": iterations,
            "workers": args.workers,
            "quick": args.quick,
        },
        "reference_run": {
            "instructions": reference.total_instructions,
            "optimized_instr_per_sec": round(rate),
        },
        "campaign_serial": {"optimized_seconds": round(serial_s, 3)},
        f"campaign_workers{args.workers}": {
            "optimized_seconds": round(parallel_s, 3),
        },
        "opcode_mix": opcode_mix(workload, iterations),
        "golden_equivalence": equivalence,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
