"""Golden campaign-outcome fixture.

``golden_campaign_outcomes.json`` holds SHA-256 digests of what short,
fixed-seed campaigns produce for Algorithm I and Algorithm II: the
golden reference run (boundary hashes, outputs, boundary instruction
counts, run length, longest iteration), the per-experiment rows of a
SCIFI campaign, its rendered outcome table, and the rows of a
pre-runtime SWIFI campaign.  The digests were taken, serially, from
the pre-optimisation code paths that have since been deleted (the
traced decode-and-branch interpreter for every instruction, boundary
hashes rebuilt from scratch, a worker-recomputed reference, plan-order
scheduling), so the fixture pins the outcomes independently of any live
code.

Every execution path must reproduce every digest: serial, batched,
parallel and pooled campaigns, pre-runtime campaigns, and the reference
run and serial campaign through the traced interpreter, which a no-op
trace hook selects.

Regenerate only from a commit whose outcomes are known good; the
regenerator runs the reference and SCIFI campaigns on the traced
interpreter::

    PYTHONPATH=src python tests/test_campaign_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.report import render_outcome_table
from repro.goofi.campaign import CampaignConfig, ScifiCampaign
from repro.goofi.pool import ReferencePool
from repro.goofi.prerun import PreRuntimeCampaign
from repro.goofi.target import TargetSystem
from repro.workloads import compile_algorithm_i, compile_algorithm_ii

FIXTURE = Path(__file__).with_name("golden_campaign_outcomes.json")
ITERATIONS = 60
FAULTS = 40
PRERUN_FAULTS = 12
SEED = 2001
_COMPILERS = {"I": compile_algorithm_i, "II": compile_algorithm_ii}


def _sha256(value) -> str:
    """Digest of the compact JSON form of ``value``."""
    data = json.dumps(value, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def reference_digests(reference) -> dict:
    """Per-field digests of a :class:`~repro.goofi.target.ReferenceRun`."""
    return {
        "hashes": _sha256([h.hex() for h in reference.hashes]),
        "outputs": _sha256([repr(x) for x in reference.outputs]),
        "instructions_at": _sha256(reference.instructions_at),
        "total_instructions": _sha256(reference.total_instructions),
        "max_iteration_instructions": _sha256(
            reference.max_iteration_instructions
        ),
    }


def experiment_rows(result) -> list:
    """One row per experiment, in plan order: everything the campaign
    observed and how it was classified."""
    rows = []
    for index, (run, outcome) in enumerate(zip(result.experiments, result.outcomes)):
        detection = run.detection
        rows.append(
            [
                index,
                run.fault.label(),
                outcome.category.value,
                detection.mechanism.value if detection is not None else None,
                detection.detail if detection is not None else None,
                [repr(x) for x in run.outputs],
                run.early_exit_iteration,
                run.final_state_differs,
                run.instructions_executed,
                run.timed_out,
            ]
        )
    return rows


def campaign_digests(result) -> dict:
    return {
        "experiments": _sha256(experiment_rows(result)),
        "summary": _sha256(render_outcome_table(result.summary())),
    }


def scifi_config(algorithm: str, workload=None, **overrides) -> CampaignConfig:
    return CampaignConfig(
        workload=workload if workload is not None else _COMPILERS[algorithm](),
        faults=FAULTS,
        seed=SEED,
        iterations=ITERATIONS,
        **overrides,
    )


@pytest.fixture(scope="module")
def golden():
    fixture = json.loads(FIXTURE.read_text())
    assert fixture["iterations"] == ITERATIONS
    assert fixture["faults"] == FAULTS
    assert fixture["prerun_faults"] == PRERUN_FAULTS
    assert fixture["seed"] == SEED
    return fixture


@pytest.fixture(scope="module")
def workloads():
    return {algorithm: compile() for algorithm, compile in _COMPILERS.items()}


@pytest.mark.parametrize("algorithm", ["I", "II"])
def test_reference_reproduces_golden(golden, workloads, algorithm):
    target = TargetSystem(workloads[algorithm], iterations=ITERATIONS)
    reference = target.run_reference()
    assert reference_digests(reference) == golden[algorithm]["reference"]


def trace_nothing(_entry) -> None:
    """A no-op trace hook: attaching any hook routes every instruction
    through the traced decode-and-branch interpreter (the oracle)."""


@pytest.mark.parametrize("algorithm", ["I", "II"])
def test_traced_reference_reproduces_golden(golden, workloads, algorithm):
    target = TargetSystem(workloads[algorithm], iterations=ITERATIONS)
    target.cpu.trace_hook = trace_nothing
    reference = target.run_reference()
    assert reference_digests(reference) == golden[algorithm]["reference"]


@pytest.mark.parametrize("algorithm", ["I", "II"])
def test_traced_campaign_reproduces_golden(golden, workloads, algorithm):
    campaign = ScifiCampaign(scifi_config(algorithm, workloads[algorithm]))
    campaign.target.cpu.trace_hook = trace_nothing
    assert campaign_digests(campaign.run()) == golden[algorithm]["scifi"]


@pytest.mark.parametrize("algorithm", ["I", "II"])
def test_serial_campaign_reproduces_golden(golden, workloads, algorithm):
    campaign = ScifiCampaign(scifi_config(algorithm, workloads[algorithm]))
    result = campaign.run()
    assert reference_digests(campaign.target.reference) == (
        golden[algorithm]["reference"]
    )
    assert campaign_digests(result) == golden[algorithm]["scifi"]


def test_batched_campaign_reproduces_golden(golden, workloads):
    config = scifi_config("II", workloads["II"], batch_size=4)
    result = ScifiCampaign(config).run()
    assert campaign_digests(result) == golden["II"]["scifi"]


@pytest.mark.parametrize("algorithm", ["I", "II"])
def test_parallel_campaign_reproduces_golden(golden, workloads, algorithm):
    config = scifi_config(algorithm, workloads[algorithm])
    result = ScifiCampaign(config).run(workers=2)
    assert campaign_digests(result) == golden[algorithm]["scifi"]


def test_reused_pool_reproduces_golden(golden, workloads):
    config = scifi_config("II", workloads["II"])
    with ReferencePool(2) as pool:
        first = ScifiCampaign(config).run(pool=pool)
        executor = pool._executor
        second = ScifiCampaign(config).run(pool=pool)
        # Compatible payloads must not respawn the workers.
        assert pool._executor is executor
    assert campaign_digests(first) == golden["II"]["scifi"]
    assert campaign_digests(second) == golden["II"]["scifi"]


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
@pytest.mark.parametrize("algorithm", ["I", "II"])
def test_prerun_campaign_reproduces_golden(golden, workloads, algorithm, workers):
    campaign = PreRuntimeCampaign(workloads[algorithm], iterations=ITERATIONS)
    result = campaign.run(PRERUN_FAULTS, seed=SEED, workers=workers)
    assert _sha256(experiment_rows(result)) == golden[algorithm]["prerun"]


def _regenerate() -> None:
    fixture = {
        "iterations": ITERATIONS,
        "faults": FAULTS,
        "prerun_faults": PRERUN_FAULTS,
        "seed": SEED,
    }
    for algorithm, compile in _COMPILERS.items():
        workload = compile()
        target = TargetSystem(workload, iterations=ITERATIONS)
        target.cpu.trace_hook = trace_nothing
        campaign = ScifiCampaign(scifi_config(algorithm, workload))
        campaign.target.cpu.trace_hook = trace_nothing
        prerun = PreRuntimeCampaign(workload, iterations=ITERATIONS)
        fixture[algorithm] = {
            "reference": reference_digests(target.run_reference()),
            "scifi": campaign_digests(campaign.run()),
            "prerun": _sha256(
                experiment_rows(prerun.run(PRERUN_FAULTS, seed=SEED))
            ),
        }
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
