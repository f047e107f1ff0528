"""The benchmark's workloads, their config guard and the outcome digest.

A workload is a dict of *user-facing* campaign fields only.  Every A/B
baseline switch of :class:`repro.goofi.CampaignConfig`
(``fast_dispatch``, ``incremental_hash``, ``delta_dataplane``,
``locality_sort``, ``share_reference``, ``collapse``) stays at its
default, so deleting one of those flags from the program cannot break
the benchmark; :func:`check_user_facing` refuses any workload that
tries to set one.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

#: The only fields a workload may set (the plans come from ``--corpus``).
USER_FIELDS = frozenset(
    {"algorithm", "faults", "iterations", "prune", "batch_size", "workers", "persistence"}
)

#: Why each workload exists is documented in README.md beside this file.
#: Sizes keep one campaign at a few seconds on a 2-core host, so a run
#: measures several campaigns and reports their median.
WORKLOADS = {
    "alg2-plain-serial": {
        "algorithm": "II",
        "faults": 250,
        "iterations": 650,
        "prune": False,
        "batch_size": 1,
        "workers": 1,
        "persistence": False,
    },
    "alg2-prune-batch-serial": {
        "algorithm": "II",
        "faults": 250,
        "iterations": 650,
        "prune": True,
        "batch_size": 8,
        "workers": 1,
        "persistence": False,
    },
    "alg1-service-w2": {
        "algorithm": "I",
        "faults": 500,
        "iterations": 650,
        "prune": False,
        "batch_size": 1,
        "workers": 2,
        "persistence": True,
    },
}

#: Fault plans one run measures.  The cost of an experiment is
#: heavy-tailed (most re-converge within an iteration, a few run to the
#: end of the window), so the simulated instructions of one 250-fault plan
#: swing by 2x from plan to plan, and those of 8 plans drawn afresh still
#: by about 10% from set to set.  A run therefore measures a fixed corpus
#: of plans; ``--seed`` sets the order in which it runs them.
PLANS = 6

#: Seed used when none is given.
DEFAULT_SEED = 1
#: Corpus every run measures unless told otherwise, and the held-out
#: corpus later performance claims must also hold on (never used while
#: tuning a change).
DEFAULT_CORPUS = 1
HELD_OUT_CORPUS = 2

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def check_user_facing(name: str, spec: dict) -> None:
    """Refuse a workload that sets anything but user-facing fields."""
    extra = set(spec) - USER_FIELDS
    missing = USER_FIELDS - set(spec)
    if extra or missing:
        raise SystemExit(
            f"workload {name}: fields {sorted(extra)} are not user-facing"
            f" (allowed: {sorted(USER_FIELDS)}); missing {sorted(missing)}"
        )
    if spec["algorithm"] not in ("I", "II"):
        raise SystemExit(f"workload {name}: unknown algorithm {spec['algorithm']!r}")


def golden_key(spec: dict) -> str:
    """Workloads with the same plan share a golden digest: pruning and
    batching are outcome-invariant, so they must reproduce it exactly."""
    algorithm = {"I": "alg1", "II": "alg2"}[spec["algorithm"]]
    return f"{algorithm}-f{spec['faults']}-i{spec['iterations']}"


def plan_seeds(seed: int, corpus: int = DEFAULT_CORPUS):
    """The campaign seeds of one run: corpus ``c`` is the plans seeded
    ``c * 1000 + 0 .. PLANS - 1``, rotated to start at ``seed % PLANS``."""
    if seed < 0 or corpus < 0:
        raise SystemExit("--seed and --corpus must be >= 0")
    start = seed % PLANS
    return [corpus * 1000 + (start + plan) % PLANS for plan in range(PLANS)]


def campaign_config(spec: dict, seed: int, workload):
    """A :class:`CampaignConfig` built from user-facing fields only."""
    from repro.goofi import CampaignConfig

    return CampaignConfig(
        workload=workload,
        name=f"Algorithm {spec['algorithm']}",
        faults=spec["faults"],
        seed=seed,
        iterations=spec["iterations"],
        prune=spec["prune"],
        batch_size=spec["batch_size"],
    )


def compile_workload(spec: dict):
    from repro.workloads import compile_algorithm_i, compile_algorithm_ii

    return compile_algorithm_i() if spec["algorithm"] == "I" else compile_algorithm_ii()


def outcome_digest(rows) -> str:
    """SHA-256 over ``(plan index, partition, element, bit, time,
    category, mechanism, first failure iteration, max deviation)`` rows
    in plan order — the per-experiment outcome of a campaign."""
    digest = hashlib.sha256()
    for row in rows:
        index, partition, element, bit, time, category, mechanism, first, dev = row
        digest.update(
            f"{index}|{partition}|{element}|{bit}|{time}|{category}|"
            f"{mechanism}|{first}|{float(dev)!r}\n".encode()
        )
    return digest.hexdigest()


def result_rows(result):
    """Digest rows of an in-memory :class:`CampaignResult`."""
    for index, (run, outcome) in enumerate(zip(result.experiments, result.outcomes)):
        target = run.fault.target
        yield (
            index, target.partition, target.element, target.bit, run.fault.time,
            outcome.category.value, outcome.mechanism,
            outcome.first_failure_iteration, outcome.max_deviation,
        )


def stored_rows(stored):
    """Digest rows of ``CampaignDatabase.completed_experiments`` output."""
    for index in sorted(stored):
        row = stored[index]
        outcome = row.outcome
        yield (
            index, row.partition, row.element, row.bit, row.time,
            outcome.category.value, outcome.mechanism,
            outcome.first_failure_iteration, outcome.max_deviation,
        )


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _plain(spec: dict) -> dict:
    return dict(spec, prune=False, batch_size=1, workers=1, persistence=False)


def reference_digest(spec: dict, seed: int, workload) -> str:
    """The digest of the plainest path: serial, unpruned, unbatched."""
    from repro.goofi import ScifiCampaign

    result = ScifiCampaign(campaign_config(_plain(spec), seed, workload)).run()
    return outcome_digest(result_rows(result))


def spot_check(spec: dict, seed: int, workload, rows, count: int = 16) -> bool:
    """Re-simulate ``count`` of a campaign's experiments one at a time on
    a fresh target and compare their outcomes with ``rows``.

    The check for corpora without a committed golden digest: a full
    reference campaign per plan would double the run.
    """
    from repro.analysis.classify import classify_experiment
    from repro.faults.models import FaultDescriptor, FaultTarget
    from repro.goofi import ScifiCampaign

    target = ScifiCampaign(campaign_config(_plain(spec), seed, workload)).target
    reference = target.run_reference()
    for row in random.Random(seed).sample(rows, min(count, len(rows))):
        _index, partition, element, bit, time, category, mechanism, first, dev = row
        run = target.run_experiment(
            FaultDescriptor(target=FaultTarget(partition, element, bit), time=time)
        )
        outcome = classify_experiment(
            observed=run.outputs,
            reference=reference.outputs,
            detected_by=run.detection.mechanism.value if run.detection else None,
            final_state_differs=run.final_state_differs,
        )
        observed = (
            outcome.category.value, outcome.mechanism,
            outcome.first_failure_iteration, float(outcome.max_deviation),
        )
        if observed != (category, mechanism, first, float(dev)):
            return False
    return True
