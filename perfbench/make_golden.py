"""Regenerate ``golden.json``: the committed outcome digests.

Run from the repository root::

    python3 perfbench/make_golden.py --corpora 0-10

For every distinct campaign shape among the workloads (both ``alg2-*``
workloads share one) and every plan of every corpus, this runs the
plainest campaign path — serial, no pruning, no batching, default data
plane — and records the digest of its per-experiment outcomes.
``run.py`` compares each measured campaign against it; for a plan
without an entry it re-simulates a sample of the campaign's experiments
one at a time instead.  Regenerate only when a change is meant to alter
outcomes, and say so in its review.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import suite


def parse_range(text: str):
    values = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        values.extend(range(int(low), int(high or low) + 1))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpora", default="0-10", help="e.g. 0-10 or 1,2,7")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    golden = suite.load_golden()
    plans = {}
    for spec in suite.WORKLOADS.values():
        plans.setdefault(suite.golden_key(spec), spec)
    for key, spec in sorted(plans.items()):
        workload = suite.compile_workload(spec)
        entries = golden.setdefault(key, {})
        for corpus in parse_range(args.corpora):
            for plan_seed in suite.plan_seeds(0, corpus):
                entries[str(plan_seed)] = suite.reference_digest(spec, plan_seed, workload)
                print(f"{key} plan {plan_seed}: {entries[str(plan_seed)]}", flush=True)
        with open(suite.GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
