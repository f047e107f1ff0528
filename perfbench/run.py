"""End-to-end campaign benchmark with an outside-in per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload alg2-plain-serial --seed 1 --seconds 30 --trace 0

One run measures whole campaigns — reference run, set-up, pruning,
injection, analysis and persistence — over the ``suite.PLANS`` fault
plans of a fixed corpus, in turn from the one ``--seed`` picks, until
``--seconds`` have passed and every plan ran once (a traced run: the
first four plans, each untraced and then traced).  Between campaigns it
times a fixed calibration loop, by which the gated times are scaled to
the reference host's speed.  It checks every campaign's per-experiment
outcome digest and prints each metric by name and unit.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count experiments; ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer ledger of a traced
run (``--trace 1``).  README.md beside this file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

import ledger
import suite

ROOT = os.getcwd()
WARM_UP = {"faults": 8, "iterations": 20}
#: Plans a traced run measures: about 30 s of campaigns, untraced and
#: traced, on the 2-core host the benchmark was built on.
TRACED_PLANS = 4
#: Rounds of :func:`calibration_loop`, and what they take on that host.
#: ``campaign_s`` and ``setup_s`` are reported at its speed: wall-clock
#: times ``CALIBRATION_REFERENCE_S`` over the run's mean loop time.
CALIBRATION_ROUNDS = 80000
CALIBRATION_REFERENCE_S = 0.8

END_TO_END = [
    ("campaign_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("worker_peak_rss_mb", "MB"),
]


_CALIBRATION_PROGRAM = [(i % 5, (i * 7) % 16, (i * 3 + 1) % 16) for i in range(64)]


def calibration_loop(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Seconds a fixed pure-Python register-machine loop takes.

    Other tenants of the host slow every process on it by 10-20%, over
    seconds and over minutes, in CPU time as much as in wall-clock; no
    number of campaigns in one run averages out the slow part.  This
    loop touches nothing of the program, so scaling a campaign's time
    by its time in the same run cancels the host's drift and keeps
    every change to the program.
    """
    regs = [1] * 16
    mem = {}
    started = time.perf_counter()
    for _round in range(rounds):
        for op, a, b in _CALIBRATION_PROGRAM:
            if op == 0:
                regs[a] = (regs[a] + regs[b]) & 0xFFFF
            elif op == 1:
                regs[a] = (regs[a] ^ (regs[b] << 1)) & 0xFFFF
            elif op == 2:
                mem[regs[a] & 255] = regs[b]
            elif op == 3:
                regs[b] = mem.get(regs[a] & 255, 0)
            else:
                regs[0] += regs[a] > regs[b]
    return time.perf_counter() - started


@dataclass
class Sample:
    """One campaign: its times and what the output check needs."""

    campaign_s: float
    setup_s: float
    rows: list
    completed: int
    quarantined: int

    @property
    def digest(self) -> str:
        return suite.outcome_digest(self.rows)


class Clock:
    """Times of one campaign, filled in by :func:`timed`."""

    campaign_s = 0.0
    setup_s = 0.0


@contextmanager
def timed(probe, tracer):
    """Time one campaign: untraced with the set-up probe armed, traced
    inside the root span (set-up then comes from the ledger)."""
    clock = Clock()
    if tracer is not None:
        with tracer.span("campaign"):
            started = time.perf_counter()
            yield clock
            clock.campaign_s = time.perf_counter() - started
        return
    probe.arm()
    try:
        started = time.perf_counter()
        yield clock
        clock.campaign_s = time.perf_counter() - started
    finally:
        probe.disarm()
    if probe.time is not None:
        clock.setup_s = probe.time - started


def setup_probe(spec: dict) -> ledger.FirstCall:
    """The first call into the injection layer: the first experiment
    serially, the return of the first pool submit with workers."""
    from repro.goofi.pool import ReferencePool
    from repro.goofi.target import TargetSystem

    if spec["workers"] > 1:
        return ledger.FirstCall([(ReferencePool, "submit")], at_return=True)
    return ledger.FirstCall(
        [(TargetSystem, "run_experiment"), (TargetSystem, "run_experiment_batch")]
    )


class DirectCampaign:
    """``ScifiCampaign(config).run(workers=...)`` plus the rendered
    outcome table, without persistence."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.probe = setup_probe(spec)

    def run(self, config, tracer=None) -> Sample:
        import repro.analysis
        from repro.goofi import ScifiCampaign

        with timed(self.probe, tracer) as clock:
            result = ScifiCampaign(config).run(workers=self.spec["workers"])
            repro.analysis.render_outcome_table(result.summary())
        return Sample(
            campaign_s=clock.campaign_s,
            setup_s=clock.setup_s,
            rows=list(suite.result_rows(result)),
            completed=len(result.outcomes),
            quarantined=sum(1 for run in result.experiments if run.quarantined),
        )


class ServiceCampaign:
    """``submit_campaign`` to ``run_once`` returning ``done`` on a
    campaign service rooted in the run's scratch directory."""

    def __init__(self, spec: dict, work: str):
        from repro.service import CampaignService

        self.spec = spec
        self.service = CampaignService(os.path.join(work, "service"))
        self.probe = setup_probe(spec)

    def run(self, config, tracer=None) -> Sample:
        from repro.goofi.database import CampaignDatabase

        with timed(self.probe, tracer) as clock:
            campaign_id = self.service.submit_campaign(config, workers=self.spec["workers"])
            outcome = self.service.run_once("perfbench")
        cdir = self.service.campaign_dir(campaign_id)
        with CampaignDatabase(os.path.join(cdir, "results.db")) as db:
            ((db_id, _name, _faults),) = db.list_campaigns()
            stored = db.completed_experiments(db_id)
            summary = db.load_summary(db_id)
        complete = (
            outcome == "done"
            and summary.total() == len(stored)
            and os.path.exists(os.path.join(cdir, "summary.txt"))
        )
        shutil.rmtree(cdir)
        return Sample(
            campaign_s=clock.campaign_s,
            setup_s=clock.setup_s,
            rows=list(suite.stored_rows(stored)),
            completed=len(stored) if complete else 0,
            quarantined=sum(1 for row in stored.values() if row.provenance == "quarantined"),
        )

    def close(self) -> None:
        self.service.close()


def host_facts(seed: int, corpus: int) -> dict:
    git_rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            git_rev = probe.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    source.update(handle.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_rev,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "corpus": corpus,
        "held_out_corpus": suite.HELD_OUT_CORPUS,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def print_metric(
    name: str, value: float, unit: str, values=None, how="median", of="campaigns"
) -> None:
    spread = ""
    if values:
        q1, q3 = quartiles(values)
        spread = f"   ({how} of {len(values)} {of}; quartiles {q1:.4g} .. {q3:.4g})"
    print(f"  {name:32s} {value:14.6g} {unit}{spread}")


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def campaigns(runner, configs, seconds: float, tracer=None):
    """Run the plans in turn.

    Untraced, for ``seconds`` and every plan at least once, with a
    :func:`calibration_loop` before the first campaign and after each
    one.  Traced,
    the first :data:`TRACED_PLANS` plans each run untraced and then
    traced — the tracing overhead is a paired difference on identical
    work, and a fixed set of plans makes the ledger's counts repeat
    exactly.  Returns ``[(plan, [untraced sample, traced sample],
    ledger)]`` and the calibration times; a sample is ``None`` when its
    campaign raised, which ends the measurement.
    """
    runs = []
    calibrations = [] if tracer is not None else [calibration_loop()]
    started = time.perf_counter()
    while (
        len(runs) < TRACED_PLANS
        if tracer is not None
        else len(runs) < len(configs) or time.perf_counter() - started < seconds
    ):
        plan = len(runs) % len(configs)
        samples = [attempt(runner, configs[plan])]
        layers = None
        if tracer is not None and samples[0] is not None:
            tracer.reset()
            tracer.install()
            try:
                samples.append(attempt(runner, configs[plan], tracer))
            finally:
                tracer.uninstall()
            worker_spans = tracer.collect_worker_spans()
            tracer.dump(worker_spans, len(runs))
            if samples[1] is not None:
                layers = ledger.layer_metrics(tracer.spans, worker_spans, tracer.roundtrips)
                layers.update(probes(tracer.captured))
                layers["trace.overhead_s"] = samples[1].campaign_s - samples[0].campaign_s
        else:
            calibrations.append(calibration_loop())
        runs.append((plan, samples, layers))
        if None in samples:
            break  # a campaign raised: its timings mean nothing
    return runs, calibrations


def attempt(runner, config, tracer=None):
    """One campaign's sample, or ``None`` (and the traceback on stderr)
    when it raised — the output check then fails all its experiments."""
    try:
        return runner.run(config, tracer)
    except Exception:
        traceback.print_exc()
        return None


def probes(captured: dict) -> dict:
    """Seat/restore and payload probes after a traced campaign."""
    target = captured["campaign"].target
    pruned = captured.get("pruned")
    faults = [f for _i, f in pruned.live] if pruned is not None else captured["plan"]
    values = {"dataplane.seat_us": ledger.seat_probe(target, faults)}
    values.update(ledger.payload_probe(captured["reference"]))
    return values


def check(spec: dict, seeds, workload, runs):
    """Failed experiments per the output check, and how it was checked.

    Every campaign must finish all of its experiments, and its outcome
    digest must equal the committed golden digest of its plan (shared by
    workloads with the same plan) — or, for a plan without one, match a
    one-at-a-time re-simulation of a sample of its experiments.  Repeated
    campaigns of one plan must reproduce the same digest.
    """
    golden = suite.load_golden().get(suite.golden_key(spec), {})
    expected, sources = {}, set()
    failed = 0
    for plan, samples, _layers in runs:
        for sample in samples:
            seed = seeds[plan]
            if sample is None:
                failed += spec["faults"]
                continue
            if plan not in expected:
                if str(seed) in golden:
                    expected[plan] = golden[str(seed)]
                    sources.add("committed golden digests")
                elif suite.spot_check(spec, seed, workload, sample.rows):
                    expected[plan] = sample.digest
                    sources.add("one-at-a-time re-simulation of a sample")
                else:
                    expected[plan] = None
            ok = sample.digest == expected[plan] and sample.completed == spec["faults"]
            failed += sample.quarantined if ok else spec["faults"]
    return failed, " and ".join(sorted(sources)) or "nothing (every check failed)"


def end_to_end(runs, calibrations, peak: float, worker_peak: float) -> dict:
    per_plan = {}
    for plan, (sample,), _layers in runs:
        if sample is not None:
            per_plan.setdefault(plan, []).append(sample)
    samples = [sample for plan_samples in per_plan.values() for sample in plan_samples]
    times = [sample.campaign_s for sample in samples]
    setups = [sample.setup_s for sample in samples]
    # Mean over the plans, so every run weighs the same plans alike.
    campaign_wall_s = statistics.mean(
        statistics.median(s.campaign_s for s in plan_samples)
        for plan_samples in per_plan.values()
    ) if samples else 0.0
    setup_wall_s = statistics.median(setups) if samples else 0.0
    # A mean, like the campaigns': both then average the host over the run.
    calibration_s = statistics.mean(calibrations)
    scale = CALIBRATION_REFERENCE_S / calibration_s
    metrics = {
        "campaign_s": campaign_wall_s * scale,
        "setup_s": setup_wall_s * scale,
        "peak_rss_mb": peak,
        "worker_peak_rss_mb": worker_peak,
    }
    print_metric(
        "campaign_wall_s", campaign_wall_s, "s", times, "mean over plans of the per-plan median"
    )
    print_metric("setup_wall_s", setup_wall_s, "s", setups)
    print_metric("calibration_s", calibration_s, "s", calibrations, "mean", "loops")
    print(f"  campaign_s and setup_s: wall-clock x {CALIBRATION_REFERENCE_S} s / calibration_s")
    for name, unit in END_TO_END:
        print_metric(name, metrics[name], unit)
    return metrics


def per_layer(runs, units: dict) -> dict:
    ledgers = [layers for _plan, _samples, layers in runs if layers is not None]
    # The lower median is one campaign's own figure: counts stay whole.
    metrics = {
        name: statistics.median_low([entry[name] for entry in ledgers]) if ledgers else 0.0
        for name in units
    }
    campaign_s = metrics["trace.campaign_s"]
    for name, unit, _better in ledger.LAYER_METRICS:
        value = metrics[name]
        share = ""
        if name in ledger.CAMPAIGN_PARTS and campaign_s:
            seconds = value * {"s": 1.0, "ms": 1e-3}[unit]
            share = f"  {seconds / campaign_s:7.1%} of campaign"
        print(f"  {name:32s} {value:14.6g} {unit:9s}{share}")
    return metrics


def run(args, work: str) -> int:
    spec = suite.WORKLOADS[args.workload]
    for name, other in suite.WORKLOADS.items():
        suite.check_user_facing(name, other)
    seeds = suite.plan_seeds(args.seed, args.corpus)
    print("perfbench host " + json.dumps(host_facts(args.seed, args.corpus), sort_keys=True))

    workload = suite.compile_workload(spec)
    configs = [suite.campaign_config(spec, seed, workload) for seed in seeds]
    runner = ServiceCampaign(spec, work) if spec["persistence"] else DirectCampaign(spec)
    tracer = None
    if args.trace:
        tracer = ledger.Tracer(
            spool_dir=work,
            trace_path=os.path.join(
                ROOT, ".perfbench_work", f"trace-{args.workload}-seed{args.seed}.jsonl"
            ),
        )
        if os.path.exists(tracer.trace_path):
            os.remove(tracer.trace_path)
    try:
        warm = dict(spec, **WARM_UP)
        runner.run(suite.campaign_config(warm, args.seed, workload))
        runs, calibrations = campaigns(runner, configs, args.seconds, tracer)
    finally:
        if isinstance(runner, ServiceCampaign):
            runner.close()
    peak = rss_mb(resource.RUSAGE_SELF)
    worker_peak = rss_mb(resource.RUSAGE_CHILDREN) if spec["workers"] > 1 else peak

    failed, source = check(spec, seeds, workload, runs)
    attempted = spec["faults"] * sum(len(samples) for _plan, samples, _layers in runs)
    print(
        f"perfbench workload {args.workload} seed {args.seed} corpus {args.corpus}:"
        f" {len(runs)} campaigns"
        f"{' (each also traced)' if tracer else ''} over {len({r[0] for r in runs})}"
        f" plans of {spec['faults']} faults; outcomes checked against {source}"
    )
    if tracer is None:
        units = dict(END_TO_END)
        metrics = end_to_end(runs, calibrations, peak, worker_peak)
        print_metric("failed_share", failed / attempted, f"share ({failed}/{attempted})")
    else:
        units = {name: unit for name, unit, _better in ledger.LAYER_METRICS}
        metrics = per_layer(runs, units)
        print(f"  spans written to {os.path.relpath(tracer.trace_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument(
        "--corpus", type=int, default=suite.DEFAULT_CORPUS,
        help=f"fault-plan corpus (held out: {suite.HELD_OUT_CORPUS})",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"perfbench: no src/repro under {ROOT}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    # Keep every file the program makes (pool, SQLite temp) in the checkout.
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
