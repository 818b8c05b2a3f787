"""Benchmark of rmaccess's seeded Monte Carlo trials.

    python3 perfbench/run.py --workload async-crowded --seed 1 --seconds 30 --trace 0

Runs one workload of workloads.py from this checkout's src/ (nothing is
installed), checks every trial record, and prints a readable report followed
by one JSON line {"correct", "attempted", "failed", "metrics"}.  The metric
names and units are those of BENCHMARK.json at the checkout root:

- --trace 0: the end-to-end metrics, measured untraced.  trials_per_s and
  the per-trial wall-time percentiles come from the timed loop; setup_s is
  the median over SETUP_PROBES fresh interpreters of importing rmaccess and
  building the workload's configs; peak_rss_mb adds the largest child
  process to this one on the sweep.  recall and precision are 1 - miss_rate
  and 1 - false_alarm_rate, the means over the trial set's records.
- --trace 1: the per-layer metrics, from spans recorded by tracing.py in
  runs paired with untraced runs of the same trials; the spans are written
  to perfbench/out/.

Every time (unit s) and rate (unit 1/s) is scaled to the reference machine
speed of calibration.py; the report also prints the wall-clock end-to-end
figures (wall.*) and the speed factor (machine_speed, 1 at the reference,
below 1 on a slower machine).

A trial fails when it raises, when its record is malformed or its rates do
not follow from its counts, when a rerun of it (traced or not) gives another
record, or when run_sweep's files do not hold its records.  The digest of
the trial set's records is compared with digests.json, as information.
Exits with code 2, printing no result, when the checkout has no rmaccess
sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import benchenv

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of SETUP_PROBES fresh interpreters running setup_probe.py."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def end_to_end(outcome, sweep: bool, setup_s: float) -> dict:
    import numpy as np

    side = outcome.untraced
    records = outcome.tally.set_records(outcome.keys)
    miss_rate = statistics.fmean(r["miss"] for r in records if r["miss"] is not None)
    false_alarm_rate = statistics.fmean(r["fa"] for r in records)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sweep:
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "trials_per_s": side.trials_per_s,
        "trial_s_p50": float(np.percentile(side.walls, 50)),
        "trial_s_p90": float(np.percentile(side.walls, 90)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "recall": 1.0 - miss_rate,
        "precision": 1.0 - false_alarm_rate,
        # printed, not registered: a registered metric must never be 0, so the
        # rates are registered as recall and precision, and failed trials are
        # the result's `failed` count
        "miss_rate": miss_rate,
        "false_alarm_rate": false_alarm_rate,
        "failed_trial_ratio": outcome.tally.failed / outcome.tally.attempted,
    }


def per_layer(outcome, sweep: bool) -> dict:
    import tracing

    metrics = tracing.layer_metrics(outcome.spans, outcome.keys)
    traced = outcome.traced
    if sweep:
        walls, workers_cpu, parent_cpu = (list(col) for col in zip(*traced.sweeps))
        utilization = [cpu / (outcome.workers * wall) for wall, cpu in zip(walls, workers_cpu)]
    else:
        # one pass over the trial set, run by this process alone
        passes = traced.trials / len(outcome.keys)
        walls, workers_cpu = [sum(traced.walls) / passes], [sum(traced.cpus) / passes]
        parent_cpu, utilization = [0.0], [workers_cpu[0] / walls[0]]
    metrics.update(
        {
            "sim_cli.run_sweep_s": statistics.median(walls),
            "sim_cli.worker_cpu_s": statistics.median(workers_cpu),
            "sim_cli.parent_cpu_s": statistics.median(parent_cpu),
            "sim_cli.pool_utilization": statistics.median(utilization),
            "sim_cli.warmup_trial_s": outcome.warmup_s,
            "bench.traced_trials_per_s": traced.trials_per_s,
            "bench.untraced_trials_per_s": outcome.untraced.trials_per_s,
            "bench.trace_overhead": outcome.untraced.trials_per_s / traced.trials_per_s,
        }
    )
    return metrics


def scaled(value: float, unit: str, speed: float) -> float:
    """A time (unit s) or rate (unit 1/s) measured at machine speed `speed`,
    rescaled to the reference speed 1."""
    if unit == "s":
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def digest_note(workload: str, seed: int, digest: str) -> str:
    path = HERE / "digests.json"
    reference = json.loads(path.read_text()).get(workload, {}).get(str(seed)) if path.exists() else None
    if reference is None:
        return f"records digest {digest}: no stored reference for seed {seed}"
    verdict = "matches" if reference == digest else "DIFFERS from"
    return f"records digest {digest}: {verdict} the stored reference for seed {seed}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchenv.prepare()
    except benchenv.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import calibration
    import checks
    import tracing
    import workloads

    contract = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    registered = contract["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    sweep = workload.point is None
    env = benchenv.stamp()
    print("env " + json.dumps(env))

    setup_s = 0.0 if args.trace else setup_seconds(workload.name, args.seed)
    recorder = tracing.Recorder() if args.trace else None
    try:
        outcome = workloads.run(workload, args.seed, args.seconds, recorder, workdir=benchenv.OUT)
    except Exception:  # the warm-up trial raised
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    tally = outcome.tally
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if tally.failed or tally.problems:
        result = {"correct": False, "attempted": tally.attempted, "failed": max(1, tally.failed), "metrics": {}}
        print(json.dumps(result))
        return 0
    metrics = per_layer(outcome, sweep) if args.trace else end_to_end(outcome, sweep, setup_s)
    units = {m["name"]: m["unit"] for m in registered}
    speed = calibration.REFERENCE_S / statistics.median(outcome.calibration)
    extras = {name: (value, "ratio") for name, value in metrics.items() if name not in units}
    if not args.trace:
        extras.update({f"wall.{n}": (metrics[n], units[n]) for n in units if units[n] in ("s", "1/s")})
    extras["machine_speed"] = (speed, "ratio")
    metrics = {name: scaled(metrics[name], units[name], speed) for name in units}

    side = outcome.traced if args.trace else outcome.untraced
    print(
        f"{workload.name} seed {args.seed}: {side.trials} {'traced ' if args.trace else ''}trials "
        f"over a set of {len(outcome.keys)}, {outcome.workers} worker(s)"
    )
    for name, (value, unit) in [*((n, (metrics[n], units[n])) for n in units), *extras.items()]:
        label = " (computed)" if name in tracing.COMPUTED else ""
        print(f"  {name:<42} {value:<14.6g} {unit}{label}")
    print(digest_note(workload.name, args.seed, checks.records_digest(tally.set_records(outcome.keys))))
    if args.trace:
        header = {"workload": workload.name, "seed": args.seed, "env": env}
        path = benchenv.OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        tracing.write_spans(path, header, outcome.spans)
        print(f"spans written to {path.relative_to(benchenv.ROOT)}")
    result = {
        "correct": True,
        "attempted": tally.attempted,
        "failed": 0,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in registered},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
