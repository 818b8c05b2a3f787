"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Checks that
- the stop-reason derivation names the right reason on constructed slots,
- the output check rejects tampered records,
- the reported miss and false-alarm rates are exactly the means of the
  records run_single_trial returns for the same seed, and
- run.py prints every metric named in BENCHMARK.json with its unit, on every
  workload, untraced and traced (one or two trials per workload).
Exits non-zero at the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import sys

import benchenv

SEED = 5


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def stop_reasons() -> None:
    import numpy as np
    from rmaccess import slot_detector
    from rmaccess.geometry_channel import synthesize_slot
    from rmaccess.rm_codec import BitLayout, generate_sequence, pack_bits

    import tracing

    layout = BitLayout.asynchronous(6, 2)
    rng = np.random.default_rng(0)
    transmissions = []
    for scale, translate in ((2.0, [0, 1]), (1.0, [1, 0])):
        payload = rng.integers(0, 2, layout.payload_size, dtype=np.uint8)
        pair = pack_bits(payload, np.array(translate, dtype=np.uint8), False, layout)
        h = scale * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=4))
        transmissions.append((generate_sequence(pair), h, float(rng.uniform(-np.pi, np.pi))))
    two_devices = synthesize_slot(transmissions, gamma=1.0, noise_on=False).Y
    cases = (
        ("noiseless 2-device slot with k_max=1", two_devices, 1, 1e-9, "kmax"),
        ("noiseless 2-device slot with a huge eps", two_devices, 8, 1e9, "eps"),
        ("empty slot with a negative eps", np.zeros((4, 64), complex), 8, -1.0, "degenerate"),
    )
    recorder = tracing.Recorder()
    for label, Y, k_max, eps, expected in cases:
        cfg = slot_detector.DetectorConfig(k_max=k_max, eps=eps)
        with tracing.tracing(recorder), recorder.trial() as spans:
            slot_detector.detect_slot(Y, cfg)
        stats = tracing.trial_stats(spans)
        found = [r for r in tracing.STOP_REASONS if stats["slot_detector.stop_" + r] == 1]
        check(found == [expected], f"{label} stops by {expected} (derived: {found})")
    check(tracing.stop_reason(2, 3, 5.0, 1.0, 8) == "no_gain", "an extra reconstruction means no gain")


def tampered_records(spec, record: dict) -> None:
    import checks

    check(checks.check_record(record, spec) == [], "a record from run_single_trial passes the check")
    bad_fa = dict(record, fa=record["fa"] + 1e-3)
    check(checks.check_record(bad_fa, spec) != [], "a false-alarm rate off its counts is caught")
    bad_miss = dict(record, miss=0.5 / record["truth"])
    check(checks.check_record(bad_miss, spec) != [], "a miss rate that is no whole count is caught")
    missing = {k: v for k, v in record.items() if k != "overflow"}
    check(checks.check_record(missing, spec) != [], "a missing field is caught")


def exact_rates(workload) -> None:
    from rmaccess import sim_cli

    import run
    import workloads

    outcome = workloads.run(workload, SEED, 0.0)
    metrics = run.end_to_end(outcome, False, 1.0)
    spec = workloads.spec_for(workload, SEED)
    records = [sim_cli.run_single_trial(spec, p, t) for p, t in workloads.trial_set(workload, spec)]
    tampered_records(spec, records[0])
    miss = statistics.fmean(r["miss"] for r in records if r["miss"] is not None)
    fa = statistics.fmean(r["fa"] for r in records)
    check(
        (metrics["miss_rate"], metrics["false_alarm_rate"]) == (miss, fa),
        f"{workload.name} rates equal the means of run_single_trial's records",
    )


def printed_metrics(name: str, trace: int, contract: dict) -> None:
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    named = contract["per_layer" if trace else "end_to_end"]
    check(code == 0 and result["correct"] and result["failed"] == 0, f"{name} trace={trace} runs clean")
    units = {metric: value["unit"] for metric, value in result["metrics"].items()}
    check(
        units == {m["name"]: m["unit"] for m in named},
        f"{name} trace={trace} reports exactly the {len(named)} named metrics with their units",
    )
    report = {tuple(line.split()[::2]) for line in lines if line.startswith("  ")}
    check(
        all((m["name"], m["unit"]) in report for m in named),
        f"{name} trace={trace} prints each named metric with its unit",
    )


def main() -> int:
    benchenv.prepare()
    import workloads

    contract = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    stop_reasons()
    for name, workload in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = dataclasses.replace(workload, trials=1 if workload.point is None else 2)
    exact_rates(workloads.WORKLOADS["async-crowded"])
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            printed_metrics(name, trace, contract)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
