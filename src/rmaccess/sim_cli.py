"""Monte Carlo harness and command line.

Runs seeded sweeps over device count, antennas and code geometry, one frame
per trial: sample a population, synthesize every slot, decode, score the
output against the in-cell ground truth.  Results land in a line-delimited
JSON file (one record per trial) next to an aggregate CSV table.  A rerun
with the same output stem skips the (K, r, m, p, d, trial) records already
in the JSONL, even if other spec fields changed; the JSONL is written only
after the last trial, so an interrupted sweep keeps nothing.

Per-trial seeds derive from (master seed, point, trial), so records do not
depend on worker scheduling.  The RMACCESS_WORKERS environment variable (or
--workers) caps the process pool; 1 runs everything in-process.

Subcommands: run (a YAML spec file or a named preset) and bench (decoder
wall-time scaling).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .access_pipeline import FrameConfig, decode_frame, error_metrics, segment_pair_bits
from .geometry_channel import (
    GeometryConfig,
    classify_neighbors,
    expected_neighbors,
    frame_observations,
    interference_power,
    sample_frame,
    synthesize_slot,
)
from .rm_codec import bits_to_pair_batch, rm_samples_batch
from .slot_detector import DetectorConfig, detect_slot

__all__ = [
    "ExperimentSpec",
    "run_single_trial",
    "run_sweep",
    "scaling_bench",
    "presets",
    "main",
]

CSV_HEADER = "K,r,m,p,d,B,C,K_star,miss_mean,miss_se,fa_mean,fa_se,trials"

_AXES = ("K", "r", "m", "p", "d")


def calibrated_epsilon(frame: FrameConfig, geo: GeometryConfig) -> float:
    """Residual threshold under which a slot is declared exhausted.

    The expected energy a slot holds once every detectable transmission has
    been cancelled is the noise plus the average out-of-cell interference,

        eps**2 = r N  +  copies * sigma2 * N / 2**p,

    so the per-slot loop stops at that floor.  The detector's source
    proposes the closed form

        eps = sqrt(22 K**(-1/3) r**(-1/4) (sigma2 + r 2**m)) - d + 3(m - p)

    for K active devices, which drifts below this floor as antennas grow
    (the two agree at r=1): the loop then mistakes interference for
    undetected devices and spends its iteration budget on them.  The source
    calls the choice an open question and suggests tuning for the regime of
    interest, which is what this rule is, so the closed form is not used.
    The harness pairs it with the received-power screen in decode_frame,
    which keeps sub-threshold devices dug up near the floor out of the
    reported set.
    """
    n = frame.seq_len
    noise = geo.r * n
    interference = frame.copies * interference_power(geo) * n / frame.n_slots
    return math.sqrt(noise + interference)


def _is_integral(value) -> bool:
    """An int, or a real number with an integer value; bools are not."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return False
    return float(value).is_integer()


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: fixed physics, code defaults, sweep axes, trial plan.

    The sweep maps axis names (K, r, m, p, d) to value lists; missing axes
    pin to the defaults below.  K is the expected device count, converted to
    a density over the region area.
    """

    area: float = 250_000.0
    alpha: float = 4.0
    theta: float = 1e-6
    gamma_db: float = 60.0
    delta_f: float = 15e3
    tau_max: float = 10e-6
    m: int = 6
    p: int = 6
    d: int = 0
    devices: int = 1000
    antennas: int = 16
    eps: float | None = None
    k_max: int | None = None
    refine_window: float = 0.1
    refine_resolution: float = 1e-4
    sweep: dict = field(default_factory=dict)
    trials: int = 20
    seed: int = 2024
    out: str = "results/run"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for axis, values in self.sweep.items():
            if axis not in _AXES:
                raise ValueError(f"unknown sweep axis {axis!r}; expected one of {_AXES}")
            if not values:
                raise ValueError(f"sweep axis {axis!r} is empty")
            for value in values:
                if not _is_integral(value):
                    raise ValueError(f"sweep axis {axis!r} has non-integer value {value!r}")
            if len({int(v) for v in values}) != len(values):
                raise ValueError(f"sweep axis {axis!r} repeats a value: {list(values)}")

    @property
    def gamma(self) -> float:
        return 10.0 ** (self.gamma_db / 10.0)

    def points(self) -> list[dict]:
        defaults = {"K": self.devices, "r": self.antennas, "m": self.m, "p": self.p, "d": self.d}
        axes = [[int(v) for v in self.sweep.get(name, [defaults[name]])] for name in _AXES]
        return [dict(zip(_AXES, combo)) for combo in itertools.product(*axes)]

    def frame_for(self, point: dict) -> FrameConfig:
        return FrameConfig(
            m=point["m"],
            p=point["p"],
            d=point["d"],
            delta_f=self.delta_f,
            tau_max=self.tau_max,
        )

    def geometry_for(self, point: dict) -> GeometryConfig:
        return GeometryConfig(
            density=point["K"] / self.area,
            area=self.area,
            alpha=self.alpha,
            theta=self.theta,
            gamma=self.gamma,
            r=point["r"],
        )

    def detector_for(self, point: dict) -> DetectorConfig:
        """eps and k_max default to calibrated_epsilon and to
        ceil(6 K_star / 2**p * r**(1/4)) iterations, at least one, with
        K_star the expected neighbor count."""
        geo = self.geometry_for(point)
        eps = calibrated_epsilon(self.frame_for(point), geo) if self.eps is None else float(self.eps)
        neighbors = expected_neighbors(geo)
        k_max = max(1, math.ceil(6.0 * neighbors / 2 ** point["p"] * point["r"] ** 0.25))
        return DetectorConfig(
            k_max=k_max if self.k_max is None else int(self.k_max),
            eps=eps,
            refine_window=self.refine_window,
            refine_resolution=self.refine_resolution,
            estimate_delay=self.tau_max > 0,
        )

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentSpec":
        """Build a spec from a parsed YAML mapping.

        Accepts the spec fields flat, or grouped under geometry / frame /
        detector sections for readability; unknown keys raise.
        """
        data = dict(data or {})
        section_keys = {
            "geometry": {"area", "alpha", "theta", "gamma_db"},
            "frame": {"m", "p", "d", "delta_f", "tau_max", "devices", "antennas"},
            "detector": {"eps", "k_max", "refine_window", "refine_resolution"},
        }
        kwargs: dict = {}
        for section, allowed in section_keys.items():
            for key, value in (data.pop(section, {}) or {}).items():
                if key not in allowed:
                    raise ValueError(f"unknown key {key!r} in section {section!r}")
                kwargs[key] = value
        sweep = data.pop("sweep", {}) or {}
        kwargs["sweep"] = {k: list(v) for k, v in sweep.items()}
        flat_keys = {f.name for f in dataclasses.fields(cls)}
        for key, value in data.items():
            if key not in flat_keys:
                raise ValueError(f"unknown key {key!r} in experiment spec")
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_mapping(yaml.safe_load(fh))


def presets() -> dict[str, ExperimentSpec]:
    """Ready-made experiment specs.

    baseline: miss/false-alarm vs device count at the default code point.
    antennas: antenna sweep at a crowded point.
    subblocks: message split over 2 and 4 sub-blocks vs device count.
    synchronous: the zero-delay variant with a longer code and fewer slots.
    """
    return {
        "baseline": ExperimentSpec(
            sweep={"K": [1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000], "r": [16]},
            out="results/baseline",
        ),
        "antennas": ExperimentSpec(
            devices=2000,
            sweep={"r": [1, 2, 4, 16]},
            out="results/antennas",
        ),
        "subblocks": ExperimentSpec(
            sweep={"K": [1000, 2000, 4000, 8000], "d": [1, 2]},
            out="results/subblocks",
        ),
        "synchronous": ExperimentSpec(
            m=10,
            p=2,
            tau_max=0.0,
            sweep={"K": [1000, 2000, 4000, 8000], "r": [16]},
            out="results/synchronous",
        ),
    }


# -- trials ----------------------------------------------------------------


def run_single_trial(spec: ExperimentSpec, point: dict, trial: int) -> dict:
    """One seeded frame at one sweep point, scored against its ground truth."""
    seed_seq = np.random.SeedSequence(
        [spec.seed, point["K"], point["r"], point["m"], point["p"], point["d"], trial]
    )
    rng = np.random.default_rng(seed_seq)
    frame = spec.frame_for(point)
    geo = spec.geometry_for(point)
    pop = sample_frame(geo, frame, rng)
    observations = frame_observations(pop, frame, geo, rng, noise_on=True)
    det_cfg = spec.detector_for(point)
    started = time.perf_counter()
    decoded = decode_frame(
        observations, det_cfg, frame, power_floor=geo.gamma * geo.r * geo.theta
    )
    runtime = time.perf_counter() - started
    in_cell = classify_neighbors(pop, geo)
    metrics = error_metrics(decoded.messages, list(pop.info[in_cell]))
    return {
        **{axis: int(point[axis]) for axis in _AXES},
        "trial": int(trial),
        "B": frame.message_bits,
        "C": frame.codelength,
        "K_star": expected_neighbors(geo),
        "miss": None if metrics.miss_rate is None else float(metrics.miss_rate),
        "fa": float(metrics.false_alarm_rate),
        "truth": metrics.truth_count,
        "decoded": metrics.decoded_count,
        "overflow": bool(decoded.overflow),
        "runtime": runtime,
    }


def _trial_task(args: tuple) -> dict:
    return run_single_trial(*args)


def _record_key(rec: dict) -> tuple:
    return tuple(int(rec[axis]) for axis in _AXES) + (int(rec["trial"]),)


def _resolve_workers(explicit: int | None) -> int:
    source = "workers"
    if explicit is None:
        explicit = os.environ.get("RMACCESS_WORKERS", "").strip()
        if not explicit:
            return os.cpu_count() or 1
        source = "RMACCESS_WORKERS"
    try:
        count = int(explicit)
    except ValueError as exc:
        raise ValueError(f"{source} must be an integer, got {explicit!r}") from exc
    if count < 1:
        raise ValueError(f"{source} must be at least 1, got {explicit!r}")
    return count


def _aggregate(records: list[dict]) -> list[str]:
    """CSV rows (without header), one per sweep point, in record order."""
    by_point: dict[tuple, list[dict]] = {}
    for rec in records:
        by_point.setdefault(tuple(int(rec[a]) for a in _AXES), []).append(rec)
    rows = []
    for key in sorted(by_point):
        recs = by_point[key]
        misses = np.array([r["miss"] for r in recs if r["miss"] is not None], dtype=float)
        fas = np.array([r["fa"] for r in recs], dtype=float)

        def _mean_se(vals: np.ndarray) -> tuple[float, float]:
            if vals.size == 0:
                return math.nan, math.nan
            se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            return float(vals.mean()), se

        miss_mean, miss_se = _mean_se(misses)
        fa_mean, fa_se = _mean_se(fas)
        rows.append(
            ",".join(
                [
                    *(str(k) for k in key),
                    str(int(recs[0]["B"])),
                    str(int(recs[0]["C"])),
                    f"{recs[0]['K_star']:.6g}",
                    f"{miss_mean:.6g}",
                    f"{miss_se:.6g}",
                    f"{fa_mean:.6g}",
                    f"{fa_se:.6g}",
                    str(len(recs)),
                ]
            )
        )
    return rows


def run_sweep(spec: ExperimentSpec, workers: int | None = None) -> list[dict]:
    """All (point, trial) records of a spec, with aggregation.

    Writes <out>.jsonl (one record per line, sorted by point and trial) and
    <out>.csv after the last trial, returns the full record list.  Existing
    records in the output file are trusted and not recomputed.
    """
    out_stem = Path(spec.out)
    if out_stem.parent != Path("."):
        out_stem.parent.mkdir(parents=True, exist_ok=True)
    jsonl_path = out_stem.with_suffix(".jsonl")
    csv_path = out_stem.with_suffix(".csv")
    records: list[dict] = []
    if jsonl_path.exists():
        with open(jsonl_path, "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    done = {_record_key(rec) for rec in records}
    tasks = [
        (spec, point, trial)
        for point in spec.points()
        for trial in range(spec.trials)
        if tuple(point[a] for a in _AXES) + (trial,) not in done
    ]
    n_workers = _resolve_workers(workers)
    if tasks:
        if n_workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=min(n_workers, len(tasks))) as pool:
                records.extend(pool.map(_trial_task, tasks))
        else:
            records.extend(_trial_task(task) for task in tasks)
    records.sort(key=_record_key)
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    rows = _aggregate(records)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    return records


# -- scaling benchmark ------------------------------------------------------


def scaling_bench(
    m_values: tuple[int, ...] = (11, 12, 13, 14),
    r: int = 16,
    reps: int = 3,
    seed: int = 2024,
) -> list[dict]:
    """Decoder wall time across sequence orders, against the per-iteration
    work model 2**m (4r + m + 2) times the iteration cap.

    The model counts the array entries one SIC iteration of detect_slot
    touches at order m with r antennas and N = 2**m.  Four passes run over
    r rows: the layers' adjacent-column correlations and their folds (r
    2**(s-1) at layer s, about rN each over s = m..2), the cancellation
    Y - outer(h, X * ramp) and the residual norm (rN each).  The layers'
    Walsh-Hadamard transforms take s-1 passes over 2**(s-1) entries,
    (m - 2) N + 2 in all.  The layers' peak magnitudes and Walsh factors
    and the reconstruction's sequence recursion and delay ramp add about N
    each, 4N in all.

    Each point is a noiseless two-device slot decoded with eps = 0 and
    k_max = 2, so every run spends exactly two iterations.  Each round
    decodes every slot once, so a slow spell of the machine reaches all
    orders alike, and each time is the best of `reps` rounds.
    `normalized` is time / (c * model) with one shared constant c fitted
    as the geometric mean of the time/model ratios, so values near 1 across
    m mean the measured growth matches the model.  The default grid starts
    at m=11: below that, fixed per-call overhead rather than the modeled
    arithmetic dominates the wall time.
    """
    rng = np.random.default_rng(seed)
    cfg = DetectorConfig(k_max=2, eps=0.0)
    slots, results = [], []
    for m in m_values:
        frame = FrameConfig(int(m), p=1)
        segments, h, delta = [], [], []
        for scale in (2.0, 1.0):
            payload = rng.integers(0, 2, size=frame.segment_bits - 2, dtype=np.uint8)
            segments.append(np.concatenate([[0, 1], payload]))  # slot 0, translate 1
            h.append(scale * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=r)))
            delta.append(rng.uniform(-math.pi, math.pi))
        bits = segment_pair_bits(np.stack(segments), frame, np.zeros(2, dtype=bool))
        X = rm_samples_batch(*bits_to_pair_batch(bits))
        slots.append(synthesize_slot(X, np.stack(h), np.array(delta), gamma=1.0))
        model = cfg.k_max * (2.0**m) * (4 * r + m + 2)
        results.append({"m": int(m), "r": int(r), "seconds": math.inf, "model": model})
    for _ in range(max(1, reps)):
        for Y, rec in zip(slots, results):
            started = time.perf_counter()
            rec["detections"] = len(detect_slot(Y, cfg))
            rec["seconds"] = min(rec["seconds"], time.perf_counter() - started)
    ratios = np.array([rec["seconds"] / rec["model"] for rec in results])
    constant = float(np.exp(np.mean(np.log(ratios))))
    for rec in results:
        rec["normalized"] = rec["seconds"] / (constant * rec["model"])
    return results


# -- CLI ---------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    if args.preset:
        catalog = presets()
        if args.preset not in catalog:
            raise SystemExit(f"unknown preset {args.preset!r}; have {sorted(catalog)}")
        spec = catalog[args.preset]
    elif args.spec:
        spec = ExperimentSpec.from_yaml(args.spec)
    else:
        raise SystemExit("provide a spec file or --preset")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    records = run_sweep(spec, workers=args.workers)
    print(f"wrote {len(records)} records to {Path(spec.out).with_suffix('.jsonl')}")
    print(CSV_HEADER)
    for row in _aggregate(records):
        print(row)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    m_values = tuple(int(v) for v in args.m.split(","))
    results = scaling_bench(m_values=m_values, r=args.r, reps=args.reps, seed=args.seed)
    print("work model: 2**m (4r + m + 2) per SIC iteration, 2 iterations per run")
    print(f"{'m':>4} {'r':>4} {'seconds':>12} {'model':>14} {'normalized':>11}")
    for rec in results:
        print(
            f"{rec['m']:>4} {rec['r']:>4} {rec['seconds']:>12.6f} "
            f"{rec['model']:>14.0f} {rec['normalized']:>11.3f}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rmaccess", description="Monte Carlo harness for the access simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a YAML spec or preset")
    p_run.add_argument("spec", nargs="?", help="path to a YAML experiment spec")
    p_run.add_argument("--preset", help="named preset (see `presets`)")
    p_run.add_argument("--seed", type=int, help="master seed override")
    p_run.add_argument("--trials", type=int, help="trials per point override")
    p_run.add_argument("--out", help="output stem override (.jsonl/.csv appended)")
    p_run.add_argument("--workers", type=int, help="process count (default: RMACCESS_WORKERS or all cores)")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="decoder wall-time scaling benchmark")
    p_bench.add_argument("--m", default="11,12,13,14", help="comma-separated sequence orders")
    p_bench.add_argument("--r", type=int, default=16, help="antenna count")
    p_bench.add_argument("--reps", type=int, default=3, help="repetitions per point (best kept)")
    p_bench.add_argument("--seed", type=int, default=2024)
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
