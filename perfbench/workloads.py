"""The benchmark's workloads and the loops that run them.

Each workload is a fixed seeded trial set drawn through rmaccess's public
API with the preset's seed replaced by the benchmark's seed:

- async-crowded: `trials` trials of the baseline preset at K=8000, r=16,
  m=p=6, run in-process by one closed-loop client (a trial starts when the
  previous one ends).  Population, synthesis and a decode of 64 short slots
  each carry a large share of a trial.
- sync-long-code: the same, at the synchronous preset's K=4000, r=16, m=10,
  p=2 point.  Synthesis dominates; the detector sees 4 long slots and never
  calls refine_delay, so a change there should not move this workload.
- sweep-antennas: the whole antennas preset (K=2000, r in 1, 2, 4, 16) with
  `trials` trials per point, through sim_cli.run_sweep with one worker per
  CPU into a fresh output stem: the only workload that goes through the
  process pool and the JSONL/CSV writes.

The loops go round the trial set until `seconds` have passed and the whole
set has run at least once, timing the calibration kernel after every trial
(every sweep) outside the timed calls.  With a recorder, every trial (every
sweep, for sweep-antennas) runs twice, traced and untraced, in alternating
order, so the two can be compared record for record and in throughput.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from rmaccess import sim_cli

import benchenv
import calibration
import checks
import tracing


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    trials: int
    point: dict | None = None  # None: every point of the preset, through run_sweep


# Set sizes: one pass fits in a 30 s run on 2 CPUs, and recall and precision
# over a set vary by under 3% between seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("async-crowded", "baseline", 32, {"K": 8000, "r": 16, "m": 6, "p": 6, "d": 0}),
        Workload("sync-long-code", "synchronous", 12, {"K": 4000, "r": 16, "m": 10, "p": 2, "d": 0}),
        Workload("sweep-antennas", "antennas", 12),
    )
}


# calibration samples after each sweep, which takes a few seconds
SWEEP_CALIBRATIONS = 4


def spec_for(workload: Workload, seed: int) -> sim_cli.ExperimentSpec:
    spec = dataclasses.replace(
        sim_cli.presets()[workload.preset], seed=seed, trials=workload.trials
    )
    if workload.point is not None and workload.point not in spec.points():
        raise ValueError(f"{workload.point} is not a point of the {workload.preset} preset")
    return spec


def trial_set(workload: Workload, spec) -> list[tuple]:
    """(point, trial) of every trial in the set, in record order."""
    points = [workload.point] if workload.point is not None else spec.points()
    return [(point, trial) for point in points for trial in range(spec.trials)]


def build_configs(workload: Workload, seed: int) -> list:
    """What a user builds before the first trial: the spec and each point's
    frame, geometry and detector configs."""
    spec = spec_for(workload, seed)
    points = [workload.point] if workload.point is not None else spec.points()
    return [(spec.frame_for(p), spec.geometry_for(p), spec.detector_for(p)) for p in points]


@dataclass
class Tally:
    """Trials attempted and failed, checked records, and output problems.

    A trial fails when it raises, when its record fails check_record, or
    when it differs (runtime aside) from an earlier run of the same trial.
    """

    spec: sim_cli.ExperimentSpec
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first: dict = field(default_factory=dict)

    def add(self, record: dict, problems: list | None = None) -> None:
        self.attempted += 1
        problems = list(problems or []) + checks.check_record(record, self.spec)
        if not problems:
            key = checks.record_key(record)
            stripped = checks.strip_runtime(record)
            if self.first.setdefault(key, stripped) != stripped:
                problems.append(f"trial {key}: record differs from an earlier run of it")
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def fail(self, trials: int, problem: str) -> None:
        self.attempted += trials
        self.failed += trials
        self.problems.append(problem)

    def set_records(self, keys: list[tuple]) -> list[dict]:
        return [self.first[key] for key in keys if key in self.first]


@dataclass
class Side:
    """Timings of the traced or the untraced runs of one loop."""

    walls: list = field(default_factory=list)  # per-trial wall seconds
    cpus: list = field(default_factory=list)  # per-trial CPU seconds
    seconds: float = 0.0  # wall seconds of the timed calls
    sweeps: list = field(default_factory=list)  # (wall, worker CPU, parent CPU) per run_sweep

    def add(self, wall: float, cpu: float, count_wall: bool = True) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        if count_wall:
            self.seconds += wall

    @property
    def trials(self) -> int:
        return len(self.walls)

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.seconds


@dataclass
class Outcome:
    tally: Tally
    keys: list  # trial keys of the set, in record order
    workers: int
    warmup_s: float
    untraced: Side = field(default_factory=Side)
    traced: Side = field(default_factory=Side)
    spans: list = field(default_factory=list)  # (trial key, spans) of traced trials
    calibration: list = field(default_factory=list)  # kernel seconds, sampled between trials


def _order(i: int, recorder) -> list[bool]:
    """Traced flags of the runs of step i: one untraced run without a
    recorder, else a traced/untraced pair whose order alternates."""
    if recorder is None:
        return [False]
    return [False, True] if i % 2 == 0 else [True, False]


@contextmanager
def _traced_trial(traced: bool, recorder):
    """Spans of one in-process trial, or None when it runs untraced."""
    if not traced:
        yield None
        return
    with tracing.tracing(recorder), recorder.trial() as spans:
        yield spans


def _cpu() -> tuple[float, float]:
    """CPU seconds of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def run(workload: Workload, seed: int, seconds: float, recorder=None, workdir: Path | None = None) -> Outcome:
    """Warm up with the set's first trial, then run the timed loop."""
    spec = spec_for(workload, seed)
    tasks = trial_set(workload, spec)
    keys = [checks.record_key({**point, "trial": trial}) for point, trial in tasks]
    started = time.perf_counter()
    warm = sim_cli.run_single_trial(spec, *tasks[0])
    outcome = Outcome(Tally(spec), keys, 1, time.perf_counter() - started)
    outcome.tally.add(warm)
    if workload.point is None:
        outcome.workers = min(len(tasks), benchenv.nproc())
        _sweep_loop(spec, seconds, recorder, outcome, workdir)
    else:
        _trial_loop(spec, tasks, seconds, recorder, outcome)
    return outcome


def _trial_loop(spec, tasks, seconds, recorder, outcome: Outcome) -> None:
    started = time.perf_counter()
    i = 0
    while i < len(tasks) or time.perf_counter() - started < seconds:
        point, trial = tasks[i % len(tasks)]
        for traced in _order(i, recorder):
            side = outcome.traced if traced else outcome.untraced
            try:
                with _traced_trial(traced, recorder) as spans:
                    wall, cpu = time.perf_counter(), time.process_time()
                    record = sim_cli.run_single_trial(spec, point, trial)
                    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            except Exception as exc:  # a failed trial is counted and the loop goes on
                outcome.tally.fail(1, f"trial {trial} raised {exc!r}")
                continue
            side.add(wall, cpu)
            outcome.tally.add(record)
            if traced:
                outcome.spans.append((checks.record_key(record), spans))
        outcome.calibration.append(calibration.sample())
        i += 1


def _sweep_loop(spec, seconds, recorder, outcome: Outcome, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        started = time.perf_counter()
        i = 0
        while i < 1 or time.perf_counter() - started < seconds:
            for traced in _order(i, recorder):
                side = outcome.traced if traced else outcome.untraced
                sweep = dataclasses.replace(spec, out=str(Path(tmp) / f"sweep{i}-{int(traced)}"))
                try:
                    with tracing.pool_tasks(), tracing.tracing(recorder) if traced else nullcontext():
                        cpu, wall = _cpu(), time.perf_counter()
                        records = sim_cli.run_sweep(sweep, workers=outcome.workers)
                        wall = time.perf_counter() - wall
                        own, children = (after - before for after, before in zip(_cpu(), cpu))
                except Exception as exc:  # the whole sweep is lost; stop here
                    outcome.tally.fail(len(outcome.keys), f"run_sweep raised {exc!r}")
                    return
                side.sweeps.append((wall, children, own))
                problems = _check_sweep_files(Path(sweep.out), records, spec)
                for record in records:
                    side.add(record.wall_s, record.cpu_s, count_wall=False)
                    outcome.tally.add(dict(record), problems)
                    if traced:
                        outcome.spans.append((checks.record_key(record), record.spans))
                side.seconds += wall
                outcome.calibration.extend(calibration.sample() for _ in range(SWEEP_CALIBRATIONS))
            i += 1


def _check_sweep_files(stem: Path, records: list[dict], spec) -> list[str]:
    """run_sweep's JSONL must hold exactly the returned records, and its CSV
    one row per point over all the point's trials."""
    with open(stem.with_suffix(".jsonl"), encoding="utf-8") as fh:
        written = [json.loads(line) for line in fh]
    problems = []
    if written != [dict(record) for record in records]:
        problems.append(f"{stem.name}.jsonl differs from the records run_sweep returned")
    with open(stem.with_suffix(".csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [sim_cli.CSV_HEADER] or len(lines) != 1 + len(spec.points()):
        problems.append(f"{stem.name}.csv does not have a header and one row per point")
    elif any(line.rsplit(",", 1)[1] != str(spec.trials) for line in lines[1:]):
        problems.append(f"{stem.name}.csv rows do not count {spec.trials} trials each")
    return problems
