"""Spans around rmaccess's public functions, recorded from outside the package.

tracing(recorder) replaces each function in PATCHES by a timing wrapper at
the module attribute its caller looks it up under, and puts the originals
back on exit; the package itself is not changed.  A span is the list
[name, start, end, parent, info]: perf_counter seconds, the index of the
enclosing span within the same trial (-1 at the top), and a small summary of
the call's result where a metric needs one.  Spans are kept per trial in
memory; write_spans() writes them out when the run ends.

sim_cli.run_sweep hands sim_cli._trial_task to a forked process pool, which
pickles the task function by name.  pool_tasks() therefore swaps in the
module-level timed_trial_task, and the active recorder is reached through a
module variable so that forked workers see the same patched functions and
recorder as the parent.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from rmaccess import access_pipeline, geometry_channel, sim_cli, slot_detector

DETECT = "slot_detector.detect_slot"
DECODE = "access_pipeline.decode_frame"
RECONSTRUCT = "slot_detector.reconstruct_signal"
CORRELATE = "slot_detector.correlate_layer"
STOP_REASONS = ("eps", "kmax", "no_gain", "degenerate")
# counts computed from array shapes and the paper's per-iteration work model,
# not measured; they repeat exactly for a seed
COMPUTED = ("rm_codec.rm_samples_batch_bytes", "slot_detector.model_ops")
COUNTS = (
    "geometry_channel.devices",
    "rm_codec.rm_samples_batch_bytes",
    "rm_codec.wht_calls",
    "slot_detector.detect_slot_calls",
    "slot_detector.iterations",
    "slot_detector.detections",
    "slot_detector.model_ops",
    *("slot_detector.stop_" + reason for reason in STOP_REASONS),
    "access_pipeline.pending_cancellations",
    "access_pipeline.candidates",
    "access_pipeline.overflow_frames",
)


def _device_count(args, out):
    return len(out)


def _nbytes(args, out):
    return int(out.nbytes)


def _columns(args, out):
    return int(np.shape(args[0])[1])


def _decode_summary(args, out):
    return (sum(out.candidate_counts), bool(out.overflow))


def _detect_summary(args, out):
    """(detections, final residual norm, eps, k_max, antennas, columns)."""
    observation, cfg = args[0], args[1]
    Y = observation if isinstance(observation, np.ndarray) else observation.Y
    final = out[-1].residual_after if out else float(np.linalg.norm(Y))
    return (len(out), float(final), float(cfg.eps), int(cfg.k_max), Y.shape[0], Y.shape[1])


# (module, attribute the caller looks up, span name, result summary)
PATCHES = (
    (sim_cli, "sample_frame", "geometry_channel.sample_frame", _device_count),
    (sim_cli, "frame_observations", "geometry_channel.frame_observations", None),
    (sim_cli, "classify_neighbors", "geometry_channel.classify_neighbors", None),
    (sim_cli, "decode_frame", DECODE, _decode_summary),
    (sim_cli, "error_metrics", "access_pipeline.error_metrics", None),
    (geometry_channel, "draw_messages", "access_pipeline.draw_messages", None),
    (geometry_channel, "rm_samples_batch", "rm_codec.rm_samples_batch", _nbytes),
    (access_pipeline, "unpack_bits", "rm_codec.unpack_bits", None),
    (access_pipeline, "tree_decode", "access_pipeline.tree_decode", None),
    (slot_detector, "detect_slot", DETECT, _detect_summary),
    (slot_detector, "reconstruct_signal", RECONSTRUCT, None),
    (slot_detector, "rm_samples", "rm_codec.rm_samples", None),
    (slot_detector, "correlate_layer", CORRELATE, _columns),
    (slot_detector, "wht", "rm_codec.wht", None),
    (slot_detector, "walsh_factor", "rm_codec.walsh_factor", None),
    (slot_detector, "peak_search", "slot_detector.peak_search", None),
    (slot_detector, "decode_polarity", "slot_detector.decode_polarity", None),
    (slot_detector, "fold_layer", "slot_detector.fold_layer", None),
    (slot_detector, "estimate_final", "slot_detector.estimate_final", None),
    (slot_detector, "refine_delay", "slot_detector.refine_delay", None),
)


class Recorder:
    """Spans of the trial in progress; spans is None between trials."""

    def __init__(self) -> None:
        self.spans: list | None = None
        self.stack: list[int] = []

    @contextmanager
    def trial(self):
        self.spans, self.stack = [], []
        try:
            yield self.spans
        finally:
            self.spans = None


_active: Recorder | None = None


def _wrap(fn, name, summary):
    def wrapper(*args, **kwargs):
        rec = _active
        if rec is None or rec.spans is None:
            return fn(*args, **kwargs)
        spans, stack = rec.spans, rec.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if summary is not None:
            span[4] = summary(args, out)
        return out

    return wrapper


@contextmanager
def tracing(recorder: Recorder):
    """Record spans into `recorder` for every trial run inside recorder.trial()."""
    global _active
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in PATCHES]
    for module, attr, name, summary in PATCHES:
        setattr(module, attr, _wrap(getattr(module, attr), name, summary))
    _active = recorder
    try:
        yield
    finally:
        _active = None
        for module, attr, fn in originals:
            setattr(module, attr, fn)


class TimedRecord(dict):
    """A trial record carrying the worker's wall time, CPU time and spans as
    attributes: pickling keeps them, json.dumps writes only the record."""


_trial_task = sim_cli._trial_task


def timed_trial_task(args: tuple) -> TimedRecord:
    rec = _active
    started, cpu = time.perf_counter(), time.process_time()
    if rec is None:
        record, spans = _trial_task(args), None
    else:
        with rec.trial() as spans:
            record = _trial_task(args)
    out = TimedRecord(record)
    out.wall_s = time.perf_counter() - started
    out.cpu_s = time.process_time() - cpu
    out.spans = spans
    return out


@contextmanager
def pool_tasks():
    """Have run_sweep's pool run timed_trial_task in place of _trial_task."""
    sim_cli._trial_task = timed_trial_task
    try:
        yield
    finally:
        sim_cli._trial_task = _trial_task


# -- analysis ----------------------------------------------------------------


def stop_reason(detections: int, reconstructions: int, final_residual: float, eps: float, k_max: int) -> str:
    """Why one detect_slot loop ended, from what it returned and the
    reconstruct_signal calls it made.

    A reconstruction that did not become a detection was a cancellation
    that did not shrink the residual.  Otherwise the loop ended because the
    residual fell to eps, because k_max detections were made, or, with
    neither, because a peak degenerated before any reconstruction.
    """
    if reconstructions > detections:
        return "no_gain"
    if final_residual <= eps:
        return "eps"
    if detections >= k_max:
        return "kmax"
    return "degenerate"


def trial_stats(spans: list) -> dict:
    """Per-trial totals: inclusive seconds per span name (`<name>_s`), self
    seconds of detect_slot and decode_frame, and the detector's counts."""
    stats: dict = dict.fromkeys(COUNTS, 0)
    stats.update({name + "_s": 0.0 for _, _, name, _ in PATCHES})
    stats[DETECT + "_self_s"] = stats[DECODE + "_self_s"] = 0.0
    child_time = [0.0] * len(spans)
    reconstructions = [0] * len(spans)
    iterations = [0] * len(spans)
    for name, start, end, parent, info in spans:
        stats[name + "_s"] += end - start
        if parent < 0:
            continue
        child_time[parent] += end - start
        parent_name = spans[parent][0]
        if name == RECONSTRUCT and parent_name == DETECT:
            reconstructions[parent] += 1
        elif name == RECONSTRUCT and parent_name == DECODE:
            stats["access_pipeline.pending_cancellations"] += 1
        elif name == CORRELATE and parent_name == DETECT and info == spans[parent][4][5]:
            iterations[parent] += 1  # full-width correlation: one SIC iteration
    for i, (name, start, end, _, info) in enumerate(spans):
        if name == DECODE:
            stats[DECODE + "_self_s"] += end - start - child_time[i]
            stats["access_pipeline.candidates"] += info[0]
            stats["access_pipeline.overflow_frames"] += int(info[1])
        elif name == DETECT:
            detections, final, eps, k_max, r, n = info
            m = n.bit_length() - 1
            stats[DETECT + "_self_s"] += end - start - child_time[i]
            stats["slot_detector.iterations"] += iterations[i]
            stats["slot_detector.detections"] += detections
            stats["slot_detector.model_ops"] += iterations[i] * 2**m * (m * m + 3 * m + r - 2)
            reason = stop_reason(detections, reconstructions[i], final, eps, k_max)
            stats["slot_detector.stop_" + reason] += 1
            stats["slot_detector.detect_slot_calls"] += 1
        elif name == "rm_codec.wht":
            stats["rm_codec.wht_calls"] += 1
        elif name == "geometry_channel.sample_frame":
            stats["geometry_channel.devices"] += info
        elif name == "rm_codec.rm_samples_batch":
            stats["rm_codec.rm_samples_batch_bytes"] += info
    return stats


def layer_metrics(traced: list[tuple], set_keys: list) -> dict:
    """Per-layer metrics from traced trials given as (trial key, spans).

    Seconds are medians over every traced trial of the per-trial totals.
    Counts are means per trial over the first traced run of each trial in
    the fixed trial set, so they repeat exactly for a seed;
    overflow_frames is the number of frames in the set that overflowed and
    discarded_ratio is 1 - detections / iterations over the set.
    """
    per_trial = [(key, trial_stats(spans)) for key, spans in traced]
    first: dict = {}
    for key, stats in per_trial:
        first.setdefault(key, stats)
    missing = [key for key in set_keys if key not in first]
    if missing:
        raise ValueError(f"{len(missing)} trials of the set were never traced")
    in_set = [first[key] for key in set_keys]
    out = {}
    for name in per_trial[0][1]:
        if name.endswith("_s"):
            out[name] = float(np.median([stats[name] for _, stats in per_trial]))
        else:
            out[name] = float(np.mean([stats[name] for stats in in_set]))
    out["access_pipeline.overflow_frames"] = float(
        sum(stats["access_pipeline.overflow_frames"] for stats in in_set)
    )
    iterations = sum(stats["slot_detector.iterations"] for stats in in_set)
    detections = sum(stats["slot_detector.detections"] for stats in in_set)
    out["slot_detector.discarded_ratio"] = 1.0 - detections / iterations if iterations else 0.0
    return out


def write_spans(path: Path, header: dict, traced: list[tuple]) -> None:
    """One JSON header line, then one [trial, name, start, end, parent, info]
    line per span, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for key, spans in traced:
            for span in spans:
                fh.write(json.dumps([key, *span]) + "\n")
