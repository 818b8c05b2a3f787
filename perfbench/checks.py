"""Output checks on trial records, and the records digest.

check_record() tests one record returned by sim_cli against its spec:
fields and types, the sweep point and trial index, the frame sizes, and
miss/false-alarm rates recomputed from the truth and decoded counts.
"""

from __future__ import annotations

import hashlib
import json
import math

from rmaccess.geometry_channel import expected_neighbors

AXES = ("K", "r", "m", "p", "d")
FIELDS = {*AXES, "trial", "B", "C", "K_star", "miss", "fa", "truth", "decoded", "overflow", "runtime"}


def record_key(record: dict) -> tuple:
    return tuple(int(record[axis]) for axis in AXES) + (int(record["trial"]),)


def strip_runtime(record: dict) -> dict:
    """The record without its decode wall time, the one field that may
    differ between two runs of the same seeded trial."""
    return {key: value for key, value in record.items() if key != "runtime"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_record(record: dict, spec) -> list[str]:
    """Problems found in one trial record of `spec` (empty when it is sound)."""
    if set(record) != FIELDS:
        return [f"record fields {sorted(record)} differ from {sorted(FIELDS)}"]
    if not all(_is_int(record[key]) for key in (*AXES, "trial", "B", "C", "truth", "decoded")):
        return [f"record {record} has a non-integer count or index"]
    where = f"trial {record_key(record)}"
    point = {axis: record[axis] for axis in AXES}
    if point not in spec.points() or not 0 <= record["trial"] < spec.trials:
        return [f"{where} is not in the spec's trial set"]
    problems = []
    frame, geo = spec.frame_for(point), spec.geometry_for(point)
    if (record["B"], record["C"]) != (frame.message_bits, frame.codelength):
        problems.append(f"{where}: B, C = {record['B']}, {record['C']} do not match the frame")
    if record["K_star"] != expected_neighbors(geo):
        problems.append(f"{where}: K_star does not match the geometry")
    if not isinstance(record["overflow"], bool):
        problems.append(f"{where}: overflow is not a bool")
    runtime = record["runtime"]
    if not (isinstance(runtime, float) and math.isfinite(runtime) and runtime > 0):
        problems.append(f"{where}: runtime {runtime!r} is not a positive time")
    problems.extend(_check_rates(record, where))
    return problems


def _check_rates(record: dict, where: str) -> list[str]:
    """miss = (truth - correct) / truth and fa = (decoded - correct) / decoded
    must hold for one whole number `correct` of at most min(truth, decoded)."""
    truth, decoded, miss, fa = record["truth"], record["decoded"], record["miss"], record["fa"]
    if truth < 0 or decoded < 0:
        return [f"{where}: negative truth or decoded count"]
    if truth == 0:
        if miss is not None:
            return [f"{where}: miss {miss} without ground truth"]
        correct = 0
    else:
        if not isinstance(miss, float):
            return [f"{where}: miss {miss!r} is not a rate"]
        correct = round(truth * (1.0 - miss))
        if miss != (truth - correct) / truth:
            return [f"{where}: miss {miss} is not a whole count out of {truth}"]
    expected_fa = (decoded - correct) / decoded if decoded else 0.0
    if not 0 <= correct <= min(truth, decoded):
        return [f"{where}: {correct} correct messages out of {truth} sent and {decoded} decoded"]
    if not isinstance(fa, float) or fa != expected_fa:
        return [f"{where}: fa {fa!r} differs from {expected_fa} recomputed from the counts"]
    return []


def records_digest(records: list[dict]) -> str:
    """sha256 over the records, without runtime, in trial-set order."""
    text = json.dumps([strip_runtime(rec) for rec in records], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
