"""Frame-level transmission scheme and decoder.

A message of B bits is split over 2**d sub-blocks that are stitched back
together by a seeded random-parity tree code.  Each sub-block segment spends
its first p bits on the primary slot index and (asynchronously) the next p on
a translate whose XOR with the primary gives the secondary slot; the rest
rides inside the Reed-Muller pair of the two transmitted copies, which differ
only in a check bit.  draw_messages draws a frame's messages at once and
returns them as stacked arrays (information bits, segments, landed slots),
the message half of geometry_channel.Population.  The frame decoder sweeps
the slots of every sub-block in order, pre-cancels copies of already-found
messages whose other slot is the current one, runs the per-slot detector,
maps detections back to segments, and finally tree-decodes across
sub-blocks.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import slot_detector
from .rm_codec import (
    BitLayout,
    RmPair,
    binary_index,
    bits_to_int,
    bits_to_pair,
    pair_to_bits,
    unpack_bits,
)
from .slot_detector import DetectorConfig

__all__ = [
    "FrameConfig",
    "FrameDecodeResult",
    "ErrorMetrics",
    "tree_encode",
    "tree_encode_batch",
    "tree_decode",
    "segment_pair_bits",
    "draw_messages",
    "decode_frame",
    "error_metrics",
]

_DEFAULT_PARITY = {0: (0,), 1: (0, 12), 2: (0, 9, 9, 9)}


@dataclass(frozen=True)
class FrameConfig:
    """Code and frame geometry: sequence order m, 2**p slots, 2**d sub-blocks,
    per-sub-block parity bit counts, subcarrier spacing and the maximum delay.

    tau_max == 0 selects the synchronous variant (single copy per sub-block,
    no check or reserved bits, and no delay estimation downstream).
    """

    m: int
    p: int
    d: int = 0
    parity_bits: tuple[int, ...] | None = None
    parity_seed: int = 2024
    delta_f: float = 15e3
    tau_max: float = 10e-6

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if not 0 <= self.d <= 2:
            raise ValueError("d must be 0, 1 or 2 (more than 4 sub-blocks unsupported)")
        if self.delta_f <= 0:
            raise ValueError("delta_f must be positive")
        if self.tau_max < 0:
            raise ValueError("tau_max must be nonnegative")
        if not self.synchronous and self.p < 1:
            raise ValueError("the two-copy scheme needs p >= 1 for a distinct secondary slot")
        if self.parity_bits is not None:
            object.__setattr__(self, "parity_bits", tuple(int(l) for l in self.parity_bits))
        parity = self.parity
        if len(parity) != self.n_subblocks:
            raise ValueError(f"need {self.n_subblocks} parity counts, got {len(parity)}")
        if parity[0] != 0:
            raise ValueError("the first sub-block carries no parity")
        if any(l < 0 for l in parity):
            raise ValueError("parity counts must be nonnegative")
        if min(self.info_per_subblock) < 0:
            raise ValueError(
                f"parity allocation {parity} exceeds the {self.segment_bits}-bit segments"
            )
        if self.message_bits < 1:
            raise ValueError("the configuration leaves no information bits")
        self.layout  # constructibility check (raises on bad m/p combinations)

    # -- derived sizes ----------------------------------------------------

    @property
    def synchronous(self) -> bool:
        return self.tau_max == 0.0

    @property
    def seq_len(self) -> int:
        return 1 << self.m

    @property
    def prefix_len(self) -> int:
        """Discarded cyclic-prefix samples: ceil(tau_max * 2**m * delta_f)."""
        return math.ceil(self.tau_max * self.seq_len * self.delta_f)

    @property
    def n_slots(self) -> int:
        return 1 << self.p

    @property
    def n_subblocks(self) -> int:
        return 1 << self.d

    @property
    def copies(self) -> int:
        return 1 if self.synchronous else 2

    @property
    def parity(self) -> tuple[int, ...]:
        if self.parity_bits is not None:
            return self.parity_bits
        return _DEFAULT_PARITY[self.d]

    @property
    def segment_bits(self) -> int:
        """Bits conveyed per sub-block: slot index plus codeword content."""
        pair_bits = self.m * (self.m + 3) // 2
        if self.synchronous:
            return pair_bits + self.p
        return pair_bits + self.p - 3

    @property
    def info_per_subblock(self) -> tuple[int, ...]:
        return tuple(self.segment_bits - l for l in self.parity)

    @property
    def message_bits(self) -> int:
        return self.n_subblocks * self.segment_bits - sum(self.parity)

    @property
    def codelength(self) -> int:
        return (1 << (self.d + self.p)) * (self.seq_len + self.prefix_len)

    @property
    def layout(self) -> BitLayout:
        return _layout_for(self.m, self.p, self.synchronous)


@lru_cache(maxsize=None)
def _layout_for(m: int, p: int, synchronous: bool) -> BitLayout:
    return BitLayout.synchronous(m, p) if synchronous else BitLayout.asynchronous(m, p)


# -- tree code ------------------------------------------------------------


@lru_cache(maxsize=None)
def _parity_matrix(seed: int, j: int, rows: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng([seed, j])
    mat = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    mat.setflags(write=False)
    return mat


def tree_encode(info: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Split B info bits into 2**d segments, appending to sub-block j parity
    bits that are a seeded random binary linear map of all info bits of
    sub-blocks before j.  Returns (2**d, segment_bits)."""
    return tree_encode_batch(np.asarray(info, dtype=np.uint8)[None, :], cfg)[0]


def tree_encode_batch(infos: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """tree_encode on rows: (k, B) -> (k, 2**d, segment_bits)."""
    infos = np.asarray(infos, dtype=np.uint8)
    if infos.ndim != 2 or infos.shape[1] != cfg.message_bits:
        raise ValueError(f"expected (k, {cfg.message_bits}) info bits, got {infos.shape}")
    if infos.max(initial=0) > 1:
        raise ValueError("info bits must be 0 or 1")
    k = infos.shape[0]
    segments = np.zeros((k, cfg.n_subblocks, cfg.segment_bits), dtype=np.uint8)
    start = 0
    for j in range(cfg.n_subblocks):
        n_info = cfg.info_per_subblock[j]
        n_parity = cfg.parity[j]
        segments[:, j, :n_info] = infos[:, start : start + n_info]
        if n_parity:
            mat = _parity_matrix(cfg.parity_seed, j, n_parity, start)
            segments[:, j, n_info:] = (infos[:, :start] @ mat.T.astype(np.int64)) % 2
        start += n_info
    return segments


@dataclass
class TreeDecodeResult:
    messages: list[np.ndarray]
    paths: list[tuple[int, ...]]
    overflow: bool


def tree_decode(
    candidates: Sequence[Sequence[np.ndarray]],
    cfg: FrameConfig,
    path_cap: int = 1 << 14,
) -> TreeDecodeResult:
    """Stitch per-sub-block segment candidates into messages.

    Extends partial paths one sub-block at a time, keeping only extensions
    whose parity bits match the seeded map of the info bits collected so
    far.  At most path_cap paths stay live per level; exceeding it drops the
    newest candidates and sets the overflow flag.  Output messages are
    deduplicated, first occurrence wins.
    """
    if len(candidates) != cfg.n_subblocks:
        raise ValueError(f"expected candidates for {cfg.n_subblocks} sub-blocks")
    paths: list[tuple[tuple[int, ...], np.ndarray]] = [((), np.zeros(0, dtype=np.uint8))]
    overflow = False
    for j in range(cfg.n_subblocks):
        n_info = cfg.info_per_subblock[j]
        n_parity = cfg.parity[j]
        extended = []
        for idx_path, info_prefix in paths:
            for ci, seg in enumerate(candidates[j]):
                seg = np.asarray(seg, dtype=np.uint8)
                if seg.shape != (cfg.segment_bits,):
                    raise ValueError(
                        f"candidate segments must have {cfg.segment_bits} bits, got {seg.shape}"
                    )
                if n_parity:
                    mat = _parity_matrix(cfg.parity_seed, j, n_parity, info_prefix.size)
                    expected = (mat.astype(np.int64) @ info_prefix) % 2
                    if not np.array_equal(seg[n_info:], expected.astype(np.uint8)):
                        continue
                extended.append((idx_path + (ci,), np.concatenate([info_prefix, seg[:n_info]])))
        if len(extended) > path_cap:
            overflow = True
            extended = extended[:path_cap]
        paths = extended
        if not paths:
            break
    messages: list[np.ndarray] = []
    kept_paths: list[tuple[int, ...]] = []
    seen: set[bytes] = set()
    for idx_path, info in paths:
        key = info.tobytes()
        if key in seen:
            continue
        seen.add(key)
        messages.append(info)
        kept_paths.append(idx_path)
    return TreeDecodeResult(messages, kept_paths, overflow)


# -- segments to slots and pairs ------------------------------------------


def segment_pair_bits(segments: np.ndarray, cfg: FrameConfig, secondary: np.ndarray) -> np.ndarray:
    """Canonical pair bit strings for a stack of segments: (k, segment_bits)
    with per-row secondary flags -> (k, m(m+3)/2)."""
    segments = np.asarray(segments, dtype=np.uint8)
    secondary = np.asarray(secondary, dtype=bool)
    layout = cfg.layout
    k = segments.shape[0]
    bits = np.zeros((k, layout.total_bits), dtype=np.uint8)
    if cfg.synchronous:
        if secondary.any():
            raise ValueError("the synchronous scheme sends a single copy")
        bits[:, list(layout.payload_pos)] = segments[:, cfg.p :]
        return bits
    bits[:, list(layout.payload_pos)] = segments[:, 2 * cfg.p :]
    if layout.translate_pos:
        bits[:, list(layout.translate_pos)] = segments[:, cfg.p : 2 * cfg.p]
    bits[:, layout.check_pos] = secondary.astype(np.uint8)
    return bits


def _slots_from_segments(segments: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """(k, 2**d, segment_bits) -> slot indices (k, 2**d, copies)."""
    weights = 1 << np.arange(cfg.p - 1, -1, -1, dtype=np.int64) if cfg.p else np.zeros(0, np.int64)
    primary = segments[:, :, : cfg.p].astype(np.int64) @ weights
    if cfg.synchronous:
        return primary[:, :, None]
    translate = segments[:, :, cfg.p : 2 * cfg.p].astype(np.int64) @ weights
    return np.stack([primary, primary ^ translate], axis=2)


def draw_messages(
    cfg: FrameConfig, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count uniform messages with valid transmission plans, stacked: the
    information bits (count, B), the tree-coded sub-block segments, info
    then parity (count, 2**d, segment_bits), and the slot index of every
    transmitted copy (count, 2**d, copies).

    The primary slot is a segment's first p bits; asynchronously the next
    p are a translate whose XOR with the primary gives the secondary slot.
    Payloads whose encoding yields a zero translate (both copies in one
    slot) in any sub-block are redrawn whole, keeping tree parity
    consistent; the entropy loss is 2**d * 2**-p per message.
    """
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    infos = rng.integers(0, 2, size=(count, cfg.message_bits), dtype=np.uint8)
    segments = tree_encode_batch(infos, cfg)
    if not cfg.synchronous and count:
        bad = ~segments[:, :, cfg.p : 2 * cfg.p].any(axis=2).all(axis=1)
        while bad.any():
            infos[bad] = rng.integers(0, 2, size=(int(bad.sum()), cfg.message_bits), dtype=np.uint8)
            segments[bad] = tree_encode_batch(infos[bad], cfg)
            bad = ~segments[:, :, cfg.p : 2 * cfg.p].any(axis=2).all(axis=1)
    return infos, segments, _slots_from_segments(segments, cfg)


# -- frame decoding --------------------------------------------------------


@dataclass
class FrameDecodeResult:
    """Decoded messages plus per-message channel/delay estimates (one row
    per sub-block, taken from the detection that produced each segment)."""

    messages: list[np.ndarray]
    channels: list[np.ndarray]
    delays: list[np.ndarray]
    overflow: bool
    candidate_counts: list[int] = field(default_factory=list)


def _flip_check(pair: RmPair, layout: BitLayout) -> RmPair:
    bits = pair_to_bits(pair).copy()
    bits[layout.check_pos] ^= 1
    return bits_to_pair(bits)


def decode_frame(
    observations: np.ndarray,
    det_cfg: DetectorConfig,
    cfg: FrameConfig,
    path_cap: int = 1 << 14,
    power_floor: float | None = None,
) -> FrameDecodeResult:
    """Decode a whole frame of slot observations, an array of shape
    (2**d, 2**p, r, 2**m) indexed [sub_block, slot].

    Slots are swept in index order per sub-block.  Every detection is mapped
    back to its sub-block segment (a secondary copy locates its primary slot
    through the XOR translate); the first time a segment appears, the
    reconstruction of its *other* copy is queued for cancellation when the
    sweep reaches that slot.  Candidates then go through the tree decoder.

    power_floor screens the reported set by estimated received power: a
    detection with ||h_hat||**2 below it is an out-of-cell device (or
    noise), so it is still cancelled, including its queued other copy, but
    not reported.  Pass gamma * r * theta to match the in-cell definition;
    None reports everything.
    """
    observations = np.asarray(observations, dtype=np.complex128)
    shape = observations.shape
    if len(shape) != 4 or shape[:2] != (cfg.n_subblocks, cfg.n_slots) or shape[3] != cfg.seq_len:
        raise ValueError(
            f"expected observations of shape (2**d, 2**p, r, 2**m) = "
            f"({cfg.n_subblocks}, {cfg.n_slots}, r, {cfg.seq_len}), got {shape}"
        )
    layout = cfg.layout
    cand_segments: list[list[np.ndarray]] = []
    cand_meta: list[list[tuple[np.ndarray, float]]] = []
    for j in range(cfg.n_subblocks):
        seen: set[bytes] = set()
        segments: list[np.ndarray] = []
        meta: list[tuple[np.ndarray, float]] = []
        pending: dict[int, list] = defaultdict(list)
        for i in range(cfg.n_slots):
            Y = observations[j, i]
            for pair2, h2, delta2 in pending.get(i, ()):
                Y = Y - slot_detector.reconstruct_signal(pair2, h2, delta2)
            for det in slot_detector.detect_slot(Y, det_cfg):
                payload, translate, is_secondary = unpack_bits(det.pair, layout)
                if cfg.synchronous:
                    segment = np.concatenate([binary_index(i, cfg.p), payload])
                    other = i
                else:
                    tr_int = bits_to_int(translate)
                    primary = (i ^ tr_int) if is_secondary else i
                    other = primary if is_secondary else (i ^ tr_int)
                    segment = np.concatenate([binary_index(primary, cfg.p), translate, payload])
                key = segment.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                if other != i and other > i:
                    # the same message's other copy: flip the check bit, reuse
                    # the block-static channel and delay estimates
                    pending[other].append(
                        (_flip_check(det.pair, layout), det.h_hat, det.delta_hat)
                    )
                if power_floor is not None:
                    power = float(np.vdot(det.h_hat, det.h_hat).real)
                    if power < power_floor:
                        continue
                segments.append(segment)
                meta.append((det.h_hat, det.delta_hat))
        cand_segments.append(segments)
        cand_meta.append(meta)
    tree = tree_decode(cand_segments, cfg, path_cap=path_cap)
    channels = []
    delays = []
    for idx_path in tree.paths:
        channels.append(np.stack([cand_meta[j][ci][0] for j, ci in enumerate(idx_path)]))
        delays.append(np.array([cand_meta[j][ci][1] for j, ci in enumerate(idx_path)]))
    return FrameDecodeResult(
        messages=tree.messages,
        channels=channels,
        delays=delays,
        overflow=tree.overflow,
        candidate_counts=[len(c) for c in cand_segments],
    )


# -- metrics ---------------------------------------------------------------


class ErrorMetrics(NamedTuple):
    miss_rate: float | None
    false_alarm_rate: float
    truth_count: int
    decoded_count: int


def error_metrics(decoded: Sequence[np.ndarray], truth: Sequence[np.ndarray]) -> ErrorMetrics:
    """Set-level miss and false-alarm rates over message bit strings.

    miss = |truth \\ decoded| / |truth| (None when there is no ground truth),
    false alarm = |decoded \\ truth| / |decoded| (0 for an empty output, by
    convention; the decoded_count field lets callers see that case).
    """
    decoded_set = {np.asarray(x, dtype=np.uint8).tobytes() for x in decoded}
    truth_set = {np.asarray(x, dtype=np.uint8).tobytes() for x in truth}
    false_alarm = len(decoded_set - truth_set) / len(decoded_set) if decoded_set else 0.0
    miss = len(truth_set - decoded_set) / len(truth_set) if truth_set else None
    return ErrorMetrics(miss, false_alarm, len(truth_set), len(decoded_set))
