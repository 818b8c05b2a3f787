"""Frame-level transmission scheme and decoder.

A message of B bits is split over 2**d sub-blocks that are stitched back
together by a seeded random-parity tree code.  Each sub-block segment spends
its first p bits on the primary slot index and (asynchronously) the next p on
a translate whose XOR with the primary gives the secondary slot.  Every bit
after the slot index rides inside the Reed-Muller pair of the transmitted
copies, at the canonical pair-bit position FrameConfig.pair_positions
names; the two asynchronous copies differ only in a check bit.  This module
alone decides that layout: transmissions turns segments into every copy's
pair and landed slot, for the channel and for the decoder's cancellations
alike, and decode_frame reads the layout back.  draw_messages draws the
information bits of a frame's messages at once.  The frame decoder sweeps
the slots of every sub-block in order, pre-cancels copies of already-found
messages whose other slot is the current one, runs the per-slot detector,
maps detections back to segments, and finally tree-decodes across
sub-blocks.
"""

from __future__ import annotations

import math
import numbers
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import slot_detector
from .rm_codec import as_bits, binary_index, bits_to_pair_batch, unpack_bits
from .slot_detector import DetectorConfig

__all__ = [
    "FrameConfig",
    "FrameDecodeResult",
    "ErrorMetrics",
    "tree_encode",
    "tree_decode",
    "transmissions",
    "draw_messages",
    "decode_frame",
    "error_metrics",
]

# parity bits per sub-block at each d, and the seed of their random maps
_PARITY = {0: (0,), 1: (0, 12), 2: (0, 9, 9, 9)}
_PARITY_SEED = 2024
# live tree-decoder paths per level before the newest are dropped
_PATH_CAP = 1 << 14


@dataclass(frozen=True)
class FrameConfig:
    """Code and frame geometry: sequence order m, 2**p slots, 2**d sub-blocks
    (parity counts fixed per d), subcarrier spacing and the maximum delay.

    tau_max == 0 selects the synchronous variant (single copy per sub-block,
    no check or reserved bits, and no delay estimation downstream).

    Asynchronously the pair reserves b[m-1] and P[m-1, m-1] as zeros (the
    detector reads timing off the top layer instead of data), spends b[m-2]
    on the check bit, puts the p translate bits on the first p off-diagonal
    positions of P in row-major upper-triangle order, and gives every other
    position to the payload.  Synchronously every position carries data.
    """

    m: int
    p: int
    d: int = 0
    delta_f: float = 15e3
    tau_max: float = 10e-6

    def __post_init__(self) -> None:
        for name in ("m", "p", "d"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if not 0 <= self.d <= 2:
            raise ValueError("d must be 0, 1 or 2 (more than 4 sub-blocks unsupported)")
        for name in ("delta_f", "tau_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.delta_f <= 0:
            raise ValueError("delta_f must be positive")
        if self.tau_max < 0:
            raise ValueError("tau_max must be nonnegative")
        if not self.synchronous and self.p < 1:
            raise ValueError("the two-copy scheme needs p >= 1 for a distinct secondary slot")
        if not self.synchronous and self.p > self.m * (self.m - 1) // 2:
            raise ValueError(
                f"a {self.p}-bit translate does not fit the {self.m * (self.m - 1) // 2} "
                f"off-diagonal positions of P at m={self.m}"
            )
        if min(self.info_per_subblock) < 0:
            raise ValueError(
                f"parity allocation {self.parity} exceeds the {self.segment_bits}-bit segments"
            )
        if self.message_bits < 1:
            raise ValueError("the configuration leaves no information bits")

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
        return _PARITY[self.d]

    @property
    def segment_bits(self) -> int:
        """Bits conveyed per sub-block: slot index plus codeword content."""
        return self.p + len(self.pair_positions)

    @property
    def pair_positions(self) -> np.ndarray:
        """Entry j is the canonical pair-bit position (pair_to_bits order) of
        segment bit p + j.  Read-only."""
        return _pair_positions(self.m, self.p, self.synchronous)

    @property
    def check_pos(self) -> int | None:
        """Canonical position of the copy check bit, b[m-2]; None when
        synchronous."""
        return None if self.synchronous else self.m - 2

    @property
    def info_per_subblock(self) -> tuple[int, ...]:
        return tuple(self.segment_bits - l for l in self.parity)

    @property
    def message_bits(self) -> int:
        return self.n_subblocks * self.segment_bits - sum(self.parity)

    @property
    def codelength(self) -> int:
        return (1 << (self.d + self.p)) * (self.seq_len + self.prefix_len)


@lru_cache(maxsize=None)
def _pair_positions(m: int, p: int, synchronous: bool) -> np.ndarray:
    total = m * (m + 3) // 2
    if synchronous:
        positions = np.arange(total)
    else:
        rows, cols = np.triu_indices(m)
        translate = (m + np.flatnonzero(rows != cols))[:p]
        payload = np.ones(total, dtype=bool)
        payload[translate] = payload[[m - 2, m - 1, total - 1]] = False
        positions = np.concatenate([translate, np.flatnonzero(payload)])
    positions.setflags(write=False)
    return positions


# -- tree code ------------------------------------------------------------


@lru_cache(maxsize=None)
def _parity_matrix(j: int, rows: int, cols: int) -> np.ndarray:
    """Seeded random binary map of sub-block j, as int64.  Read-only."""
    rng = np.random.default_rng([_PARITY_SEED, j])
    mat = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8).astype(np.int64)
    mat.setflags(write=False)
    return mat


def tree_encode(infos: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Split each row's B info bits into 2**d segments, appending to
    sub-block j parity bits that are a seeded random binary linear map of
    all info bits of sub-blocks before j: (k, B) -> (k, 2**d, segment_bits)."""
    infos = as_bits(infos)
    if infos.ndim != 2 or infos.shape[1] != cfg.message_bits:
        raise ValueError(f"expected (k, {cfg.message_bits}) info bits, got {infos.shape}")
    k = infos.shape[0]
    segments = np.zeros((k, cfg.n_subblocks, cfg.segment_bits), dtype=np.uint8)
    start = 0
    for j in range(cfg.n_subblocks):
        n_info = cfg.info_per_subblock[j]
        n_parity = cfg.parity[j]
        segments[:, j, :n_info] = infos[:, start : start + n_info]
        if n_parity:
            mat = _parity_matrix(j, n_parity, start)
            segments[:, j, n_info:] = (infos[:, :start] @ mat.T) % 2
        start += n_info
    return segments


@dataclass
class TreeDecodeResult:
    messages: list[np.ndarray]
    paths: list[tuple[int, ...]]
    overflow: bool


def tree_decode(candidates: Sequence[Sequence[np.ndarray]], cfg: FrameConfig) -> TreeDecodeResult:
    """Stitch per-sub-block segment candidates into messages.

    Extends partial paths one sub-block at a time, keeping only extensions
    whose parity bits match the seeded map of the info bits collected so
    far.  At most _PATH_CAP paths stay live per level; exceeding it drops the
    newest candidates and sets the overflow flag.  Output messages are
    deduplicated, first occurrence wins.  Candidate entries other than 0
    and 1 raise ValueError.
    """
    if len(candidates) != cfg.n_subblocks:
        raise ValueError(f"expected candidates for {cfg.n_subblocks} sub-blocks")
    paths: list[tuple[tuple[int, ...], np.ndarray]] = [((), np.zeros(0, dtype=np.uint8))]
    overflow = False
    for j, block in enumerate(candidates):
        shape = (len(block), cfg.segment_bits)
        block = as_bits(block) if len(block) else np.zeros(shape, np.uint8)
        if block.shape != shape:
            raise ValueError(f"expected candidate segments of shape {shape}, got {block.shape}")
        n_info = cfg.info_per_subblock[j]
        n_parity = cfg.parity[j]
        extended = []
        for idx_path, info_prefix in paths:
            matches = range(len(block))
            if n_parity:
                expected = (_parity_matrix(j, n_parity, info_prefix.size) @ info_prefix) % 2
                matches = np.flatnonzero((block[:, n_info:] == expected).all(axis=1)).tolist()
            for ci in matches:
                info = np.concatenate([info_prefix, block[ci, :n_info]])
                extended.append((idx_path + (ci,), info))
        if len(extended) > _PATH_CAP:
            overflow = True
            extended = extended[:_PATH_CAP]
        paths = extended
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


# -- segments to transmissions ---------------------------------------------


def _msb_weights(width: int) -> np.ndarray:
    """Weights that read a width-bit vector MSB-first as an integer."""
    return 1 << np.arange(width - 1, -1, -1, dtype=np.int64)


def transmissions(segments: np.ndarray, cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every transmitted copy of a stack of sub-block segments, (...,
    segment_bits) -> its pairs Ps (..., copies, m, m) and bs (..., copies,
    m) and its landed slots (..., copies).

    Segment bit p + j goes to cfg.pair_positions[j], and copy c carries c in
    b[check_pos].  Copy 0 lands in the slot the first p bits name, read
    MSB-first; copy 1 lands in that slot XOR the translate, the next p bits.
    """
    segments = as_bits(segments)
    if segments.ndim < 1 or segments.shape[-1] != cfg.segment_bits:
        raise ValueError(f"expected (..., {cfg.segment_bits}) segments, got {segments.shape}")
    m, weights = cfg.m, _msb_weights(cfg.p)
    bits = np.zeros(segments.shape[:-1] + (cfg.copies, m * (m + 3) // 2), dtype=np.uint8)
    bits[..., cfg.pair_positions] = segments[..., None, cfg.p :]
    slots = (segments[..., : cfg.p].astype(np.int64) @ weights)[..., None]
    if not cfg.synchronous:
        bits[..., 1, cfg.check_pos] = 1
        translate = segments[..., cfg.p : 2 * cfg.p].astype(np.int64) @ weights
        slots = np.concatenate([slots, slots ^ translate[..., None]], axis=-1)
    Ps, bs = bits_to_pair_batch(bits.reshape(-1, bits.shape[-1]))
    return Ps.reshape(bits.shape[:-1] + (m, m)), bs.reshape(bits.shape[:-1] + (m,)), slots


def draw_messages(cfg: FrameConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """The information bits (count, B) of count uniform messages with valid
    transmission plans.

    Payloads whose encoding yields a zero translate (both copies in one
    slot) in any sub-block are redrawn whole, keeping tree parity
    consistent; the entropy loss is 2**d * 2**-p per message.
    """
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    infos = rng.integers(0, 2, size=(count, cfg.message_bits), dtype=np.uint8)
    segments = tree_encode(infos, cfg)
    if not cfg.synchronous and count:
        bad = ~segments[:, :, cfg.p : 2 * cfg.p].any(axis=2).all(axis=1)
        while bad.any():
            infos[bad] = rng.integers(0, 2, size=(int(bad.sum()), cfg.message_bits), dtype=np.uint8)
            segments[bad] = tree_encode(infos[bad], cfg)
            bad = ~segments[:, :, cfg.p : 2 * cfg.p].any(axis=2).all(axis=1)
    return infos


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


def decode_frame(
    observations: np.ndarray,
    det_cfg: DetectorConfig,
    cfg: FrameConfig,
    power_floor: float | None = None,
) -> FrameDecodeResult:
    """Decode a whole frame of slot observations, an array of shape
    (2**d, 2**p, r, 2**m) indexed [sub_block, slot].

    Slots are swept in index order per sub-block.  Every detection is mapped
    back to its sub-block segment through cfg.pair_positions (a secondary
    copy locates its primary slot through the XOR translate); the first
    time a segment appears, the reconstruction of its *other* copy is
    queued for cancellation when the sweep reaches that slot.  Candidates
    then go through the tree decoder.

    power_floor screens the reported set by estimated received power: a
    detection with ||h_hat||**2 below it is an out-of-cell device (or
    noise), so it is still cancelled, including its queued other copy, but
    not reported.  Pass gamma * r * theta to match the in-cell definition;
    None reports everything.  det_cfg must be the detector variant of the
    frame: estimate_delay exactly when the frame is asynchronous.
    """
    observations = np.asarray(observations, dtype=np.complex128)
    shape = observations.shape
    if len(shape) != 4 or shape[:2] != (cfg.n_subblocks, cfg.n_slots) or shape[3] != cfg.seq_len:
        raise ValueError(
            f"expected observations of shape (2**d, 2**p, r, 2**m) = "
            f"({cfg.n_subblocks}, {cfg.n_slots}, r, {cfg.seq_len}), got {shape}"
        )
    if det_cfg.estimate_delay == cfg.synchronous:
        raise ValueError(
            f"a detector with estimate_delay={det_cfg.estimate_delay} cannot decode a "
            f"{'synchronous' if cfg.synchronous else 'asynchronous'} frame"
        )
    positions, check_pos = cfg.pair_positions, cfg.check_pos
    translate_weights = _msb_weights(0 if cfg.synchronous else cfg.p)
    cand_segments: list[list[np.ndarray]] = []
    cand_meta: list[list[tuple[np.ndarray, float]]] = []
    for j in range(cfg.n_subblocks):
        seen: set[bytes] = set()
        segments: list[np.ndarray] = []
        meta: list[tuple[np.ndarray, float]] = []
        pending: dict[int, list] = defaultdict(list)
        for i in range(cfg.n_slots):
            Y = observations[j, i]
            for P2, b2, h2, delta2 in pending.get(i, ()):
                Y = Y - slot_detector.reconstruct_signal(P2, b2, h2, delta2)
            for det in slot_detector.detect_slot(Y, det_cfg):
                tail = unpack_bits(det.P, det.b, positions)
                copy = 0 if check_pos is None else int(det.b[check_pos])
                other = i ^ int(tail[: translate_weights.size] @ translate_weights)
                primary = other if copy else i
                segment = np.concatenate([binary_index(primary, cfg.p), tail])
                key = segment.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                if other > i:
                    # the same message's other copy, with the block-static
                    # channel and delay estimates
                    Ps, bs, _ = transmissions(segment, cfg)
                    pending[other].append((Ps[1 - copy], bs[1 - copy], det.h_hat, det.delta_hat))
                if power_floor is not None:
                    power = float(np.vdot(det.h_hat, det.h_hat).real)
                    if power < power_floor:
                        continue
                segments.append(segment)
                meta.append((det.h_hat, det.delta_hat))
        cand_segments.append(segments)
        cand_meta.append(meta)
    tree = tree_decode(cand_segments, cfg)
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
    Messages are checked through as_bits, so an entry other than 0 or 1
    raises ValueError instead of wrapping to a bit.
    """
    decoded_set = {as_bits(x).tobytes() for x in decoded}
    truth_set = {as_bits(x).tobytes() for x in truth}
    false_alarm = len(decoded_set - truth_set) / len(decoded_set) if decoded_set else 0.0
    miss = len(truth_set - decoded_set) / len(truth_set) if truth_set else None
    return ErrorMetrics(miss, false_alarm, len(truth_set), len(decoded_set))
