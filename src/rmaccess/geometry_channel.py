"""Device geometry, fading, and OFDM channel synthesis.

Devices form a Poisson point process on a square region with the access
point at the center.  A device at distance D with per-antenna unit-mean
exponential gains G has channel h_l = D**(-alpha/2) * sqrt(G_l) * e**(i phi_l)
and counts as a neighbor (in cell, part of the decoder's ground truth) when
D**(-alpha) * sum(G) >= r * theta.  Every device transmits regardless; the
far ones appear only as residual interference.

A frame's devices are held as one Population of stacked arrays, row k being
device k: exactly what sample_frame draws, its distance, fading gains,
channel, delay and message bits.  What a message puts on the air, its
sub-block segments' pairs and landed slots, frame_observations derives
through access_pipeline.transmissions.  classify_neighbors returns the
in-cell rows as a boolean mask over that population.

Slot observations live in the post-DFT frequency domain,

    Y[l, n] = sqrt(gamma) * sum_k h[k, l] X_k(n) e**(-i Delta_k n) + Z[l, n]

with n = 1..N one-based, Delta_k = 2 pi delta_f tau_k the normalized delay
and Z unit-variance circular Gaussian.  synthesize_slot is the one kernel
for the signal sum, a (r, k) by (k, N) complex product per slot group taken
through BLAS in fixed blocks of devices, so Y does not depend on the BLAS
thread count; frame_observations draws Z up front and sums each slot
group through the same blocked product.  A device's two asynchronous
copies share h and Delta and differ only in the check bit, a fixed sign
pattern over n, so a two-copy frame
builds and ramps each device's codeword once per sub-block, into one
(K, 2**m) table that copy 1 reuses after an in-place sign flip.  A
synchronous frame holds no table: it builds each slot group's uint8
exponents once, 1 byte a sample, and looks up the codewords of one block
of devices at a time into one reused buffer, just before that block's
product.  The tests pin the model down against an
oracle that rebuilds the noise-free observation the long way
(continuous-time waveform, sampling, prefix discard, DFT).

Only the normalized delay is drawn, uniform on [-pi, pi); the model is
stated in it alone.  The tests' time-domain oracle takes a seconds-valued
tau in the prefix window [0, tau_max] and converts it as
Delta = 2 pi delta_f tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .access_pipeline import FrameConfig, _flip_check_bit, draw_messages, transmissions, tree_encode
from .rm_codec import _lookup, _pair_exponents, rm_samples_batch

__all__ = [
    "GeometryConfig",
    "Population",
    "expected_neighbors",
    "interference_power",
    "sample_frame",
    "classify_neighbors",
    "synthesize_slot",
    "frame_observations",
]


@dataclass(frozen=True)
class GeometryConfig:
    """Population and link-budget parameters.

    density: devices per square meter; area: region size in square meters
    (the region is the square of that area, access point at the center);
    alpha: path-loss exponent; theta: neighbor gain threshold; gamma:
    transmit power (linear, the sqrt(gamma) prefactor of the signal model);
    r: receive antennas.
    """

    density: float
    area: float
    alpha: float
    theta: float
    gamma: float
    r: int

    def __post_init__(self) -> None:
        for name in ("density", "area", "alpha", "theta", "gamma", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.alpha <= 2:
            raise ValueError("path-loss exponent must exceed 2")
        if self.density < 0:
            raise ValueError("density must be nonnegative")
        if self.area <= 0 or self.theta <= 0 or self.gamma <= 0:
            raise ValueError("area, theta and gamma must be positive")
        if self.r < 1:
            raise ValueError("need at least one antenna")

    @property
    def side(self) -> float:
        return math.sqrt(self.area)


# dtype and dimension count of every Population field
_POPULATION_FIELDS = {
    "distance": (np.float64, 1),
    "gains": (np.float64, 2),
    "h": (np.complex128, 2),
    "delta": (np.float64, 1),
    "info": (np.uint8, 2),
}


@dataclass(frozen=True)
class Population:
    """One frame's devices as stacked arrays, one row per device.

    distance, delta: (K,); gains: (K, r) fading powers, h: (K, r) complex
    channels (the fading phases live only in h); info: (K, B) message bits.
    The arrays are made read-only; only their shapes are checked.
    """

    distance: np.ndarray
    gains: np.ndarray
    h: np.ndarray
    delta: np.ndarray
    info: np.ndarray

    def __post_init__(self) -> None:
        for name, (dtype, ndim) in _POPULATION_FIELDS.items():
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.ndim != ndim:
                raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len({getattr(self, name).shape[0] for name in _POPULATION_FIELDS}) != 1:
            raise ValueError("population arrays disagree on the device count")
        if self.gains.shape != self.h.shape:
            raise ValueError("gains and h must share one (K, r) shape")

    def __len__(self) -> int:
        return self.distance.shape[0]


def _gamma_ratio(cfg: GeometryConfig) -> float:
    """Gamma(2/alpha + r) / Gamma(r), stable for large r."""
    return math.exp(math.lgamma(2.0 / cfg.alpha + cfg.r) - math.lgamma(cfg.r))


def expected_neighbors(cfg: GeometryConfig) -> float:
    """Mean number of in-cell devices:
    pi * density * (r theta)**(-2/alpha) * Gamma(2/alpha + r) / Gamma(r)."""
    return math.pi * cfg.density * (cfg.r * cfg.theta) ** (-2.0 / cfg.alpha) * _gamma_ratio(cfg)


def interference_power(cfg: GeometryConfig) -> float:
    """Mean total received power of out-of-cell devices:
    (r theta)**(1 - 2/alpha) * (2 pi density gamma / (alpha - 2))
    * Gamma(2/alpha + r) / Gamma(r)."""
    prefactor = 2.0 * math.pi * cfg.density * cfg.gamma / (cfg.alpha - 2.0)
    return (cfg.r * cfg.theta) ** (1.0 - 2.0 / cfg.alpha) * prefactor * _gamma_ratio(cfg)


def sample_frame(cfg: GeometryConfig, frame: FrameConfig, rng: np.random.Generator) -> Population:
    """Draw one frame's device population.

    Draw order is fixed (count, positions, fading, phases, delays, then
    messages) so a seeded generator reproduces the frame exactly.  Poisson
    count with mean density * area, positions uniform on the square,
    unit-mean exponential gains, uniform phases folded into h.  Delays:
    normalized delay uniform on [-pi, pi), zero when the frame is
    synchronous.
    """
    count = int(rng.poisson(cfg.density * cfg.area))
    half = cfg.side / 2.0
    xy = rng.uniform(-half, half, size=(count, 2))
    dist = np.hypot(xy[:, 0], xy[:, 1])
    gains = rng.exponential(1.0, size=(count, cfg.r))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(count, cfg.r))
    h = dist[:, None] ** (-cfg.alpha / 2.0) * np.sqrt(gains) * np.exp(1j * phases)
    delta = np.zeros(count) if frame.synchronous else rng.uniform(-math.pi, math.pi, size=count)
    return Population(dist, gains, h, delta, draw_messages(frame, rng, count))


def classify_neighbors(pop: Population, cfg: GeometryConfig) -> np.ndarray:
    """In-cell mask over the population's rows:
    distance**(-alpha) * sum(gains) >= r * theta."""
    return pop.distance ** (-cfg.alpha) * pop.gains.sum(axis=1) >= cfg.r * cfg.theta


def _check_stack(X: np.ndarray, h: np.ndarray, delay: np.ndarray) -> None:
    if (X.ndim, h.ndim, delay.ndim) != (2, 2, 1) or not len(X) == len(h) == len(delay):
        raise ValueError(
            f"expected X (k, n), h (k, r) and delays (k,) with one k, got {X.shape}, "
            f"{h.shape} and {delay.shape}"
        )


# Devices per BLAS product in synthesize_slot.  How OpenBLAS blocks a
# complex product's inner (device) dimension depends on its thread count
# once that dimension passes about 128, so one product over a whole slot
# group can sum in an order, and round to bits, that depend on
# OPENBLAS_NUM_THREADS.  Products over at most 127 devices came out the same
# at 1, 2 and 4 threads for r in (1, 2, 4, 16) and N in (64, 1024); some
# over 130 did not.
_DEVICE_BLOCK = 64

# Samples per delay-ramp chunk in frame_observations, which bounds the ramp's
# temporaries (8 + 16 bytes a sample) whatever the population size.
_RAMP_SAMPLES = 1 << 13


def _ramp(delta: np.ndarray, n: int) -> np.ndarray:
    """Delay ramps e**(-i delta[k] n), n = 1..N, as a (k, N) complex array.

    The real and imaginary parts are filled with cos and -sin of delta[k] n,
    which is bit-identical to np.exp(-1j * np.outer(delta, n)) and cheaper.
    """
    x = np.outer(delta, np.arange(1, n + 1))
    ramp = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=ramp.real)
    np.sin(x, out=ramp.imag)
    np.negative(ramp.imag, out=ramp.imag)
    return ramp


def synthesize_slot(X: np.ndarray, h: np.ndarray, delta: np.ndarray, gamma: float) -> np.ndarray:
    """Noise-free post-DFT observation of one slot, (r, n).

    X (k, n) holds the transmitted codeword samples, h (k, r) their channels
    and delta (k,) their normalized delays; the result is
    sqrt(gamma) * sum_k h[k, :, None] * X[k] * e**(-i delta[k] n), n = 1..N.
    All-zero delays skip the ramp (e**0 = 1 exactly).  The device sum is one
    BLAS product per block of _DEVICE_BLOCK devices, accumulated in device
    order, so the result does not depend on the BLAS thread count.
    """
    X, h, delta = np.asarray(X), np.asarray(h), np.asarray(delta)
    _check_stack(X, h, delta)
    if delta.any():
        X = X * _ramp(delta, X.shape[1])
    return math.sqrt(gamma) * _device_sum(h, X.shape[1], lambda s: X[s : s + _DEVICE_BLOCK])


def _device_sum(h: np.ndarray, n: int, block) -> np.ndarray:
    """sum_k h[k, :, None] * X[k] over the already ramped codewords X (k, n)
    of the k devices of h (k, r), unchecked: synthesize_slot's blocked BLAS
    sum.  block(s) returns X[s : s + _DEVICE_BLOCK], so a caller may build
    each block's codewords only when it is summed."""
    Y = np.zeros((h.shape[1], n), dtype=np.complex128)
    for s in range(0, len(h), _DEVICE_BLOCK):
        Y += h[s : s + _DEVICE_BLOCK].T @ block(s)
    return Y


def _codeword_blocks(expo: np.ndarray, delta: np.ndarray, out: np.ndarray):
    """_device_sum's block(s) for devices with uint8 exponents expo (k, n)
    and delays delta (k,): their codewords looked up into out, a
    (_DEVICE_BLOCK, n) complex buffer, and ramped in place unless every
    delay is zero, as synthesize_slot would ramp the whole stack."""
    ramped = delta.any()

    def block(s: int) -> np.ndarray:
        X = _lookup(expo[s : s + _DEVICE_BLOCK], out)
        if ramped:
            X *= _ramp(delta[s : s + _DEVICE_BLOCK], X.shape[1])
        return X

    return block


def _slot_groups(landed: np.ndarray) -> list[np.ndarray]:
    """Device indices per landed slot, ascending within each group, groups
    in slot order (empty slots have none)."""
    order = np.argsort(landed, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(landed[order])) + 1)


def frame_observations(
    pop: Population,
    frame: FrameConfig,
    cfg: GeometryConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """All slot observations of one frame, a read-only array of shape
    (2**d, 2**p, r, 2**m) indexed [sub_block, slot].

    Every device contributes every copy of every sub-block segment of its
    tree-coded message to the slot it lands in (access_pipeline.transmissions),
    with its block-static channel and delay.  Each slot group goes through
    synthesize_slot's blocked sum.  A synchronous frame (one copy, zero
    delays) builds each slot group's uint8 exponents once (rm_codec) and
    looks up the codewords of one _DEVICE_BLOCK of devices at a time into one
    reused buffer, the very blocks synthesize_slot would sum, so memory stays
    at about a byte a sample of the most crowded slot plus that buffer.  A
    two-copy frame builds every device's copy-0 codeword of a sub-block in
    one (K, 2**m) table and ramps it in place, a chunk of devices at a time,
    so memory is bounded by that one table.  The copies differ only in the
    check bit b[m-2], so copy 1's ramped codeword is copy 0's negated
    wherever bit 1 of n-1 is set, an exact sign flip
    (access_pipeline._flip_check_bit) applied to the table in place.  The
    ramped rows go straight to the blocked sum, as synthesize_slot would
    sum them at zero delay.  Each slot group sums its rows gathered from the
    table a block at a time, in the same device order as from freshly built
    and ramped codewords, so the result is bit-identical to ramping each
    copy on its own.

    With a generator the frame is noisy: noise for the whole grid is drawn
    from it up front in one block, so the result does not depend on the
    accumulation order.  Without one the frame is noiseless.
    """
    r, n, gamma = cfg.r, frame.seq_len, cfg.gamma
    n_sub, n_slots = frame.n_subblocks, frame.n_slots
    k = len(pop)
    if pop.h.shape[1] != r:
        raise ValueError("device channel dimension does not match the antenna count")
    Ps, bs, slots = transmissions(tree_encode(pop.info, frame), frame)
    shape = (n_sub, n_slots, r, n)
    if rng is None:
        Y = np.zeros(shape, dtype=np.complex128)
    else:
        Y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    scale = math.sqrt(gamma)
    if k and frame.copies == 1:
        codewords = np.empty((_DEVICE_BLOCK, n), dtype=np.complex128)
        for j in range(n_sub):
            for sel in _slot_groups(slots[:, j, 0]):
                # exponents passed inline, so none outlive their group's sum
                Y[j, slots[sel[0], j, 0]] += scale * _device_sum(
                    pop.h[sel],
                    n,
                    _codeword_blocks(
                        _pair_exponents(Ps[sel, j, 0], bs[sel, j, 0]), pop.delta[sel], codewords
                    ),
                )
    elif k:
        rows = max(1, _RAMP_SAMPLES // n)
        for j in range(n_sub):
            table = rm_samples_batch(Ps[:, j, 0], bs[:, j, 0])
            for s in range(0, k, rows):
                table[s : s + rows] *= _ramp(pop.delta[s : s + rows], n)
            for c in range(2):
                if c:
                    _flip_check_bit(table)  # copy 0's ramped codewords -> copy 1's
                for sel in _slot_groups(slots[:, j, c]):
                    # synthesize_slot of the ramped rows at zero delay
                    Y[j, slots[sel[0], j, c]] += scale * _device_sum(
                        pop.h[sel], n, lambda s: table[sel[s : s + _DEVICE_BLOCK]]
                    )
            del table  # before the next sub-block's table is built
    Y.setflags(write=False)
    return Y
