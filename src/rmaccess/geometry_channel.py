"""Device geometry, fading, and OFDM channel synthesis.

Devices form a Poisson point process on a square region with the access
point at the center.  A device at distance D with per-antenna unit-mean
exponential gains G has channel h_l = D**(-alpha/2) * sqrt(G_l) * e**(i phi_l)
and counts as a neighbor (in cell, part of the decoder's ground truth) when
D**(-alpha) * sum(G) >= r * theta.  Every device transmits regardless; the
far ones appear only as residual interference.

A frame's devices are held as one Population of stacked arrays, row k being
device k: its geometry, fading, channel and delay, and its message with the
derived sub-block segments and landed slots.  classify_neighbors returns
the in-cell rows as a boolean mask over that population.

Slot observations live in the post-DFT frequency domain,

    Y[l, n] = sqrt(gamma) * sum_k h[k, l] X_k(n) e**(-i Delta_k n) + Z[l, n]

with n = 1..N one-based, Delta_k = 2 pi delta_f tau_k the normalized delay
and Z unit-variance circular Gaussian.  synthesize_slot is the one kernel
for the signal sum; frame_observations draws Z up front and calls it per
slot group.  The tests pin the model down against an oracle that rebuilds
the noise-free observation the long way (continuous-time waveform,
sampling, prefix discard, DFT).

The normalized delay is drawn uniform on [-pi, pi); the seconds-valued tau
is derived from it and clamped to [0, tau_max], so the frequency-domain
model governs and the clamp only matters to the tests' time-domain oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .access_pipeline import FrameConfig, draw_messages, segment_pair_bits
from .rm_codec import bits_to_pair_batch, rm_samples_batch

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
    "phases": (np.float64, 2),
    "h": (np.complex128, 2),
    "tau": (np.float64, 1),
    "delta": (np.float64, 1),
    "info": (np.uint8, 2),
    "segments": (np.uint8, 3),
    "slots": (np.int64, 3),
}


@dataclass(frozen=True)
class Population:
    """One frame's devices as stacked arrays, one row per device.

    distance, tau, delta: (K,); gains, phases: (K, r) fading powers and
    phases, h: (K, r) complex channels; info: (K, B) message bits;
    segments: (K, 2**d, segment_bits) tree-coded sub-block segments;
    slots: (K, 2**d, copies) slot index of every transmitted copy.  The
    arrays are made read-only; only their shapes are checked.
    """

    distance: np.ndarray
    gains: np.ndarray
    phases: np.ndarray
    h: np.ndarray
    tau: np.ndarray
    delta: np.ndarray
    info: np.ndarray
    segments: np.ndarray
    slots: np.ndarray

    def __post_init__(self) -> None:
        for name, (dtype, ndim) in _POPULATION_FIELDS.items():
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.ndim != ndim:
                raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len({getattr(self, name).shape[0] for name in _POPULATION_FIELDS}) != 1:
            raise ValueError("population arrays disagree on the device count")
        if not self.gains.shape == self.phases.shape == self.h.shape:
            raise ValueError("gains, phases and h must share one (K, r) shape")
        if self.segments.shape[1] != self.slots.shape[1]:
            raise ValueError("segments and slots disagree on the sub-block count")

    def __len__(self) -> int:
        return self.distance.shape[0]


def _gamma_ratio(cfg: GeometryConfig) -> float:
    """Gamma(2/alpha + r) / Gamma(r), stable for large r."""
    return float(np.exp(gammaln(2.0 / cfg.alpha + cfg.r) - gammaln(cfg.r)))


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
    unit-mean exponential gains, uniform phases.  Delays: normalized delay
    uniform on [-pi, pi), tau clamped from it; both zero when the frame is
    synchronous.
    """
    count = int(rng.poisson(cfg.density * cfg.area))
    half = cfg.side / 2.0
    xy = rng.uniform(-half, half, size=(count, 2))
    dist = np.hypot(xy[:, 0], xy[:, 1])
    gains = rng.exponential(1.0, size=(count, cfg.r))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(count, cfg.r))
    h = dist[:, None] ** (-cfg.alpha / 2.0) * np.sqrt(gains) * np.exp(1j * phases)
    if frame.synchronous:
        delta = np.zeros(count)
        tau = np.zeros(count)
    else:
        delta = rng.uniform(-math.pi, math.pi, size=count)
        tau = np.clip(delta / (2.0 * math.pi * frame.delta_f), 0.0, frame.tau_max)
    info, segments, slots = draw_messages(frame, rng, count)
    return Population(dist, gains, phases, h, tau, delta, info, segments, slots)


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


def synthesize_slot(X: np.ndarray, h: np.ndarray, delta: np.ndarray, gamma: float) -> np.ndarray:
    """Noise-free post-DFT observation of one slot, (r, n).

    X (k, n) holds the transmitted codeword samples, h (k, r) their channels
    and delta (k,) their normalized delays; the result is
    sqrt(gamma) * einsum("kl,kn->ln", h, X * e**(-i delta n)), n = 1..N.
    """
    X, h, delta = np.asarray(X), np.asarray(h), np.asarray(delta)
    _check_stack(X, h, delta)
    X = X * np.exp(-1j * np.outer(delta, np.arange(1, X.shape[1] + 1)))
    return math.sqrt(gamma) * np.einsum("kl,kn->ln", h, X)


def frame_observations(
    pop: Population,
    frame: FrameConfig,
    cfg: GeometryConfig,
    rng: np.random.Generator | None = None,
    noise_on: bool = True,
) -> np.ndarray:
    """All slot observations of one frame, a read-only array of shape
    (2**d, 2**p, r, 2**m) indexed [sub_block, slot].

    Every device contributes every copy of every sub-block segment to the
    slot it lands in, with its block-static channel and delay.  Each slot
    group goes through synthesize_slot, so memory stays bounded by the most
    crowded slot; noise for the whole grid is drawn up front in one block,
    so the result does not depend on the accumulation order.
    """
    r, n, gamma = cfg.r, frame.seq_len, cfg.gamma
    n_sub, n_slots = frame.n_subblocks, frame.n_slots
    k = len(pop)
    if pop.h.shape[1] != r:
        raise ValueError("device channel dimension does not match the antenna count")
    if pop.slots.shape[1:] != (n_sub, frame.copies):
        raise ValueError(
            f"slots of shape {pop.slots.shape[1:]} per device do not match the frame's "
            f"{(n_sub, frame.copies)}"
        )
    if pop.segments.shape[2] != frame.segment_bits:
        raise ValueError(
            f"segments of {pop.segments.shape[2]} bits do not match the frame's "
            f"{frame.segment_bits}"
        )
    if noise_on:
        if rng is None:
            raise ValueError("noise synthesis needs a generator")
        shape = (n_sub, n_slots, r, n)
        Y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    else:
        Y = np.zeros((n_sub, n_slots, r, n), dtype=np.complex128)
    if k:
        flat = pop.segments.reshape(k * n_sub, frame.segment_bits)
        for c in range(frame.copies):
            Ps, bs = bits_to_pair_batch(segment_pair_bits(flat, frame, np.full(k * n_sub, c == 1)))
            Ps = Ps.reshape(k, n_sub, frame.m, frame.m)
            bs = bs.reshape(k, n_sub, frame.m)
            for j in range(n_sub):
                landed = pop.slots[:, j, c]
                order = np.argsort(landed, kind="stable")
                starts = np.flatnonzero(np.diff(landed[order])) + 1
                for sel in np.split(order, starts):
                    # codewords passed inline: the kernel frees them once ramped
                    Y[j, landed[sel[0]]] += synthesize_slot(
                        rm_samples_batch(Ps[sel, j], bs[sel, j]), pop.h[sel], pop.delta[sel], gamma
                    )
    Y.setflags(write=False)
    return Y

