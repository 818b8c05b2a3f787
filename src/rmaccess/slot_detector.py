"""Layered per-slot detector with successive interference cancellation.

Works on the post-DFT observation Y (antennas x subcarriers) of one slot.
Each iteration estimates the strongest remaining transmission: correlating
adjacent subcarrier pairs across antennas turns the strongest device's
contribution into a Walsh function whose WHT peak reveals one column of its P
matrix; the peak's fourth-root-of-unity polarity carries one (b, beta) bit
pair and its residual phase one component of the timing phase.  Folding the
two half-sequences onto each other halves the problem and doubles the timing
phase, so m-1 layers plus a final two-column step read out the whole pair,
the channel vector, and m wrapped multiples of the delay, which a small grid
search then reconciles into one delay estimate.  The reconstructed signal is
subtracted and the loop repeats until the residual drops under a threshold,
an iteration cap is hit, or cancellation stops helping (that last detection
is dropped and the loop stops).

detect_slot checks its input once, at the boundary, and then runs private
kernels with no per-call checks; DetectorConfig checks its fields when it is
built.  Each public step (correlate_layer, peak_search, decode_polarity,
fold_layer, estimate_final, refine_delay, reconstruct_signal) is its input
checks followed by the kernel detect_slot runs, so every step has one code
path.  Angles go through numpy's arctan2 as np.angle computes them; scalar
exponentials, floors and wraps use cmath, math and float arithmetic, which
give the same bits as numpy's scalar forms.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# wht and walsh_factor are not called here; perfbench/tracing.py wraps them
# under these names
from .rm_codec import (
    _IOTA_POW,
    _bit_rows,
    _exponents,
    _lookup,
    _row_weights,
    _walsh_table,
    _walsh_values,
    _wht,
    as_bits,
    rm_samples,
    walsh_factor,
    wht,
)

__all__ = [
    "Detection",
    "DetectorConfig",
    "correlate_layer",
    "peak_search",
    "decode_polarity",
    "fold_layer",
    "estimate_final",
    "refine_delay",
    "reconstruct_signal",
    "detect_slot",
]


_INV_2PI = 1.0 / (2.0 * np.pi)
# conj(i**q), q = 0..3, as Python complex scalars
_IOTA_CONJ = tuple(complex(z) for z in np.conj(_IOTA_POW))


def _wrap(x):
    """Wrap angle(s) to [-pi, pi)."""
    return (x + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class DetectorConfig:
    """Stopping rule and delay-search knobs for detect_slot.

    k_max caps the SIC iterations per slot, eps is the residual Frobenius
    norm under which the slot is declared empty (inf: always empty; NaN is
    rejected).  refine_window / refine_resolution, both finite, bound the
    scalar grid search that reconciles the m wrapped delay components.
    estimate_delay=False selects the synchronous variant: no timing phases
    anywhere and the top layer's polarity is decoded as data instead of
    being forced to zero.  k_max must be an int (not a bool) and
    estimate_delay a bool; detect_slot's kernels trust every field.
    """

    k_max: int
    eps: float
    refine_window: float = 0.1
    refine_resolution: float = 1e-4
    estimate_delay: bool = True

    def __post_init__(self) -> None:
        k_max = self.k_max
        if isinstance(k_max, bool) or not isinstance(k_max, numbers.Integral) or k_max < 1:
            raise ValueError(f"k_max must be a positive integer, got {k_max!r}")
        if not isinstance(self.estimate_delay, (bool, np.bool_)):
            raise ValueError(f"estimate_delay must be a bool, got {self.estimate_delay!r}")
        object.__setattr__(self, "k_max", int(k_max))
        object.__setattr__(self, "estimate_delay", bool(self.estimate_delay))
        if math.isnan(self.eps):
            raise ValueError("eps must not be NaN")
        if not (math.isfinite(self.refine_resolution) and self.refine_resolution > 0):
            raise ValueError("refine_resolution must be finite and positive")
        if not (math.isfinite(self.refine_window) and self.refine_window >= 0):
            raise ValueError("refine_window must be finite and nonnegative")


@dataclass(frozen=True)
class Detection:
    """One detected transmission: its pair (P, b), channel estimate (scaled
    by sqrt(gamma)), delay estimate, the raw per-layer delay components, and
    the residual norms around its cancellation.  signal, when given, is the
    (antennas, 2**m) contribution that was cancelled,
    reconstruct_signal(P, b, h_hat, delta_hat); detect_slot sets it.  The
    arrays are read-only."""

    P: np.ndarray
    b: np.ndarray
    h_hat: np.ndarray
    delta_hat: float
    delta_components: np.ndarray
    residual_before: float
    residual_after: float
    iteration: int
    signal: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        arrays = [
            ("P", as_bits(self.P)),
            ("b", as_bits(self.b)),
            ("h_hat", np.asarray(self.h_hat, dtype=np.complex128)),
            ("delta_components", np.asarray(self.delta_components, dtype=np.float64)),
        ]
        if self.signal is not None:
            signal = np.asarray(self.signal, dtype=np.complex128)
            if signal.shape != (arrays[2][1].size, 1 << arrays[1][1].size):
                raise ValueError(f"signal must be (antennas, 2**m), got shape {signal.shape}")
            arrays.append(("signal", signal))
        for name, arr in arrays:
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@functools.lru_cache(maxsize=None)
def _n_index(m: int) -> np.ndarray:
    """n = 1..2**m, the sample numbers of the delay ramp.  Read-only."""
    n_idx = np.arange(1, (1 << m) + 1)
    n_idx.setflags(write=False)
    return n_idx


@functools.lru_cache(maxsize=None)
def _walsh_conj(width: int) -> np.ndarray:
    """Row c is the conjugate of rm_codec's Walsh row c, so that
    row[2 b + beta][idx & freq] is conj(walsh_factor(freq, width, b, beta)).
    Read-only."""
    rows = np.conj(_walsh_values(width))
    rows.setflags(write=False)
    return rows


def _angle(z: complex) -> float:
    """Arg z as np.angle computes it, through numpy's arctan2 (math.atan2
    rounds differently on some inputs)."""
    return float(np.arctan2(z.imag, z.real))


def correlate_layer(Y: np.ndarray) -> np.ndarray:
    """Adjacent-column correlation across antennas.

    out[n] = Y[:, 2n+1] . conj(Y[:, 2n]) (0-based), halving the column count.
    For a single device this strips the data down to the layer's Walsh
    factor times gamma*||h||^2 times one phase factor of the delay.
    """
    Y = np.asarray(Y)
    if Y.ndim != 2:
        raise ValueError("expected an antennas x columns matrix")
    if Y.shape[1] % 2 != 0:
        raise ValueError(f"column count must be even, got {Y.shape[1]}")
    return _correlate(Y)


def _correlate(Y: np.ndarray) -> np.ndarray:
    return np.einsum("ln,ln->n", Y[:, 1::2], np.conj(Y[:, 0::2]))


def peak_search(t: np.ndarray) -> tuple[int, complex]:
    """Largest-magnitude WHT bin: (index, peak value).  In wht's natural
    ordering the index is the Walsh frequency, its bits read MSB-first.

    Ties break toward the smallest index.
    """
    t = np.asarray(t)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("expected a nonempty 1-D transform")
    n = t.size
    if n & (n - 1) != 0:
        raise ValueError(f"transform length must be a power of two, got {n}")
    return _peak(t)


def _peak(t: np.ndarray) -> tuple[int, complex]:
    idx = int(np.abs(t).argmax())
    return idx, complex(t[idx])


def decode_polarity(peak: complex, phase_comp: float) -> tuple[int, int, float]:
    """Split a WHT peak into its (b, beta) bit pair and delay component.

    peak * exp(i*phase_comp) should sit near one of {1, i, -1, -i}, which map
    to (b, beta) = (0,0), (0,1), (1,0), (1,1).  The returned delay component
    is -Arg(peak * conj(i**(2b+beta))), i.e. the peak phase with the polarity
    removed, in [-pi, pi).
    """
    peak = complex(peak)
    if peak == 0:
        raise ValueError("zero peak; polarity is ambiguous")
    return _polarity(peak, float(phase_comp))


def _polarity(peak: complex, phase_comp: float) -> tuple[int, int, float]:
    rotated = peak * cmath.exp(1j * phase_comp)
    quadrant = math.floor((_angle(rotated) + np.pi / 4) / (np.pi / 2)) % 4
    component = _wrap(-_angle(peak * _IOTA_CONJ[quadrant]))
    return quadrant >> 1, quadrant & 1, component


def fold_layer(Y: np.ndarray, V_hat: np.ndarray, delta_hat_layer: float) -> np.ndarray:
    """Average the two half-sequences of every antenna row onto each other.

    out[:, n] = (exp(-i*delta)*Y[:, 2n] + conj(V_hat[n])*Y[:, 2n+1]) / 2.
    delta_hat_layer is the delay component estimated at THIS layer; the next
    layer sees the doubled phase ramp.  Averaging halves the noise variance.
    """
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[1] % 2 != 0:
        raise ValueError("expected an antennas x even-columns matrix")
    V_hat = np.asarray(V_hat)
    if V_hat.shape != (Y.shape[1] // 2,):
        raise ValueError("V_hat must have half as many entries as Y has columns")
    return _fold(Y, np.conj(V_hat), float(delta_hat_layer))


def _fold(Y: np.ndarray, V_conj: np.ndarray, delta: float) -> np.ndarray:
    """fold_layer unchecked, taking conj(V_hat)."""
    return 0.5 * (cmath.exp(-1j * delta) * Y[:, 0::2] + V_conj[None, :] * Y[:, 1::2])


def estimate_final(
    Y1: np.ndarray, delta_prev: float, estimate_delay: bool = True
) -> tuple[int, int, float, np.ndarray]:
    """Read the last bit pair, last delay component, and channel off the
    two-column layer.

    Returns (b1, beta1, delta_component_m, h_hat) where h_hat estimates
    sqrt(gamma) * h.  delta_prev is the component estimated one layer up
    (its doubling compensates the correlation phase).
    """
    Y1 = np.asarray(Y1)
    if Y1.ndim != 2 or Y1.shape[1] != 2:
        raise ValueError("expected an antennas x 2 matrix")
    out = _final(Y1, float(delta_prev), bool(estimate_delay))
    if out is None:
        raise ValueError("zero correlation; final layer is ambiguous")
    return out


def _final(Y1: np.ndarray, delta_prev: float, estimate_delay: bool):
    """estimate_final unchecked; None when the correlation is zero."""
    y_corr = complex(np.einsum("l,l->", Y1[:, 1], np.conj(Y1[:, 0])))
    if y_corr == 0:
        return None
    comp_phase = 2.0 * delta_prev if estimate_delay else 0.0
    b1, beta1, comp_m = _polarity(y_corr, comp_phase)
    if not estimate_delay:
        comp_m = 0.0
    polarity_conj = _IOTA_CONJ[(2 * b1 + beta1) & 3]
    h_hat = 0.5 * (
        Y1[:, 0] * cmath.exp(1j * comp_m) + polarity_conj * cmath.exp(2j * comp_m) * Y1[:, 1]
    )
    return b1, beta1, comp_m, h_hat


@functools.lru_cache(maxsize=16)
def _delay_grid(window: float, resolution: float, m: int):
    """Search offsets k*resolution for |k| <= round(window/resolution), the
    component scales 2^l, and each scaled offset in turns, 2^l k res / 2pi
    (m x grid).  Cached per search shape; all read-only."""
    steps = int(round(window / resolution))
    offsets = np.arange(-steps, steps + 1) * resolution
    scale = 2.0 ** np.arange(m)
    turns = scale[:, None] * offsets[None, :] * _INV_2PI
    for a in (offsets, scale, turns):
        a.setflags(write=False)
    return offsets, scale, turns


def refine_delay(components: np.ndarray, cfg: DetectorConfig) -> float:
    """Reconcile the m wrapped delay components into one estimate.

    Component l (1-based) measures Arg(e^{i 2^(l-1) delta}).  The first
    component alone fixes delta but with the largest noise; the search scans
    corrections e in [-window, window] at the configured resolution,
    predicts every component from g = delta_1 - e, and keeps the first g (in
    grid order) minimizing the wrap-aware squared residual
    sum_l wrap(c_l - wrap(2^(l-1) g))^2.  Returns wrap(g*), in [-pi, pi).

    The scan is exact but cheap.  A screen scores every grid point in
    turns, (c_l - 2^(l-1) g) / 2pi less its nearest integer, with no float
    remainder.  Its rounding error is bounded (see the comment below), so
    only grid points scoring within twice that bound of the smallest score
    can be the minimizer.  Those few get the residual above exactly as a
    full-grid scan computes it, summed row by row as np.sum(axis=0) sums an
    (m, grid) array, so the estimate is bit-identical to the full scan.
    Components must be finite and in [-pi, pi], as detect_slot produces
    them; anything else raises ValueError.
    """
    components = np.asarray(components, dtype=np.float64)
    if components.ndim != 1 or components.size < 2:
        raise ValueError("need at least two delay components")
    if not np.all(np.abs(components) <= np.pi):
        raise ValueError("delay components must be finite and in [-pi, pi]")
    return _refine(components, cfg)


def _refine(components: np.ndarray, cfg: DetectorConfig) -> float:
    m = components.size
    first = components[0]
    offsets, scale, turns = _delay_grid(cfg.refine_window, cfg.refine_resolution, m)
    y = turns + ((components - scale * first) * _INV_2PI)[:, None]
    y -= np.rint(y)
    screen = np.einsum("lj,lj->j", y, y)
    # Screen error.  Let eps = 2^-52, w = offsets[-1] the grid's half-span
    # and X = 2^(m-1) (|first| + w) + 3pi, which bounds |c_l| + |2^(l-1) g|
    # and is at least 3pi.  Against the true circular distance of
    # c_l - 2^(l-1) g, the screen's turn carries at most 2.5 eps X / 2pi of
    # rounding (grid point, cached offset, row shift and the add; y - rint(y)
    # is exact), and the exact path's wrapped difference at most 2.5 eps X
    # (its first wrap rounds 2^(l-1) g + pi, below X, and its six later
    # steps stay within 3pi).  So each squared term differs from its exact
    # twin / 4pi^2 by at most eps X turns^2, squares' own rounding included,
    # and each m-term sum rounds by at most eps m^2 / 8:
    # |screen - exact / 4pi^2| <= B = eps m (X + m/4) at every grid point.
    # The exact minimizer thus scores at most 2B above the screen's minimum,
    # and a margin of 2 eps m (X + m/2) also covers rounding the threshold.
    X = scale[-1] * (abs(first) + offsets[-1]) + 3.0 * np.pi
    keep = np.flatnonzero(screen <= screen.min() + 2.0**-51 * m * (X + m / 2))
    grid = first - offsets[keep]
    predicted = _wrap(scale[:, None] * grid[None, :])
    residual = np.cumsum(_wrap(components[:, None] - predicted) ** 2, axis=0)[-1]
    return _wrap(float(grid[residual.argmin()]))


def reconstruct_signal(
    P: np.ndarray, b: np.ndarray, h_hat: np.ndarray, delta_hat: float
) -> np.ndarray:
    """Post-DFT contribution of one transmission of the pair (P, b):
    outer(h_hat, X * ramp) with ramp[n-1] = exp(-i * delta_hat * n),
    n = 1..2**m (h_hat carries the sqrt(gamma) scale)."""
    samples = rm_samples(P, b)
    n_idx = _n_index(samples.size.bit_length() - 1)
    return _reconstruct(samples, np.ravel(h_hat), delta_hat, n_idx)


def _reconstruct(samples: np.ndarray, h_hat: np.ndarray, delta_hat: float, n_idx: np.ndarray):
    return h_hat[:, None] * (samples * np.exp(-1j * delta_hat * n_idx))


def _estimate_strongest(Y: np.ndarray, m: int, cfg: DetectorConfig):
    """One pass down the layers: pair, channel, delay, delay components and
    reconstructed signal of the strongest transmission in Y, or None if a
    peak degenerates to zero."""
    estimate_delay = cfg.estimate_delay
    P = np.zeros((m, m), dtype=np.uint8)
    b = np.zeros(m, dtype=np.uint8)
    components = np.zeros(m, dtype=np.float64)
    Ys = Y
    prev = 0.0
    for s in range(m, 1, -1):
        w = s - 1
        freq, peak = _peak(_wht(_correlate(Ys)))
        if peak == 0:
            return None
        if s == m and estimate_delay:
            # reserved zeros: the whole peak phase is timing
            b_s, beta_s = 0, 0
            comp = _wrap(-_angle(peak))
        else:
            b_s, beta_s, comp = _polarity(peak, 2.0 * prev if estimate_delay else 0.0)
            if not estimate_delay:
                comp = 0.0
        eta = _bit_rows(w)[freq]
        P[:w, w] = eta
        P[w, :w] = eta
        P[w, w] = beta_s
        b[w] = b_s
        components[m - s] = comp
        Ys = _fold(Ys, _walsh_conj(w)[2 * b_s + beta_s][_walsh_table(w)[0] & freq], comp)
        prev = comp
    final = _final(Ys, prev, estimate_delay)
    if final is None:
        return None
    b1, beta1, comp_m, h_hat = final
    b[0] = b1
    P[0, 0] = beta1
    components[m - 1] = comp_m
    delta_hat = _refine(components, cfg) if estimate_delay else 0.0
    # _pair_exponents of the one pair: shifts 2 b + diag(P), row frequencies
    expo = _exponents(2 * b + P.diagonal(), (P * _row_weights(m)).sum(axis=1), 1)
    signal = _reconstruct(_lookup(expo)[0], h_hat, delta_hat, _n_index(m))
    return P, b, h_hat, delta_hat, components, signal


def _norm(Y: np.ndarray) -> float:
    """Frobenius norm of a C-contiguous complex array through numpy's own
    sum: np.linalg.norm takes a BLAS dot for complex input, whose last bits
    follow the BLAS thread count."""
    return math.sqrt(np.square(Y.view(np.float64)).sum())


def detect_slot(Y: np.ndarray, cfg: DetectorConfig) -> list[Detection]:
    """Detect-and-cancel loop over one slot observation Y (antennas x
    subcarriers).

    Runs while the residual Frobenius norm exceeds cfg.eps and fewer than
    cfg.k_max iterations have been spent.  A detection whose cancellation
    does not shrink the residual is discarded and ends the loop.  Returns
    detections in the order found (strongest first on clean scenes), each
    carrying the signal it cancelled; the input is never mutated.  A
    non-finite observation raises.
    """
    Y = np.ascontiguousarray(Y, dtype=np.complex128)  # never written to
    if Y.ndim != 2:
        raise ValueError("expected an antennas x subcarriers observation")
    n = Y.shape[1]
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"subcarrier count must be a power of two >= 4, got {n}")
    m = n.bit_length() - 1
    detections: list[Detection] = []
    k = 0
    residual = _norm(Y)
    if not math.isfinite(residual):
        raise ValueError("observation contains non-finite entries")
    while residual > cfg.eps and k < cfg.k_max:
        k += 1
        est = _estimate_strongest(Y, m, cfg)
        if est is None:
            break
        P, b, h_hat, delta_hat, components, signal = est
        Y_next = Y - signal
        residual_next = _norm(Y_next)
        if residual_next >= residual:
            break  # cancellation stopped helping; drop this detection
        detections.append(
            Detection(P, b, h_hat, delta_hat, components, residual, residual_next, k, signal)
        )
        Y = Y_next
        residual = residual_next
    return detections
