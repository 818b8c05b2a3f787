"""Layered per-slot detector with successive interference cancellation.

Works on the post-DFT observation Y (antennas x subcarriers) of one slot.
Each iteration estimates the strongest remaining transmission: correlating
adjacent subcarrier pairs across antennas turns the strongest device's
contribution into a Walsh function whose WHT peak reveals one column of its P
matrix; the peak's fourth-root-of-unity polarity carries one (b, beta) bit
pair and its residual phase one component of the timing phase.  Folding the
two half-sequences onto each other halves the problem and doubles the timing
phase, so m-1 layers plus a final two-column step read out the whole pair,
the channel vector, and m wrapped multiples of the delay, which a grid
search then reconciles into one delay estimate (refine_delay: the grid's
exact minimum, found from the residual's quadratic pieces with a written
rounding bound, so only a point or two gets the exact residual).  The
reconstructed signal is subtracted and the loop repeats until the residual
drops under a threshold, an iteration cap is hit, or cancellation stops
helping (that last detection is dropped and the loop stops).

detect_slot checks its input once, at the boundary, and then runs private
kernels with no per-call checks; DetectorConfig checks its fields when it is
built.  Each public step (correlate_layer, peak_search, decode_polarity,
fold_layer, estimate_final, refine_delay, reconstruct_signal) is its input
checks followed by the kernel detect_slot runs, so every step has one code
path.  The detected pair's samples come from the package's one exponent
builder (rm_codec._pair_exponents), and detect_slot makes its arrays
read-only and stores them in a plain Detection.  Angles go
through numpy's arctan2 as np.angle computes them; scalar exponentials,
floors and wraps use cmath, math and float arithmetic, which give the same
bits as numpy's scalar forms, and the folds halve their factors before the
sum, which is exact.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import numbers
from typing import NamedTuple

import numpy as np

# np.einsum without optimize is this C function behind about 3 us of Python
# dispatch, which the detector would pay six times an iteration
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as _einsum

# wht and walsh_factor are not called here; perfbench/tracing.py wraps them
# under these names
from .rm_codec import (
    _IOTA_256,
    _IOTA_POW,
    _bit_rows,
    _pair_exponents,
    _walsh_table,
    _walsh_values,
    _wht,
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


@dataclasses.dataclass(frozen=True)
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


@dataclasses.dataclass(frozen=True)
class Detection:
    """One detected transmission: its pair (P, b), channel estimate (scaled
    by sqrt(gamma)), delay estimate, the raw per-layer delay components, and
    the residual norms around its cancellation.  signal, when given, is the
    (antennas, 2**m) contribution that was cancelled,
    reconstruct_signal(P, b, h_hat, delta_hat); detect_slot sets it.  The
    fields are stored as given; detect_slot returns them read-only."""

    P: np.ndarray
    b: np.ndarray
    h_hat: np.ndarray
    delta_hat: float
    delta_components: np.ndarray
    residual_before: float
    residual_after: float
    iteration: int
    signal: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)


@functools.lru_cache(maxsize=None)
def _n_index(m: int) -> np.ndarray:
    """n = 1..2**m, the sample numbers of the delay ramp.  Read-only."""
    n_idx = np.arange(1, (1 << m) + 1)
    n_idx.setflags(write=False)
    return n_idx


@functools.lru_cache(maxsize=None)
def _fold_rows(width: int) -> np.ndarray:
    """Row c is half the conjugate of rm_codec's Walsh row c, so that
    row[2 b + beta][idx & freq] is conj(walsh_factor(freq, width, b, beta))
    / 2.  Read-only."""
    rows = 0.5 * np.conj(_walsh_values(width))
    rows.setflags(write=False)
    return rows


# Widest layer whose factors _fold_factor takes from one table of every
# frequency, (4, 2**6, 2**6) complex: 256 KB
_FACTOR_TABLE_BITS = 6


@functools.lru_cache(maxsize=None)
def _fold_table(width: int) -> np.ndarray:
    """Entry [c, freq] is _fold_rows(width)[c][idx & freq] for every
    frequency, width <= _FACTOR_TABLE_BITS.  Read-only."""
    idx = _walsh_table(width)[0]
    table = _fold_rows(width)[:, np.bitwise_and.outer(idx, idx)]
    table.setflags(write=False)
    return table


def _fold_factor(width: int, c: int, freq: int) -> np.ndarray:
    """conj(walsh_factor(freq, width, c >> 1, c & 1)) / 2: the halved,
    conjugated V_hat a layer folds with.  Read-only."""
    if width <= _FACTOR_TABLE_BITS:
        return _fold_table(width)[c, freq]
    return _fold_rows(width)[c][_walsh_table(width)[0] & freq]


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
    return _einsum("ln,ln->n", Y[:, 1::2], np.conj(Y[:, 0::2]))


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
    return _fold(Y, 0.5 * np.conj(V_hat), float(delta_hat_layer))


def _fold(Y: np.ndarray, V_half: np.ndarray, delta: float) -> np.ndarray:
    """fold_layer unchecked, taking conj(V_hat) / 2.  Halving both terms
    before the sum is exact, as any scaling by a power of two is short of
    the subnormal range, so this is the formula above bit for bit."""
    return (0.5 * cmath.exp(-1j * delta)) * Y[:, 0::2] + V_half[None, :] * Y[:, 1::2]


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
    y_corr = complex(_einsum("l,l->", Y1[:, 1], np.conj(Y1[:, 0])))
    if y_corr == 0:
        return None
    comp_phase = 2.0 * delta_prev if estimate_delay else 0.0
    b1, beta1, comp_m = _polarity(y_corr, comp_phase)
    if not estimate_delay:
        comp_m = 0.0
    polarity_conj = _IOTA_CONJ[(2 * b1 + beta1) & 3]
    # the halves as in _fold: 0.5 (Y1[:, 0] e^{i c} + conj(i^q) e^{2ic} Y1[:, 1])
    h_hat = Y1[:, 0] * (0.5 * cmath.exp(1j * comp_m)) + (
        0.5 * (polarity_conj * cmath.exp(2j * comp_m))
    ) * Y1[:, 1]
    return b1, beta1, comp_m, h_hat


class _Search(NamedTuple):
    """One delay-search shape as _refine reads it, its arrays read-only."""

    steps: int  # the grid's offsets are k resolution, |k| <= steps
    offsets: np.ndarray  # the grid's offsets in grid order
    scale: np.ndarray  # 2^l, l = 0..m-1
    lowered: np.ndarray  # -2^l
    shift: np.ndarray  # 1/2 - 2^l half / 2pi, half = steps resolution
    ticks: np.ndarray  # 1/2, 3/2, ...: the wraps of a term in its own turns
    period: np.ndarray  # (m, 1): 2 / 2^l, the e / pi between term l's wraps
    weights: np.ndarray  # (m, ticks): 2^l in row l
    limit: float  # half / pi
    curvature: float  # C = sum_l 4^l
    rounding: float  # 2E
    slack: float  # the screen's rounding per summed term
    spread: float  # 2E / (C resolution^2)
    reach: float  # the minimizers' and grid points' rounding, in grid steps


@functools.lru_cache(maxsize=16)
def _delay_search(window: float, resolution: float, m: int) -> _Search:
    """_refine's search shape, cached; its bounds are derived there."""
    steps = int(round(window / resolution))
    half = steps * resolution
    scale = 2.0 ** np.arange(m)
    ticks = np.arange(int(scale[-1] * half / np.pi) + 2) + 0.5
    curvature = float(((1 << 2 * m) - 1) // 3)
    eps = 2.0**-52
    rounding = 2.0 * eps * m * (20.0 * (2.0 ** (m - 1) * (np.pi + half) + 3.0 * np.pi) + 5.0 * m)
    wraps = 2.0**m * half / np.pi + m  # at least the wraps in the window
    search = _Search(
        steps=steps,
        offsets=np.arange(-steps, steps + 1) * resolution,
        scale=scale,
        lowered=-scale,
        shift=0.5 - scale * half * _INV_2PI,
        ticks=ticks,
        period=(2.0 / scale)[:, None],
        weights=np.repeat(scale[:, None], ticks.size, axis=1),
        limit=half / np.pi,
        curvature=curvature,
        rounding=rounding,
        slack=512.0 * eps * curvature * (np.pi + half) ** 2,
        spread=rounding / (curvature * resolution**2),
        reach=16.0 * eps * (m + wraps) * (np.pi + half) / resolution,
    )
    for a in search:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return search


def refine_delay(components: np.ndarray, cfg: DetectorConfig) -> float:
    """Reconcile the m wrapped delay components into one estimate.

    Component l (1-based) measures Arg(e^{i 2^(l-1) delta}).  The first
    component alone fixes delta but with the largest noise; the search scans
    corrections e in [-window, window] at the configured resolution,
    predicts every component from g = delta_1 - e, and keeps the first g (in
    grid order) minimizing the wrap-aware squared residual
    sum_l wrap(c_l - wrap(2^(l-1) g))^2.  Returns wrap(g*), in [-pi, pi).

    The scan is exact but cheap.  As a function of e the residual is
    piecewise quadratic: a piece ends where a component wraps, and on each
    piece it is one quadratic of curvature C = sum 4^(l-1), whose minimum
    and minimizer follow from the piece before by one step.  Since the
    circular distance is the least over all wraps, the residual is at most
    every piece's quadratic everywhere; so, up to a written rounding bound
    (the comment in _refine), only pieces whose minimum is near the best
    can hold the grid's minimum, and within such a piece only grid points
    about as near its minimizer as the nearest one.  Those few points, one
    or two on a clean slot, get the residual above exactly as a full-grid
    scan computes it, summed row by row as np.sum(axis=0) sums an (m, grid)
    array, so the estimate is bit-identical to the full scan.  Components
    must be finite and in [-pi, pi], as detect_slot produces them; anything
    else raises ValueError.
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
    resolution = cfg.refine_resolution
    search = _delay_search(cfg.refine_window, resolution, m)
    steps, curvature = search.steps, search.curvature
    # The pieces.  With e = k resolution, term l is circ(a_l + 2^l e)^2,
    # a_l = c_l - 2^l first and circ the true circular distance, so it
    # wraps where a_l / 2pi + 2^l e / 2pi + 1/2 passes an integer: its wrap
    # i is at e = (i + 1/2 - offset_l) 2pi / 2^l, offset_l in [2^l half /
    # 2pi - 1/2, 2^l half / 2pi + 1/2).  On a piece term l is (D_l + 2^l
    # e)^2, and the piece is A + 2 B e + C e^2 with A = sum D_l^2 and B =
    # sum 2^l D_l, least at e* = -B / C, where it is A - C e*^2.  At e =
    # -half, D_l = 2pi offset_l; a wrap of term l at e_w lowers D_l by 2pi,
    # which raises -B / 2pi by 2^l and A / 4pi^2 by 2^l e_w / pi (the
    # residual is continuous).  Rows 0 and 1 of sums add those up, the m
    # terms at -half and then the wraps in e order, so column m - 1 + p
    # holds piece p's.
    turns = (components - search.scale * first) * _INV_2PI
    offset = turns - np.floor(turns + search.shift)
    ends = (search.ticks - offset[:, None]) * search.period  # e_w / pi
    inside = ends <= search.limit
    ends = ends[inside]
    order = ends.argsort()
    sums = np.empty((2, m + ends.size))
    np.multiply(search.lowered, offset, out=sums[0, :m])
    np.multiply(offset, offset, out=sums[1, :m])
    sums[0, m:] = search.weights[inside][order]
    np.multiply(sums[0, m:], ends[order], out=sums[1, m:])
    np.add.accumulate(sums, axis=1, out=sums)
    centers = sums[0, m - 1 :] * (2.0 * np.pi / curvature)
    low = (4.0 * np.pi**2) * sums[1, m - 1 :] - curvature * centers**2
    # Which grid points can hold the minimum.  Let eps = 2^-52 and X =
    # 2^(m-1) (pi + half) + 3pi, which bounds |c_l| + |2^l g| and is at
    # least 3pi.  The exact path's wrapped difference carries at most 3 eps
    # X of rounding (its first wrap rounds 2^l g + pi, below X, and its
    # later steps stay within 3pi), each squared term at most 20 eps X and
    # the m-term sum another 5 eps m^2: its residual is within E = eps m (20
    # X + 5 m) of the true one R at every grid point, so the point it
    # returns has R at most G + 2E, G the least R over the grid.  Let piece
    # p be the quadratic R_p, least at e*_p, and its grid point nearest
    # e*_p lie d_p steps from it.  R <= R_p everywhere, since circ is the
    # least distance over all wraps, so G <= R_p there, R_p(e*_p) + C (d_p
    # resolution)^2.  A grid point k on piece p has R(k) = R_p(k), so for
    # R(k) <= G + 2E it needs
    # - R_p(e*_p) at most the best piece's bound above plus 2E, and
    # - (k - e*_p / resolution)^2 <= d_p^2 + 2E / (C resolution^2).
    # Every other grid point is ruled out without a wrap.  The minimizers
    # carry at most 8 eps (m + P) (pi + half) of rounding, P the wraps in
    # the window, and the grid points sit within 2 eps (pi + half) of k
    # resolution, which reach covers twice over; low carries at most 512 eps
    # C (pi + half)^2 of rounding per summed term, which slack covers.  Ends
    # that round into the wrong order swap a piece narrower than that
    # rounding for one not present, which the same margins cover.
    best = int(low.argmin())
    x = centers.item(best) / resolution + steps
    d = x - min(max(round(x), 0), 2 * steps)
    cap = low.item(best) + curvature * (d * resolution) ** 2 + search.rounding
    candidates = set()
    for p in (low <= cap + search.slack * (low.size + m)).nonzero()[0].tolist():
        x = centers.item(p) / resolution + steps
        d = x - min(max(round(x), 0), 2 * steps)
        r = math.sqrt(d * d + search.spread) + search.reach
        candidates.update(range(max(math.ceil(x - r), 0), min(math.floor(x + r), 2 * steps) + 1))
    if len(candidates) == 1:
        return _wrap(float(first - search.offsets[candidates.pop()]))
    grid = first - search.offsets[sorted(candidates)]
    predicted = _wrap(search.scale[:, None] * grid[None, :])
    residual = np.add.accumulate(_wrap(components[:, None] - predicted) ** 2, axis=0)[-1]
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
        Ys = _fold(Ys, _fold_factor(w, 2 * b_s + beta_s, freq), comp)
        prev = comp
    final = _final(Ys, prev, estimate_delay)
    if final is None:
        return None
    b1, beta1, comp_m, h_hat = final
    b[0] = b1
    P[0, 0] = beta1
    components[m - 1] = comp_m
    delta_hat = _refine(components, cfg) if estimate_delay else 0.0
    samples = _IOTA_256.take(_pair_exponents(P[None], b[None])[0])
    signal = _reconstruct(samples, h_hat, delta_hat, _n_index(m))
    return P, b, h_hat, delta_hat, components, signal


def _norm(Y: np.ndarray) -> float:
    """Frobenius norm of a C-contiguous complex array through numpy's own
    sum: np.linalg.norm takes a BLAS dot for complex input, whose last bits
    follow the BLAS thread count."""
    return math.sqrt(np.add.reduce(np.square(Y.view(np.float64)), axis=None))


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
        for arr in (P, b, h_hat, components, signal):
            arr.setflags(write=False)
        detections.append(
            Detection(P, b, h_hat, delta_hat, components, residual, residual_next, k, signal)
        )
        Y = Y_next
        residual = residual_next
    return detections
