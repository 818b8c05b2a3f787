"""Second-order Reed-Muller sequence codec.

A sequence of length 2**m over {1, -1, i, -i} is identified by a symmetric
binary m x m matrix P and a binary m-vector b: sample n (1-based) equals
i**(2*b'a + a'Pa) where a is the m-bit binary expression of n - 1.  Each
sequence is two interleaved copies of a shorter one, the even-position copy
modulated by a Walsh function whose frequency is the last off-diagonal
column of P: the layers the detector peels.  walsh_factor gives the
modulating factor of one layer from its frequency as an integer, and wht is
the fast Walsh-Hadamard transform whose peak index is that frequency.

rm_samples_batch is the one sequence builder, and rm_samples its batch of
one.  Every sequence's uint8 exponents, 1 byte a sample, come from one
builder, _pair_exponents: those of the trailing sub-pair of up to 7 rows
are one exact float32 product of its bits with a cached table, and above
it the first half of a sequence is the sequence of its trailing sub-pair
and the second half adds a shift and a Walsh term whose frequency is the
first row of P, so the exponents double in place layer by layer, each
Walsh term a row of a cached parity table of at most 64 KB.  The samples
are one lookup in a 256-entry table of powers of i, a bounded chunk of rows
at a time, into a buffer the caller may supply; synthesis uses that to
build a slot group's exponents once and its codewords a block of devices
at a time (geometry_channel.frame_observations), and the detector looks up
the one pair it reconstructs.  The rest converts pairs to and from their
canonical bit strings.  A pair is always two arrays, P and b, or stacks
(..., m, m) and (..., m) of them.  Where a message's bits sit in the bit
string is the frame scheme's decision
(access_pipeline.FrameConfig.pair_positions), not the codec's.

Bit-vector convention used everywhere: the LAST component of a bit vector is
the least significant bit, i.e. vectors read MSB-first.  The subsequence
recursion (odd positions of X are X_half verbatim) forces this ordering.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "as_bits",
    "rm_samples",
    "rm_samples_batch",
    "walsh_factor",
    "wht",
    "pair_to_bits",
    "bits_to_pair_batch",
    "unpack_bits",
]

# i**k lookup; exponents are always reduced mod 4 before indexing.
_IOTA_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


@lru_cache(maxsize=None)
def _bit_rows(width: int) -> np.ndarray:
    """Row n is the width-bit binary expression of n, most significant bit
    first, n = 0..2**width-1: a read-only (2**width, width) uint8 table."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    rows = ((np.arange(1 << width, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.uint8)
    rows.setflags(write=False)
    return rows


def as_bits(values) -> np.ndarray:
    """values as a uint8 array, rejecting any entry other than 0 and 1.

    The check comes before the cast: uint8 would wrap 256 to 0 and truncate
    0.5 to 0.  Integer input takes one range check (two when signed).
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        bad = (arr > 1).any() or (arr.dtype.kind == "i" and (arr < 0).any())
    else:
        bad = (arr.astype(bool) != arr).any()
    if bad:
        raise ValueError("bit entries must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def _as_pairs(P, b) -> tuple[np.ndarray, np.ndarray]:
    """P (..., m, m) and b (..., m) as uint8 arrays, checked: entries 0 or
    1, m >= 1, matching shapes and a symmetric P."""
    P, b = as_bits(P), as_bits(b)
    if b.ndim < 1 or b.shape[-1] < 1 or P.shape != b.shape + b.shape[-1:]:
        raise ValueError(f"expected P (..., m, m), b (..., m), m >= 1; got {P.shape}, {b.shape}")
    if (P != np.swapaxes(P, -1, -2)).any():
        raise ValueError("P must be symmetric")
    return P, b


@lru_cache(maxsize=None)
def _walsh_table(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices 0..2**width-1 and twice their bit-count parity (uint8), so
    that table[idx & eta] is the exponent 2*eta'a of a Walsh function.
    Read-only."""
    idx = np.arange(1 << width)
    twice_parity = np.zeros(1, dtype=np.uint8)
    for _ in range(width):
        twice_parity = np.concatenate([twice_parity, twice_parity ^ 2])
    idx.setflags(write=False)
    twice_parity.setflags(write=False)
    return idx, twice_parity


@lru_cache(maxsize=None)
def _walsh_values(width: int) -> np.ndarray:
    """Row c holds i**(c + 2*parity(n)) for n = 0..2**width-1, c = 0..3.
    Read-only."""
    twice_parity = _walsh_table(width)[1]
    values = _IOTA_POW[(twice_parity + np.arange(4, dtype=np.uint8)[:, None]) & 3]
    values.setflags(write=False)
    return values


@lru_cache(maxsize=None)
def _row_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    """weights 2**(m-1-i) and masks 2**(m-1-t) - 1, i, t = 0..m-1, intp:
    (P @ weights) & masks reads each row t of P MSB-first and keeps the
    bits right of the diagonal, P[t, t+1:] as an integer.  Read-only."""
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.intp)
    masks = weights - 1
    weights.setflags(write=False)
    masks.setflags(write=False)
    return weights, masks


def rm_samples_batch(Ps: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Sample vectors of a stack of pairs: Ps (k, m, m), bs (k, m) -> (k, 2**m).

    The package's one sequence builder: the pairs' checks, then their uint8
    exponents E (_pair_exponents), O(2**m) per pair, which satisfy
    E = concatenate(E', E' + 2*b[0] + P[0, 0] + 2*parity(zeta & n')) mod 4
    over n' = 0..2**(m-1)-1, with E' the exponents of the trailing sub-pair
    (P[1:, 1:], b[1:]) and zeta = P[0, 1:] read MSB-first, and the samples
    i**E by table lookup.  P must be symmetric.
    """
    if np.ndim(bs) != 2:
        raise ValueError("expected a stack of pairs, bs of shape (k, m)")
    return _lookup(_pair_exponents(*_as_pairs(Ps, bs)))


def _pair_exponents(Ps: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """uint8 exponents of a stack of valid uint8 pairs, unchecked: (k, 2**m),
    sample n being i**(exponent mod 4).  The trailing w = min(m,
    _PAIR_TABLE_BITS) rows' are one product of their bits with
    _pair_table(w), and _exponents adds the rows above them."""
    k, m = bs.shape
    w = min(m, _PAIR_TABLE_BITS)
    top = m - w
    trailing = Ps[:, top:, top:].reshape(k, w * w)
    bits = np.concatenate((bs[:, top:], trailing), axis=1, dtype=np.float32)
    # integers of at most 2 w + w**2 = 63: exact in float32 whatever the
    # BLAS blocking, and below 256
    base = (bits @ _pair_table(w)).astype(np.uint8)
    if not top:
        return base
    shifts = (2 * bs[:, :top] + Ps.diagonal(axis1=1, axis2=2)[:, :top]).T[:, :, None]
    weights, masks = _row_weights(m)
    return _exponents(shifts, ((Ps[:, :top] @ weights) & masks[:top]).T, base, m)


def _exponents(shifts, freqs, base: np.ndarray, m: int) -> np.ndarray:
    """The layer recursion on uint8 exponents, unchecked: (k, 2**m) from
    base (k, 2**w), the trailing w-row sub-pairs' exponents, and each upper
    row t = 0..m-w-1's shift 2*b[t] + P[t, t] (uint8, shifts[t], (k, 1))
    and frequency P[t, t+1:] read MSB-first (freqs[t], (k,)).  The second
    half of a sequence's exponents is the first half, its trailing
    sub-pair's, plus the shift and a Walsh term of the frequency, so row t
    writes samples 2**(m-1-t)..2**(m-t)-1 from the ones before them."""
    # a layer adds at most 5 and uint8 wraps at a multiple of 4, so the
    # mod 4 is left to the lookup
    k, width = base.shape
    expo = np.empty((k, 1 << m), dtype=np.uint8)
    expo[:, :width] = base
    for t in range(len(shifts) - 1, -1, -1):
        half = 1 << (m - 1 - t)
        upper = expo[:, half : 2 * half]
        np.add(expo[:, :half], _walsh_term(freqs[t], m - 1 - t), out=upper)
        upper += shifts[t]
    return expo


# Widest trailing sub-pair whose exponents _pair_exponents takes from one
# table product, (7 + 49, 2**7) float32
_PAIR_TABLE_BITS = 7


@lru_cache(maxsize=None)
def _pair_table(width: int) -> np.ndarray:
    """(width + width**2, 2**width) float32 table whose column n holds 2 a
    and the outer product a a' (raveled) for a the width-bit expression of
    n: concatenate((b, P.ravel())) of a pair times column n is its sample
    exponent 2 b'a + a'Pa.  At most 28 KB; read-only."""
    a = _bit_rows(width)
    table = np.concatenate([2 * a, (a[:, :, None] & a[:, None, :]).reshape(1 << width, -1)], axis=1)
    table = np.ascontiguousarray(table.T, dtype=np.float32)
    table.setflags(write=False)
    return table


# Widest per-width parity table: (2**8, 2**8) uint8, 64 KB.
_TABLE_BITS = 8


@lru_cache(maxsize=None)
def _parity_rows(width: int) -> np.ndarray:
    """Row eta holds 2*parity(eta & n) for n = 0..2**width-1, width <=
    _TABLE_BITS: a read-only (2**width, 2**width) uint8 table."""
    idx, twice_parity = _walsh_table(width)
    rows = twice_parity[np.bitwise_and.outer(idx, idx)]
    rows.setflags(write=False)
    return rows


def _walsh_term(eta, width: int) -> np.ndarray:
    """2*parity(eta & n), n = 0..2**width-1, uint8, for frequencies eta:
    (k, 2**width) for a (k,) array, (2**width,) for one int.  Above
    _TABLE_BITS bits the parity of eta & n is the XOR of the parities of
    its high and low parts, so no table outgrows _parity_rows(_TABLE_BITS)."""
    if width <= _TABLE_BITS:
        return _parity_rows(width).take(eta, axis=0)
    low = _parity_rows(_TABLE_BITS).take(eta & 0xFF, axis=0)
    high = _walsh_term(eta >> _TABLE_BITS, width - _TABLE_BITS)
    return (high[..., :, None] ^ low[..., None, :]).reshape(low.shape[:-1] + (1 << width,))


# i**(e mod 4) for every uint8 exponent e
_IOTA_256 = _IOTA_POW[np.arange(256) & 3]
_IOTA_256.setflags(write=False)

# Exponents per lookup chunk, which bounds take's intp index copy (8 bytes
# a sample) whatever the batch size.
_LOOKUP_SAMPLES = 1 << 14


def _lookup(expo: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Samples i**expo of uint8 exponents (k, n): a new array, or the first
    k rows of out, a complex128 buffer of at least k rows of n."""
    k, n = expo.shape
    out = np.empty((k, n), dtype=np.complex128) if out is None else out[:k]
    rows = max(1, _LOOKUP_SAMPLES // n)
    for s in range(0, k, rows):
        np.take(_IOTA_256, expo[s : s + rows], out=out[s : s + rows], mode="wrap")
    return out


def rm_samples(P: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sample vector of the sequence identified by (P, b), as a raw array:
    rm_samples_batch of the one pair.

    samples[n-1] = i**(2*b'a + a'Pa) with a the m-bit binary expression of
    n-1, most significant bit first.
    Exact complex values from a lookup table, no trig.
    """
    return rm_samples_batch(np.asarray(P)[None], np.asarray(b)[None])[0]


def walsh_factor(freq: int, width: int, b_bit: int, beta_bit: int) -> np.ndarray:
    """Modulation factor V relating a sequence's even positions to its half.

    V[n-1] = i**(2*b_bit + beta_bit + 2*parity(freq & (n-1))) for
    n = 1..2**width: a Walsh function of frequency freq times a fixed fourth
    root of unity.  For a pair (P, b), the order-s
    truncation X and the order-(s-1) truncation X_half satisfy
    X[0::2] == X_half and X[1::2] == V * X_half with width = s-1, freq =
    P[:s-1, s-1] read MSB-first, b_bit = b[s-1] and beta_bit = P[s-1, s-1].
    """
    freq, width = int(freq), int(width)
    if width < 0 or not 0 <= freq < (1 << width):
        raise ValueError(f"{freq} is not a {width}-bit Walsh frequency")
    if b_bit not in (0, 1) or beta_bit not in (0, 1):
        raise ValueError(f"b_bit and beta_bit must be 0 or 1, got {b_bit} and {beta_bit}")
    idx = _walsh_table(width)[0]
    return _walsh_values(width)[2 * int(b_bit) + int(beta_bit)][idx & freq]


def wht(x: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform, t[l] = sum_n (-1)**(l.n bit dot) x[n].

    Natural (Hadamard) ordering: the kernel is the bitwise dot product of the
    output and input indices, so the peak index of a transformed Walsh
    function IS its frequency.  Unnormalized; applying it twice returns the
    input scaled by len(x).  Accepts real or complex input, returns complex.
    """
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D vector")
    n = arr.size
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")
    return _wht(arr.astype(np.complex128, copy=True))


def _wht(src: np.ndarray) -> np.ndarray:
    """wht of a 1-D complex128 array of power-of-two length, unchecked; the
    input is overwritten."""
    # Constant geometry: each pass writes the sums of adjacent entries to
    # the first half and their differences to the second, so every output
    # is the same chain of additions as radix-2 butterflies in place.
    n = src.size
    dst = np.empty(n, dtype=np.complex128)
    for _ in range(n.bit_length() - 1):
        np.add(src[0::2], src[1::2], out=dst[: n // 2])
        np.subtract(src[0::2], src[1::2], out=dst[n // 2 :])
        src, dst = dst, src
    return src


@lru_cache(maxsize=None)
def _triu_coords(m: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(m)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=None)
def _entry_positions(m: int) -> np.ndarray:
    """Canonical bit-string position of every entry of P, row-major: an
    upper-triangle entry and its mirror share one.  Read-only."""
    rows, cols = _triu_coords(m)
    positions = np.empty((m, m), dtype=np.intp)
    positions[rows, cols] = positions[cols, rows] = m + np.arange(rows.size)
    positions = positions.ravel()
    positions.setflags(write=False)
    return positions


def pair_to_bits(P: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical bit string of a pair: b, then the upper triangle of P
    (diagonal included) row by row, m(m+3)/2 bits.  Takes one pair or a
    stack, P (..., m, m) and b (..., m), as the exact inverse of
    bits_to_pair_batch; entries other than 0 and 1, shapes that disagree
    and an asymmetric P raise ValueError."""
    P, b = _as_pairs(P, b)
    rows, cols = _triu_coords(b.shape[-1])
    return np.concatenate([b, P[..., rows, cols]], axis=-1)


@lru_cache(maxsize=None)
def _order_from_total(total: int) -> int:
    """The m with m(m+3)/2 == total, in integers: m = (isqrt(9 + 8 total) - 3) // 2."""
    m = (math.isqrt(9 + 8 * total) - 3) // 2
    if m < 1 or m * (m + 3) // 2 != total:
        raise ValueError(f"{total} is not a valid canonical bit-string length")
    return m


def bits_to_pair_batch(bit_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of pair_to_bits on rows: (k, m(m+3)/2) -> Ps (k, m, m), bs (k, m)."""
    bit_matrix = as_bits(bit_matrix)
    if bit_matrix.ndim != 2:
        raise ValueError("expected a 2-D bit matrix")
    m = _order_from_total(bit_matrix.shape[1])
    Ps = np.take(bit_matrix, _entry_positions(m), axis=1)
    return Ps.reshape(-1, m, m), bit_matrix[:, :m].copy()


@lru_cache(maxsize=None)
def _flat_positions(m: int) -> np.ndarray:
    """Where each canonical bit of a pair sits in concatenate((b,
    P.ravel())): b[i] at i, the upper-triangle entry (r, c) at m + r m + c.
    Read-only."""
    rows, cols = _triu_coords(m)
    flat = np.concatenate([np.arange(m), m + rows * m + cols])
    flat.setflags(write=False)
    return flat


def unpack_bits(P: np.ndarray, b: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The pair's canonical bits at the given positions, in their order."""
    P, b = _as_pairs(P, b)
    return _gather_bits(P, b, _flat_positions(b.shape[-1])[positions])


def _gather_bits(P: np.ndarray, b: np.ndarray, flat_index: np.ndarray) -> np.ndarray:
    """unpack_bits unchecked, taking flat indices into concatenate((b,
    P.ravel())) (_flat_positions) instead of canonical positions."""
    return np.concatenate((b, P.reshape(P.shape[:-2] + (-1,))), axis=-1)[..., flat_index]
