"""Second-order Reed-Muller sequence codec.

A sequence of length 2**m over {1, -1, i, -i} is identified by a symmetric
binary m x m matrix P and a binary m-vector b: sample n (1-based) equals
i**(2*b'a + a'Pa) where a is the m-bit binary expression of n - 1.  Each
sequence is two interleaved copies of a shorter one, the even-position copy
modulated by a Walsh function whose frequency is the last off-diagonal
column of P.  rm_samples_batch is the one sequence builder: it runs that
recursion layer by layer in O(2**m) per sequence, and rm_samples is its
batch of one.  walsh_factor gives the modulating factor of one layer from
its frequency as an integer, wht is the fast Walsh-Hadamard transform whose
peak index is that frequency, and the rest converts pairs to and from their
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
    "binary_index",
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


def binary_index(n: int, s: int) -> np.ndarray:
    """s-bit binary expression of n, most significant bit first.

    binary_index(3, 2) == [1, 1]; binary_index(1, 2) == [0, 1].
    Raises ValueError unless 0 <= n < 2**s.
    """
    n, s = int(n), int(s)
    if s < 0 or not 0 <= n < (1 << s):
        raise ValueError(f"index {n} does not fit in {s} bits")
    shifts = np.arange(s - 1, -1, -1, dtype=np.int64)
    return ((n >> shifts) & 1).astype(np.uint8)


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
def _column_weights(m: int) -> np.ndarray:
    """weights[i, w] = 2**(w-1-i) above the diagonal, else 0: column w of P
    dotted with it is P[:w, w] read MSB-first as an integer. Read-only."""
    i = np.arange(m)[:, None]
    w = np.arange(m)[None, :]
    weights = np.where(i < w, 1 << np.maximum(w - 1 - i, 0), 0)
    weights.setflags(write=False)
    return weights


def rm_samples_batch(Ps: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Sample vectors of a stack of pairs: Ps (k, m, m), bs (k, m) -> (k, 2**m).

    The package's one sequence builder, through the layer recursion on
    uint8 exponents, O(2**m) per pair:
    E_s = interleave(E_{s-1}, E_{s-1} + 2*b[s-1] + P[s-1, s-1]
    + 2*parity(n' & eta_s)) mod 4, with eta_s = P[:s-1, s-1] read MSB-first,
    so only the upper triangle of P is read; P must be symmetric.
    """
    if np.ndim(bs) != 2:
        raise ValueError("expected a stack of pairs, bs of shape (k, m)")
    Ps, bs = _as_pairs(Ps, bs)
    k, m = bs.shape
    shifts = (2 * bs + Ps.diagonal(axis1=1, axis2=2)).T[:, :, None]
    etas = np.einsum("kiw,iw->wk", Ps, _column_weights(m))[:, :, None]
    # a layer adds at most 5 and uint8 wraps at a multiple of 4, so the
    # mod 4 waits for the last layer; layer 1 is [0, shift]
    expo = np.zeros((k, 2), dtype=np.uint8)
    expo[:, 1] = shifts[0, :, 0]
    for w in range(1, m):  # layer s = w + 1 appends the bit a[w]
        idx, twice_parity = _walsh_table(w)
        odd = twice_parity[idx & etas[w]]
        odd += expo
        odd += shifts[w]
        nxt = np.empty((k, 2 << w), dtype=np.uint8)
        nxt[:, 0::2] = expo
        nxt[:, 1::2] = odd
        expo = nxt
    return _IOTA_POW[expo & 3]


def rm_samples(P: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sample vector of the sequence identified by (P, b), as a raw array:
    rm_samples_batch of the one pair.

    samples[n-1] = i**(2*b'a + a'Pa) with a = binary_index(n-1, m).
    Exact complex values from a lookup table, no trig.
    """
    return rm_samples_batch(np.asarray(P)[None], np.asarray(b)[None])[0]


def walsh_factor(freq: int, width: int, b_bit: int, beta_bit: int) -> np.ndarray:
    """Modulation factor V relating a sequence's even positions to its half.

    V[n-1] = i**(2*b_bit + beta_bit + 2*eta'a) over a = binary_index(n-1, width)
    with eta = binary_index(freq, width): a Walsh function of frequency freq
    times a fixed fourth root of unity.  For a pair (P, b), the order-s
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
    # Constant geometry: each pass writes the sums of adjacent entries to
    # the first half and their differences to the second, so every output
    # is the same chain of additions as radix-2 butterflies in place.
    src = arr.astype(np.complex128, copy=True)
    dst = np.empty_like(src)
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


def unpack_bits(P: np.ndarray, b: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The pair's canonical bits at the given positions, in their order."""
    return pair_to_bits(P, b)[..., positions]
