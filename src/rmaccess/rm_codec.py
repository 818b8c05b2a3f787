"""Second-order Reed-Muller sequence codec.

A sequence of length 2**m over {1, -1, i, -i} is identified by a symmetric
binary m x m matrix P and a binary m-vector b: sample n (1-based) equals
i**(2*b'a + a'Pa) where a is the m-bit binary expression of n - 1.  Each
sequence is two interleaved copies of a shorter one, the even-position copy
modulated by a Walsh function whose frequency is the last off-diagonal
column of P.  This module exposes that half-length subsequence structure,
builds stacks of sequences through it layer by layer in O(2**m) per
sequence, provides the fast Walsh-Hadamard transform the detector uses to
locate the frequency, and packs message fields into pairs and back.

Bit-vector convention used everywhere: the LAST component of a bit vector is
the least significant bit, i.e. vectors read MSB-first.  The subsequence
recursion (odd positions of X are X_half verbatim) forces this ordering.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RmPair",
    "BitLayout",
    "binary_index",
    "bits_to_int",
    "rm_samples",
    "rm_samples_batch",
    "subsequence_factor",
    "walsh_factor",
    "wht",
    "pair_to_bits",
    "bits_to_pair",
    "bits_to_pair_batch",
    "pack_bits",
    "unpack_bits",
]

# i**k lookup; exponents are always reduced mod 4 before indexing.
_IOTA_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


@lru_cache(maxsize=None)
def _bit_table(width: int) -> np.ndarray:
    """Rows 0..2**width-1 as width-bit vectors, MSB first. Read-only."""
    idx = np.arange(1 << width, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    table = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int64)
    table.setflags(write=False)
    return table


def binary_index(n: int, s: int) -> np.ndarray:
    """s-bit binary expression of n, most significant bit first.

    binary_index(3, 2) == [1, 1]; binary_index(1, 2) == [0, 1].
    Raises ValueError unless 0 <= n < 2**s.
    """
    n = int(n)
    s = int(s)
    if s < 0:
        raise ValueError(f"bit width must be nonnegative, got {s}")
    if not 0 <= n < (1 << s):
        raise ValueError(f"index {n} does not fit in {s} bits")
    shifts = np.arange(s - 1, -1, -1, dtype=np.int64)
    return ((n >> shifts) & 1).astype(np.uint8)


def bits_to_int(bits: np.ndarray) -> int:
    """Inverse of binary_index: MSB-first bit vector to integer."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        raise ValueError("expected a 1-D bit vector")
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value


@dataclass(frozen=True, eq=False)
class RmPair:
    """Matrix-vector identity of a second-order Reed-Muller sequence.

    P is symmetric binary m x m, b is binary length m.  Together they carry
    m(m+3)/2 bits.  A pair used for transmission in the asynchronous scheme
    additionally has b[m-1] = P[m-1, m-1] = 0 (enforced by BitLayout, not
    here; the detector relies on it to read timing off the top layer).
    """

    P: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        P = np.ascontiguousarray(np.asarray(self.P, dtype=np.uint8))
        b = np.ascontiguousarray(np.asarray(self.b, dtype=np.uint8))
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be a nonempty vector")
        if P.shape != (b.size, b.size):
            raise ValueError(f"P must be {b.size} x {b.size}, got {P.shape}")
        if P.max(initial=0) > 1 or b.max(initial=0) > 1:
            raise ValueError("P and b entries must be 0 or 1")
        if not np.array_equal(P, P.T):
            raise ValueError("P must be symmetric")
        P.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.b.size

    def key(self) -> bytes:
        return self.b.tobytes() + self.P.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RmPair):
            return NotImplemented
        return self.m == other.m and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


def rm_samples(P: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sample vector of the sequence identified by (P, b), as a raw array.

    samples[n-1] = i**(2*b'a + a'Pa) with a = binary_index(n-1, m).
    Exact complex values from a lookup table, no trig.
    """
    b = np.asarray(b, dtype=np.int64)
    P = np.asarray(P, dtype=np.int64)
    m = b.size
    A = _bit_table(m)
    quad = np.einsum("ni,ij,nj->n", A, P, A)
    expo = (2 * (A @ b) + quad) & 3
    return _IOTA_POW[expo]


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
def _column_weights(m: int) -> np.ndarray:
    """weights[i, w] = 2**(w-1-i) above the diagonal, else 0: column w of P
    dotted with it is P[:w, w] read MSB-first as an integer. Read-only."""
    i = np.arange(m)[:, None]
    w = np.arange(m)[None, :]
    weights = np.where(i < w, 1 << np.maximum(w - 1 - i, 0), 0)
    weights.setflags(write=False)
    return weights


def rm_samples_batch(Ps: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """rm_samples for a stack of pairs: Ps (k, m, m), bs (k, m) -> (k, 2**m).

    Built through the layer recursion on uint8 exponents, O(2**m) per pair:
    E_s = interleave(E_{s-1}, E_{s-1} + 2*b[s-1] + P[s-1, s-1]
    + 2*parity(n' & eta_s)) mod 4, with eta_s = P[:s-1, s-1] read MSB-first,
    so only the upper triangle of P is read; P must be symmetric.
    """
    Ps = np.asarray(Ps)
    bs = np.asarray(bs)
    if Ps.ndim != 3 or bs.ndim != 2 or Ps.shape[0] != bs.shape[0]:
        raise ValueError("expected stacked pairs of matching leading dimension")
    k, m = bs.shape
    if m < 1 or Ps.shape[1:] != (m, m):
        raise ValueError(f"expected nonempty b rows and {m} x {m} P matrices, got {Ps.shape[1:]}")
    if ((Ps != 0) & (Ps != 1)).any() or ((bs != 0) & (bs != 1)).any():
        raise ValueError("P and b entries must be 0 or 1")
    if (Ps != Ps.transpose(0, 2, 1)).any():
        raise ValueError("P must be symmetric")
    Ps = Ps.astype(np.uint8)
    shifts = 2 * bs.astype(np.uint8) + Ps.diagonal(axis1=1, axis2=2)
    etas = np.einsum("kiw,iw->wk", Ps, _column_weights(m))
    expo = np.zeros((k, 1), dtype=np.uint8)
    for w in range(m):  # layer s = w + 1 appends the bit a[w]
        idx, twice_parity = _walsh_table(w)
        odd = twice_parity[idx & etas[w, :, None]]
        odd += expo
        odd += shifts[:, w, None]
        nxt = np.empty((k, 2 << w), dtype=np.uint8)
        nxt[:, 0::2] = expo
        np.bitwise_and(odd, 3, out=nxt[:, 1::2])
        expo = nxt
    return _IOTA_POW[expo]


def walsh_factor(eta: np.ndarray, b_bit: int, beta_bit: int) -> np.ndarray:
    """Modulation factor V relating a sequence's even positions to its half.

    V[n-1] = i**(2*b_bit + beta_bit + 2*eta'a) over a = binary_index(n-1, s-1),
    a Walsh function of frequency eta times a fixed fourth root of unity.
    """
    eta = np.asarray(eta, dtype=np.int64)
    if eta.ndim != 1:
        raise ValueError("eta must be a 1-D bit vector")
    A = _bit_table(eta.size)
    expo = (2 * int(b_bit) + int(beta_bit) + 2 * (A @ eta)) & 3
    return _IOTA_POW[expo]


def subsequence_factor(pair: RmPair, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Walsh factor and frequency linking layer s to layer s-1 of a pair.

    For X the sequence of the order-s truncation of `pair` and X_half the
    sequence of its order-(s-1) truncation:

        X[1::2] == V * X_half      (0-based even python indices are odd n)
        X[0::2] == X_half

    where (V, eta) is the return value, eta = P[:s-1, s-1], and V depends on
    b[s-1] and P[s-1, s-1] as in walsh_factor.
    """
    s = int(s)
    if not 2 <= s <= pair.m:
        raise ValueError(f"layer must satisfy 2 <= s <= {pair.m}, got {s}")
    eta = pair.P[: s - 1, s - 1].copy()
    V = walsh_factor(eta, pair.b[s - 1], pair.P[s - 1, s - 1])
    return V, eta


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
    out = arr.astype(np.complex128, copy=True)
    h = 1
    while h < n:
        blocks = out.reshape(-1, 2 * h)
        even = blocks[:, :h].copy()
        odd = blocks[:, h:].copy()
        blocks[:, :h] = even + odd
        blocks[:, h:] = even - odd
        h *= 2
    return out


@lru_cache(maxsize=None)
def _triu_coords(m: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(m)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def pair_to_bits(pair: RmPair) -> np.ndarray:
    """Canonical bit string of a pair: b, then the upper triangle of P
    (diagonal included) row by row.  Length m(m+3)/2."""
    rows, cols = _triu_coords(pair.m)
    return np.concatenate([pair.b, pair.P[rows, cols]])


def _order_from_total(total: int) -> int:
    # solve m(m+3)/2 = total
    m = int((-3 + np.sqrt(9 + 8 * total)) / 2 + 0.5)
    if m < 1 or m * (m + 3) // 2 != total:
        raise ValueError(f"{total} is not a valid canonical bit-string length")
    return m


def bits_to_pair(bits: np.ndarray) -> RmPair:
    """Inverse of pair_to_bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("expected a 1-D bit vector")
    m = _order_from_total(bits.size)
    b = bits[:m].copy()
    P = np.zeros((m, m), dtype=np.uint8)
    rows, cols = _triu_coords(m)
    P[rows, cols] = bits[m:]
    P = np.maximum(P, P.T)
    return RmPair(P, b)


def bits_to_pair_batch(bit_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched bits_to_pair on rows: (k, m(m+3)/2) -> Ps (k, m, m), bs (k, m)."""
    bit_matrix = np.asarray(bit_matrix, dtype=np.uint8)
    if bit_matrix.ndim != 2:
        raise ValueError("expected a 2-D bit matrix")
    m = _order_from_total(bit_matrix.shape[1])
    bs = bit_matrix[:, :m].copy()
    Ps = np.zeros((bit_matrix.shape[0], m, m), dtype=np.uint8)
    rows, cols = _triu_coords(m)
    Ps[:, rows, cols] = bit_matrix[:, m:]
    Ps = np.maximum(Ps, Ps.transpose(0, 2, 1))
    return Ps, bs


@dataclass(frozen=True)
class BitLayout:
    """Fixed placement of message fields inside a pair's canonical bit string.

    Positions index the canonical order of pair_to_bits.  The asynchronous
    layout reserves b[m-1] and P[m-1, m-1] as zeros (the detector reads
    timing off the top layer instead of data), spends b[m-2] on the copy
    check bit, puts the p translate bits on the first p off-diagonal
    positions of P in row-major upper-triangle order, and leaves everything
    else to payload.  The synchronous layout has no reserved or check bits
    and every position is payload.  The placement itself is a convention;
    encoder and decoder only need to agree on it.
    """

    m: int
    p: int
    check_pos: int | None
    reserved_pos: tuple[int, ...]
    translate_pos: tuple[int, ...]
    payload_pos: tuple[int, ...]

    @property
    def total_bits(self) -> int:
        return self.m * (self.m + 3) // 2

    @property
    def payload_size(self) -> int:
        return len(self.payload_pos)

    @classmethod
    def asynchronous(cls, m: int, p: int) -> "BitLayout":
        m = int(m)
        p = int(p)
        if m < 2:
            raise ValueError("asynchronous layout needs m >= 2")
        total = m * (m + 3) // 2
        if not 0 <= p <= m * (m - 1) // 2:
            raise ValueError(
                f"translate field of {p} bits does not fit the {m*(m-1)//2} "
                f"off-diagonal positions at m={m}"
            )
        if p > total - 3:
            raise ValueError(f"p={p} exceeds the {total - 3} free bits at m={m}")
        rows, cols = _triu_coords(m)
        off_diag = [m + t for t in range(rows.size) if rows[t] != cols[t]]
        translate = tuple(off_diag[:p])
        reserved = (m - 1, total - 1)
        check = m - 2
        taken = set(translate) | set(reserved) | {check}
        payload = tuple(q for q in range(total) if q not in taken)
        return cls(m, p, check, reserved, translate, payload)

    @classmethod
    def synchronous(cls, m: int, p: int) -> "BitLayout":
        m = int(m)
        p = int(p)
        if m < 2:
            raise ValueError("layout needs m >= 2")
        if p < 0:
            raise ValueError("p must be nonnegative")
        total = m * (m + 3) // 2
        return cls(m, p, None, (), (), tuple(range(total)))


def pack_bits(
    payload: np.ndarray,
    translate: np.ndarray,
    is_secondary: bool,
    layout: BitLayout,
) -> RmPair:
    """Build the transmit pair for one copy of a message.

    payload fills the layout's payload positions, translate its translate
    positions, the check bit records which copy this is, and reserved
    positions stay zero.  The two copies of a message differ in exactly the
    check-bit position.
    """
    payload = np.asarray(payload, dtype=np.uint8)
    translate = np.asarray(translate, dtype=np.uint8)
    if payload.shape != (len(layout.payload_pos),):
        raise ValueError(
            f"payload must have {len(layout.payload_pos)} bits, got {payload.shape}"
        )
    if translate.shape != (len(layout.translate_pos),):
        raise ValueError(
            f"translate must have {len(layout.translate_pos)} bits, got {translate.shape}"
        )
    if payload.max(initial=0) > 1 or translate.max(initial=0) > 1:
        raise ValueError("payload and translate entries must be 0 or 1")
    bits = np.zeros(layout.total_bits, dtype=np.uint8)
    if layout.payload_pos:
        bits[list(layout.payload_pos)] = payload
    if layout.translate_pos:
        bits[list(layout.translate_pos)] = translate
    if is_secondary:
        if layout.check_pos is None:
            raise ValueError("this layout has no check bit; only one copy exists")
        bits[layout.check_pos] = 1
    return bits_to_pair(bits)


def unpack_bits(pair: RmPair, layout: BitLayout) -> tuple[np.ndarray, np.ndarray, bool]:
    """Read (payload, translate, is_secondary) back out of a pair.

    Nonzero reserved bits cannot come from pack_bits; they are reported with
    a warning rather than an error because a detector estimate may contain
    them and the caller decides what to do with the rest of the fields.
    """
    if pair.m != layout.m:
        raise ValueError(f"pair order {pair.m} does not match layout order {layout.m}")
    bits = pair_to_bits(pair)
    if layout.reserved_pos and bits[list(layout.reserved_pos)].any():
        warnings.warn("reserved bits are nonzero; not a valid transmit pair", stacklevel=2)
    payload = bits[list(layout.payload_pos)].copy() if layout.payload_pos else np.zeros(0, np.uint8)
    translate = (
        bits[list(layout.translate_pos)].copy() if layout.translate_pos else np.zeros(0, np.uint8)
    )
    is_secondary = bool(bits[layout.check_pos]) if layout.check_pos is not None else False
    return payload, translate, is_secondary
