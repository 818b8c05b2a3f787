"""Slow reference implementations the tests check the package against: the
Reed-Muller quadratic form evaluated over a table of bit vectors, the Walsh
factor from its definition, the Walsh-Hadamard transform as radix-2
butterflies, the noise-free slot built through the time domain and as one
unblocked einsum, and the segment layout written out field by field with a
one-pair encoder on it.  A pair is a tuple (P, b) of uint8 arrays, as the
package carries it."""

import math

import numpy as np

from rmaccess.geometry_channel import _check_stack

IOTA_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def bit_table(width):
    """Rows 0..2**width-1 as width-bit int64 vectors, MSB first."""
    idx = np.arange(1 << width, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] >> shifts[None, :]) & 1


def einsum_samples_batch(Ps, bs):
    """Samples i**(2 b'a + a'Pa) of stacked pairs, (k, 2**m), through the
    m x m quadratic form over every bit vector a."""
    Ps = np.asarray(Ps, dtype=np.int64)
    bs = np.asarray(bs, dtype=np.int64)
    A = bit_table(bs.shape[1])
    quad = np.einsum("ni,kij,nj->kn", A, Ps, A)
    return IOTA_POW[(2 * (bs @ A.T) + quad) & 3]


def bits_value(bits):
    """A bit vector read MSB-first as a Python int, one bit at a time."""
    value = 0
    for bit in bits:
        assert bit in (0, 1), f"not a bit: {bit}"
        value = 2 * value + int(bit)
    return value


def bit_table_walsh_factor(eta, b_bit, beta_bit):
    """i**(2 b + beta + 2 eta'a) over the rows a of the bit table."""
    A = bit_table(len(eta))
    expo = (2 * int(b_bit) + int(beta_bit) + 2 * (A @ np.asarray(eta, dtype=np.int64))) & 3
    return IOTA_POW[expo]


def radix2_wht(x):
    """Walsh-Hadamard transform by in-place radix-2 butterflies, pairs at
    distance 1, 2, 4, ... in turn."""
    out = np.array(x, dtype=np.complex128)
    h = 1
    while h < out.size:
        blocks = out.reshape(-1, 2 * h)
        even = blocks[:, :h].copy()
        odd = blocks[:, h:].copy()
        blocks[:, :h] = even + odd
        blocks[:, h:] = even - odd
        h *= 2
    return out


def time_domain_reference(
    X: np.ndarray,
    h: np.ndarray,
    tau: np.ndarray,
    delta_f: float,
    tau_max: float,
    gamma: float,
) -> np.ndarray:
    """Noise-free observation of one slot built through the time domain.

    X (k, n), h (k, r) and tau (k,) as in synthesize_slot, with tau in
    seconds.  The continuous-time superposition
    sum_n X(n) e**(2 pi i n delta_f (t - tau)) is sampled at
    t_u = u / (N delta_f) for u = 1..N+M, the first M = ceil(tau_max N
    delta_f) prefix samples are discarded, and the retained block is
    projected onto the subcarriers with the absolute sample index in the
    kernel,

        Y[n'] = (1/N) sum_{u=M+1}^{M+N} y(t_u) e**(-2 pi i n' u / N),

    which lands exactly on the frequency-domain model for any tau within
    [0, tau_max].  A tau outside that window violates the prefix model and
    raises.
    """
    if delta_f <= 0:
        raise ValueError("delta_f must be positive")
    if tau_max < 0:
        raise ValueError("tau_max must be nonnegative")
    X, h, tau = np.asarray(X), np.asarray(h), np.asarray(tau, dtype=np.float64)
    _check_stack(X, h, tau)
    if ((tau < 0) | (tau > tau_max)).any():
        raise ValueError(f"delays {tau} leave the prefix window [0, {tau_max}]")
    n = X.shape[1]
    m_cp = math.ceil(tau_max * n * delta_f)
    u = np.arange(1, n + m_cp + 1)
    t = u / (n * delta_f)
    n_idx = np.arange(1, n + 1)
    # carriers[k, n, u] = e**(2 pi i n delta_f (t_u - tau_k))
    carriers = np.exp(2j * math.pi * delta_f * n_idx[:, None] * (t - tau[:, None, None]))
    waves = np.einsum("kn,knu->ku", X, carriers)
    retained = math.sqrt(gamma) * np.einsum("kl,ku->lu", h, waves)[:, m_cp:]
    kernel = np.exp(-2j * math.pi * np.outer(n_idx, u[m_cp:]) / n) / n
    return retained @ kernel.T


def einsum_synthesis(X, h, delta, gamma):
    """Noise-free observation of one slot as one einsum over all devices,
    sqrt(gamma) * einsum("kl,kn->ln", h, X * e**(-i delta n)), n = 1..N,
    with the ramp evaluated even for zero delays."""
    X, h, delta = np.asarray(X), np.asarray(h), np.asarray(delta)
    _check_stack(X, h, delta)
    X = X * np.exp(-1j * np.outer(delta, np.arange(1, X.shape[1] + 1)))
    return math.sqrt(gamma) * np.einsum("kl,kn->ln", h, X)


def async_layout(m, p):
    """Canonical pair-bit positions of the asynchronous segment fields:
    (check, reserved, translate, payload).

    b[m-1] and P[m-1, m-1] are reserved zeros, b[m-2] is the copy check
    bit, the p translate bits take the first p off-diagonal positions of P
    in row-major upper-triangle order, and the payload takes everything
    else in ascending order.
    """
    m = int(m)
    p = int(p)
    if m < 2:
        raise ValueError("asynchronous layout needs m >= 2")
    total = m * (m + 3) // 2
    if not 0 <= p <= m * (m - 1) // 2:
        raise ValueError(f"a {p}-bit translate does not fit at m={m}")
    rows, cols = np.triu_indices(m)
    off_diag = [m + t for t in range(rows.size) if rows[t] != cols[t]]
    translate = tuple(off_diag[:p])
    reserved = (m - 1, total - 1)
    check = m - 2
    taken = set(translate) | set(reserved) | {check}
    payload = tuple(q for q in range(total) if q not in taken)
    return check, reserved, translate, payload


def pair_from_bits(bits):
    """The pair (P, b) of a canonical bit string, entry by entry: b first,
    then the upper triangle of P (diagonal included) row by row."""
    bits = [int(x) for x in bits]
    m = 1
    while m * (m + 3) // 2 < len(bits):
        m += 1
    assert m * (m + 3) // 2 == len(bits), "not a canonical bit-string length"
    P = np.zeros((m, m), dtype=np.uint8)
    rest = iter(bits[m:])
    for i in range(m):
        for j in range(i, m):
            P[i, j] = P[j, i] = next(rest)
    return P, np.array(bits[:m], dtype=np.uint8)


def segment_pair(segment, frame, secondary=False):
    """Transmit pair (P, b) of one copy of one sub-block segment, placed field by
    field: the reference for the pairs of access_pipeline.transmissions, whose
    copy c is secondary=bool(c).  The first p segment bits are the slot
    index and stay off the air."""
    m, p = frame.m, frame.p
    segment = np.asarray(segment, dtype=np.uint8)
    assert segment.shape == (frame.segment_bits,)
    bits = np.zeros(m * (m + 3) // 2, dtype=np.uint8)
    if frame.synchronous:
        assert not secondary, "the synchronous scheme sends a single copy"
        bits[:] = segment[p:]
    else:
        check, _, translate, payload = async_layout(m, p)
        bits[list(translate)] = segment[p : 2 * p]
        bits[list(payload)] = segment[2 * p :]
        bits[check] = secondary
    return pair_from_bits(bits)
