"""Sequence codec unit tests: sample generation against a brute-force
reference, the half-length layer structure, the transform, and the bit
packing conventions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmaccess.rm_codec import (
    BitLayout,
    RmPair,
    binary_index,
    bits_to_int,
    bits_to_pair,
    bits_to_pair_batch,
    pack_bits,
    pair_to_bits,
    rm_samples,
    rm_samples_batch,
    subsequence_factor,
    unpack_bits,
    walsh_factor,
    wht,
)


def reference_samples(P, b):
    # definition written out the slow way, pure python ints
    m = len(b)
    out = []
    for n in range(1, 2**m + 1):
        a = [((n - 1) >> (m - 1 - t)) & 1 for t in range(m)]
        quad = sum(int(P[i][j]) * a[i] * a[j] for i in range(m) for j in range(m))
        lin = sum(int(b[i]) * a[i] for i in range(m))
        out.append(1j ** ((2 * lin + quad) % 4))
    return np.array(out)


def einsum_samples_batch(Ps, bs):
    # the m^2 quadratic-form evaluation that rm_samples_batch replaced
    Ps = np.asarray(Ps, dtype=np.int64)
    bs = np.asarray(bs, dtype=np.int64)
    m = bs.shape[1]
    A = ((np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(np.int64)
    quad = np.einsum("ni,kij,nj->kn", A, Ps, A)
    return np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])[(2 * (bs @ A.T) + quad) & 3]


def random_pair(rng, m):
    P = rng.integers(0, 2, size=(m, m), dtype=np.uint8)
    P = np.triu(P)
    P = np.maximum(P, P.T)
    b = rng.integers(0, 2, size=m, dtype=np.uint8)
    return RmPair(P, b)


def test_binary_index_examples():
    assert binary_index(3, 2).tolist() == [1, 1]
    assert binary_index(1, 2).tolist() == [0, 1]
    assert binary_index(0, 3).tolist() == [0, 0, 0]
    assert binary_index(5, 4).tolist() == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        binary_index(4, 2)
    with pytest.raises(ValueError):
        binary_index(-1, 2)


def test_bits_to_int_inverts_binary_index():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = int(rng.integers(1, 12))
        n = int(rng.integers(0, 1 << s))
        assert bits_to_int(binary_index(n, s)) == n


def test_sequences_by_hand():
    # m=1: P=[[1]], b=[1]; n=2 has a=[1], exponent 2*1+1=3, so -i
    np.testing.assert_array_equal(
        rm_samples(np.array([[1]]), np.array([1])), np.array([1, -1j])
    )
    # m=2: pure off-diagonal P, zero b
    np.testing.assert_array_equal(
        rm_samples(np.array([[0, 1], [1, 0]]), np.array([0, 0])),
        np.array([1, 1, 1, -1]),
    )
    np.testing.assert_array_equal(
        rm_samples(np.array([[0, 1], [1, 0]]), np.array([1, 0])),
        np.array([1, 1, -1, 1]),
    )


def test_samples_match_reference():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        pair = random_pair(rng, m)
        np.testing.assert_array_equal(rm_samples(pair.P, pair.b), reference_samples(pair.P, pair.b))


def test_samples_alphabet_and_codeword():
    rng = np.random.default_rng(2)
    pair = random_pair(rng, 5)
    word = rm_samples(pair.P, pair.b)
    assert word.shape == (32,) and word.dtype == np.complex128
    assert set(word.tolist()) <= {1, -1, 1j, -1j}


def test_rm_samples_batch_matches_single():
    rng = np.random.default_rng(3)
    pairs = [random_pair(rng, 5) for _ in range(20)]
    Ps = np.stack([p.P for p in pairs])
    bs = np.stack([p.b for p in pairs])
    batch = rm_samples_batch(Ps, bs)
    for k, pair in enumerate(pairs):
        np.testing.assert_array_equal(batch[k], rm_samples(pair.P, pair.b))


@st.composite
def pair_stacks(draw):
    m = draw(st.integers(1, 10))
    k = draw(st.integers(0, 6))
    upper = draw(arrays(np.uint8, (k, m, m), elements=st.integers(0, 1)))
    upper = np.triu(upper)
    bs = draw(arrays(np.uint8, (k, m), elements=st.integers(0, 1)))
    return upper | upper.transpose(0, 2, 1), bs


@settings(max_examples=60, deadline=None)
@given(pair_stacks())
@example((np.ones((3, 1, 1), np.uint8), np.array([[0], [1], [1]], np.uint8)))
@example((np.zeros((0, 1, 1), np.uint8), np.zeros((0, 1), np.uint8)))
@example((np.zeros((0, 10, 10), np.uint8), np.zeros((0, 10), np.uint8)))
def test_rm_samples_batch_recursion_matches_einsum(stack):
    Ps, bs = stack
    batch = rm_samples_batch(Ps, bs)
    assert batch.shape == (bs.shape[0], 1 << bs.shape[1])
    np.testing.assert_array_equal(batch, einsum_samples_batch(Ps, bs))
    for k in range(bs.shape[0]):
        np.testing.assert_array_equal(batch[k], rm_samples(Ps[k], bs[k]))


def test_rm_samples_batch_rejects_non_binary_P():
    Ps = np.zeros((2, 3, 3), np.int64)
    Ps[1, 1, 1] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        rm_samples_batch(Ps, np.zeros((2, 3), np.int64))
    Ps[1, 1, 1] = -1
    with pytest.raises(ValueError, match="0 or 1"):
        rm_samples_batch(Ps, np.zeros((2, 3), np.int64))


def test_rm_samples_batch_rejects_non_binary_b():
    bs = np.zeros((2, 3), np.int64)
    bs[0, 2] = 3
    with pytest.raises(ValueError, match="0 or 1"):
        rm_samples_batch(np.zeros((2, 3, 3), np.int64), bs)


def test_rm_samples_batch_rejects_asymmetric_P():
    # the recursion reads only the upper triangle, so a lower-triangle-only
    # entry would otherwise be silently dropped
    Ps = np.zeros((2, 3, 3), np.uint8)
    Ps[1, 2, 0] = 1
    with pytest.raises(ValueError, match="symmetric"):
        rm_samples_batch(Ps, np.zeros((2, 3), np.uint8))


def test_rm_samples_batch_rejects_shape_clash():
    with pytest.raises(ValueError):
        rm_samples_batch(np.zeros((2, 3, 3), np.uint8), np.zeros((2, 4), np.uint8))
    with pytest.raises(ValueError):
        rm_samples_batch(np.zeros((2, 3, 3), np.uint8), np.zeros((3, 3), np.uint8))


def test_layer_recursion_identity():
    """Odd positions of an order-s sequence reproduce the order-(s-1)
    truncation verbatim; even positions carry it times the Walsh factor."""
    rng = np.random.default_rng(4)
    for _ in range(300):
        m = int(rng.integers(2, 9))
        pair = random_pair(rng, m)
        for s in range(2, m + 1):
            X = rm_samples(pair.P[:s, :s], pair.b[:s])
            X_half = rm_samples(pair.P[: s - 1, : s - 1], pair.b[: s - 1])
            V, eta = subsequence_factor(pair, s)
            np.testing.assert_array_equal(eta, pair.P[: s - 1, s - 1])
            np.testing.assert_array_equal(X[0::2], X_half)
            np.testing.assert_array_equal(X[1::2], V * X_half)


def test_subsequence_factor_rejects_bad_layer():
    pair = random_pair(np.random.default_rng(5), 4)
    with pytest.raises(ValueError):
        subsequence_factor(pair, 1)
    with pytest.raises(ValueError):
        subsequence_factor(pair, 5)


def test_wht_small_examples():
    np.testing.assert_array_equal(wht(np.array([1.0, 1.0])), np.array([2, 0]))
    np.testing.assert_array_equal(wht(np.array([1.0, -1.0])), np.array([0, 2]))
    np.testing.assert_array_equal(
        wht(np.array([1.0, 1.0, 1.0, -1.0])), np.array([2, 2, 2, -2])
    )


def test_wht_matches_matrix_oracle():
    rng = np.random.default_rng(6)
    for width in (1, 2, 3, 4, 5, 6):
        n = 1 << width
        H = np.array([[(-1) ** bin(i & j).count("1") for j in range(n)] for i in range(n)])
        for _ in range(5):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ref = H @ x
            got = wht(x)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_wht_involution():
    rng = np.random.default_rng(7)
    for n in (2, 8, 64, 256):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = wht(wht(x)) / n
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


def test_wht_rejects_bad_lengths():
    with pytest.raises(ValueError):
        wht(np.ones(3))
    with pytest.raises(ValueError):
        wht(np.ones(0))
    with pytest.raises(ValueError):
        wht(np.ones((2, 2)))


def test_walsh_factor_transform_peak():
    # a Walsh function of frequency eta transforms to a single spike at eta
    rng = np.random.default_rng(8)
    for _ in range(30):
        width = int(rng.integers(1, 7))
        eta = rng.integers(0, 2, size=width, dtype=np.int64)
        V = walsh_factor(eta, 0, 0)
        t = wht(V)
        idx = int(np.argmax(np.abs(t)))
        assert binary_index(idx, width).tolist() == eta.tolist()
        assert abs(t[idx] - (1 << width)) < 1e-12


def test_pair_bits_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        pair = random_pair(rng, m)
        bits = pair_to_bits(pair)
        assert bits.size == m * (m + 3) // 2
        assert bits_to_pair(bits) == pair
    # and the other direction, bits first
    for _ in range(100):
        m = int(rng.integers(1, 8))
        bits = rng.integers(0, 2, size=m * (m + 3) // 2, dtype=np.uint8)
        np.testing.assert_array_equal(pair_to_bits(bits_to_pair(bits)), bits)


def test_bits_to_pair_batch_matches_single():
    rng = np.random.default_rng(10)
    mat = rng.integers(0, 2, size=(15, 5 * 8 // 2), dtype=np.uint8)
    Ps, bs = bits_to_pair_batch(mat)
    for k in range(15):
        single = bits_to_pair(mat[k])
        np.testing.assert_array_equal(Ps[k], single.P)
        np.testing.assert_array_equal(bs[k], single.b)


def test_bits_to_pair_rejects_bad_length():
    with pytest.raises(ValueError):
        bits_to_pair(np.zeros(6, dtype=np.uint8))  # no m solves m(m+3)/2 = 6


def test_pair_validation():
    with pytest.raises(ValueError):
        RmPair(np.array([[0, 1], [0, 0]]), np.zeros(2, np.uint8))  # asymmetric
    with pytest.raises(ValueError):
        RmPair(np.array([[2]]), np.array([0]))  # non-binary
    with pytest.raises(ValueError):
        RmPair(np.zeros((2, 2), np.uint8), np.zeros(3, np.uint8))  # shape clash


def test_async_layout_partitions_all_positions():
    for m, p in ((2, 1), (4, 2), (6, 6), (8, 3)):
        layout = BitLayout.asynchronous(m, p)
        total = m * (m + 3) // 2
        groups = [layout.reserved_pos, (layout.check_pos,), layout.translate_pos, layout.payload_pos]
        flat = [q for g in groups for q in g]
        assert sorted(flat) == list(range(total))
        assert layout.reserved_pos == (m - 1, total - 1)
        assert layout.check_pos == m - 2
        assert len(layout.translate_pos) == p
        assert layout.payload_size == total - 3 - p


def test_sync_layout_is_all_payload():
    layout = BitLayout.synchronous(6, 2)
    assert layout.check_pos is None
    assert layout.reserved_pos == ()
    assert layout.translate_pos == ()
    assert layout.payload_pos == tuple(range(27))


def test_layout_rejects_oversized_translate():
    with pytest.raises(ValueError):
        BitLayout.asynchronous(3, 4)  # only 3 off-diagonal slots at m=3


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(11)
    layout = BitLayout.asynchronous(6, 3)
    for _ in range(50):
        payload = rng.integers(0, 2, size=layout.payload_size, dtype=np.uint8)
        translate = rng.integers(0, 2, size=3, dtype=np.uint8)
        secondary = bool(rng.integers(0, 2))
        pair = pack_bits(payload, translate, secondary, layout)
        got_payload, got_translate, got_secondary = unpack_bits(pair, layout)
        np.testing.assert_array_equal(got_payload, payload)
        np.testing.assert_array_equal(got_translate, translate)
        assert got_secondary == secondary


def test_copies_differ_only_in_check_bit():
    rng = np.random.default_rng(12)
    layout = BitLayout.asynchronous(5, 2)
    payload = rng.integers(0, 2, size=layout.payload_size, dtype=np.uint8)
    translate = np.array([1, 0], np.uint8)
    primary = pair_to_bits(pack_bits(payload, translate, False, layout))
    secondary = pair_to_bits(pack_bits(payload, translate, True, layout))
    diff = np.flatnonzero(primary != secondary)
    assert diff.tolist() == [layout.check_pos]


def test_pack_exhaustive_small_layout():
    # m=3, p=1: every field combination maps to a distinct pair and back
    layout = BitLayout.asynchronous(3, 1)
    seen = set()
    for payload_val in range(1 << layout.payload_size):
        payload = binary_index(payload_val, layout.payload_size)
        for tr in range(2):
            for sec in (False, True):
                pair = pack_bits(payload, np.array([tr], np.uint8), sec, layout)
                seen.add(pair.key())
                got = unpack_bits(pair, layout)
                assert bits_to_int(got[0]) == payload_val
                assert int(got[1][0]) == tr
                assert got[2] == sec
    assert len(seen) == (1 << layout.payload_size) * 2 * 2


def test_pack_rejects_wrong_sizes():
    layout = BitLayout.asynchronous(4, 2)
    with pytest.raises(ValueError):
        pack_bits(np.zeros(3, np.uint8), np.zeros(2, np.uint8), False, layout)
    with pytest.raises(ValueError):
        pack_bits(np.zeros(layout.payload_size, np.uint8), np.zeros(1, np.uint8), False, layout)
    sync = BitLayout.synchronous(4, 2)
    with pytest.raises(ValueError):
        # no check bit to set in the single-copy layout
        pack_bits(np.zeros(sync.payload_size, np.uint8), np.zeros(0, np.uint8), True, sync)


def test_unpack_warns_on_reserved_bits():
    layout = BitLayout.asynchronous(4, 1)
    bits = np.zeros(layout.total_bits, dtype=np.uint8)
    bits[layout.reserved_pos[0]] = 1
    with pytest.warns(UserWarning):
        unpack_bits(bits_to_pair(bits), layout)
