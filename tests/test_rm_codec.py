"""Sequence codec unit tests: sample generation against a brute-force
reference, the half-length layer structure, the transform, and the bit
packing conventions: canonical bit strings, and the segment layout of
access_pipeline.FrameConfig against the field-by-field oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmaccess.access_pipeline import FrameConfig, segment_pair_bits
from rmaccess.rm_codec import (
    RmPair,
    binary_index,
    bits_to_int,
    bits_to_pair_batch,
    pair_to_bits,
    rm_samples,
    rm_samples_batch,
    unpack_bits,
    walsh_factor,
    wht,
)
from oracles import (
    async_layout,
    bit_table_walsh_factor,
    einsum_samples_batch,
    pair_from_bits,
    radix2_wht,
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
    m = draw(st.integers(1, 14))
    k = draw(st.integers(0, 6))
    upper = draw(arrays(np.uint8, (k, m, m), elements=st.integers(0, 1)))
    upper = np.triu(upper)
    bs = draw(arrays(np.uint8, (k, m), elements=st.integers(0, 1)))
    return upper | upper.transpose(0, 2, 1), bs


def fixed_stack(m, k):
    rng = np.random.default_rng(m)
    upper = np.triu(rng.integers(0, 2, size=(k, m, m), dtype=np.uint8))
    return upper | upper.transpose(0, 2, 1), rng.integers(0, 2, size=(k, m), dtype=np.uint8)


@settings(max_examples=60, deadline=None)
@given(pair_stacks())
@example(fixed_stack(11, 3))
@example(fixed_stack(12, 2))
@example(fixed_stack(13, 2))
@example(fixed_stack(14, 2))
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
            V = walsh_factor(pair.P[: s - 1, s - 1], pair.b[s - 1], pair.P[s - 1, s - 1])
            np.testing.assert_array_equal(X[0::2], X_half)
            np.testing.assert_array_equal(X[1::2], V * X_half)


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


@pytest.mark.parametrize("width", range(14))
def test_wht_matches_radix2_butterflies_bit_for_bit(width):
    rng = np.random.default_rng(width)
    n = 1 << width
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x[:3] = [complex(-0.0, 0.0), complex(np.inf, 1.0), np.nan][:n]  # signed zero, inf, NaN
    assert wht(x).tobytes() == radix2_wht(x).tobytes()
    real = rng.standard_normal(n)
    assert wht(real).tobytes() == radix2_wht(real).tobytes()


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


@st.composite
def walsh_frequencies(draw):
    width = draw(st.integers(0, 13))
    return draw(arrays(np.uint8, width, elements=st.integers(0, 1)))


@settings(max_examples=60, deadline=None)
@given(walsh_frequencies())
@example(np.zeros(0, np.uint8))
@example(np.ones(13, np.uint8))
def test_walsh_factor_matches_bit_table_definition(eta):
    for b_bit in (0, 1):
        for beta_bit in (0, 1):
            np.testing.assert_array_equal(
                walsh_factor(eta, b_bit, beta_bit), bit_table_walsh_factor(eta, b_bit, beta_bit)
            )


def test_walsh_factor_rejects_non_bits():
    # a Walsh frequency is a vector of bits
    for eta in ([0, 2], [[1, 0]], [-1]):
        with pytest.raises(ValueError):
            walsh_factor(eta, 0, 0)
    with pytest.raises(ValueError, match="0 or 1"):
        bits_to_int(np.array([1, 3]))


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


def one_pair(bits):
    """bits_to_pair_batch of one canonical bit string, as a pair."""
    Ps, bs = bits_to_pair_batch(np.asarray(bits)[None])
    return RmPair(Ps[0], bs[0])


def test_pair_bits_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        pair = random_pair(rng, m)
        bits = pair_to_bits(pair)
        assert bits.size == m * (m + 3) // 2
        assert one_pair(bits) == pair
    # and the other direction, bits first
    for _ in range(100):
        m = int(rng.integers(1, 8))
        bits = rng.integers(0, 2, size=m * (m + 3) // 2, dtype=np.uint8)
        np.testing.assert_array_equal(pair_to_bits(one_pair(bits)), bits)


def test_bits_to_pair_batch_matches_single():
    # every row against the entry-by-entry oracle
    rng = np.random.default_rng(10)
    mat = rng.integers(0, 2, size=(15, 5 * 8 // 2), dtype=np.uint8)
    Ps, bs = bits_to_pair_batch(mat)
    for k in range(15):
        single = pair_from_bits(mat[k])
        np.testing.assert_array_equal(Ps[k], single.P)
        np.testing.assert_array_equal(bs[k], single.b)


def test_bits_to_pair_rejects_bad_length():
    with pytest.raises(ValueError):
        bits_to_pair_batch(np.zeros((1, 6), dtype=np.uint8))  # no m solves m(m+3)/2 = 6
    with pytest.raises(ValueError):
        bits_to_pair_batch(np.zeros(5, dtype=np.uint8))  # a vector, not rows


def test_pair_validation():
    with pytest.raises(ValueError):
        RmPair(np.array([[0, 1], [0, 0]]), np.zeros(2, np.uint8))  # asymmetric
    with pytest.raises(ValueError):
        RmPair(np.array([[2]]), np.array([0]))  # non-binary
    with pytest.raises(ValueError):
        RmPair(np.zeros((2, 2), np.uint8), np.zeros(3, np.uint8))  # shape clash


def test_async_layout_partitions_all_positions():
    """The position table equals the field-by-field rule for every valid p
    at m = 2..14, and with the check bit and the two reserved zeros it
    covers every canonical position exactly once."""
    for m in range(2, 15):
        total = m * (m + 3) // 2
        for p in range(1, m * (m - 1) // 2 + 1):
            frame = FrameConfig(m, p)
            check, reserved, translate, payload = async_layout(m, p)
            assert frame.pair_positions.tolist() == list(translate + payload)
            assert frame.check_pos == check == m - 2
            assert reserved == (m - 1, total - 1)
            flat = frame.pair_positions.tolist() + [frame.check_pos, *reserved]
            assert sorted(flat) == list(range(total))
            assert frame.segment_bits == p + len(frame.pair_positions) == p + total - 3


def test_sync_layout_is_all_payload():
    for m in range(2, 15):
        total = m * (m + 3) // 2
        for p in range(0, m * (m - 1) // 2 + 1):
            frame = FrameConfig(m, p, tau_max=0.0)
            assert frame.check_pos is None
            assert frame.pair_positions.tolist() == list(range(total))
            assert frame.segment_bits == p + total
    with pytest.raises(ValueError):
        FrameConfig(6, 2).pair_positions[0] = 1  # the cached table is read-only


def test_layout_rejects_oversized_translate():
    with pytest.raises(ValueError, match="off-diagonal"):
        FrameConfig(3, 4)  # only 3 off-diagonal slots at m=3
    assert FrameConfig(3, 3).segment_bits == 9
    assert FrameConfig(3, 4, tau_max=0.0).segment_bits == 13  # no translate to place


@st.composite
def frames_and_segments(draw):
    synchronous = draw(st.booleans())
    m = draw(st.integers(2, 8))
    p = draw(st.integers(0 if synchronous else 1, m * (m - 1) // 2))
    frame = FrameConfig(m, p, tau_max=0.0 if synchronous else 10e-6)
    k = draw(st.integers(1, 6))
    segments = draw(arrays(np.uint8, (k, frame.segment_bits), elements=st.integers(0, 1)))
    secondary = np.zeros(k, bool) if synchronous else draw(arrays(bool, k))
    return frame, segments, secondary


@settings(max_examples=80, deadline=None)
@given(frames_and_segments())
def test_pack_unpack_round_trip(case):
    """segment_pair_bits -> bits_to_pair_batch -> RmPair -> unpack_bits and
    the check bit give back every tail and flag exactly; the two copies of
    a segment differ only at check_pos."""
    frame, segments, secondary = case
    bits = segment_pair_bits(segments, frame, secondary)
    for row, (P, b) in enumerate(zip(*bits_to_pair_batch(bits))):
        pair = RmPair(P, b)
        tail = unpack_bits(pair, frame.pair_positions)
        np.testing.assert_array_equal(tail, segments[row, frame.p :])
        flag = frame.check_pos is not None and bool(pair.b[frame.check_pos])
        assert flag == secondary[row]
    if frame.check_pos is not None:
        diff = segment_pair_bits(segments, frame, ~secondary) != bits
        assert diff[:, frame.check_pos].all() and diff.sum() == len(segments)


def test_copies_differ_only_in_check_bit():
    rng = np.random.default_rng(12)
    frame = FrameConfig(5, 2)
    segment = rng.integers(0, 2, size=frame.segment_bits, dtype=np.uint8)
    segment[2:4] = [1, 0]
    primary, secondary = segment_pair_bits(np.stack([segment] * 2), frame, np.array([False, True]))
    assert np.flatnonzero(primary != secondary).tolist() == [3]  # b[m-2]


def test_pack_exhaustive_small_layout():
    # m=3, p=1: every tail (translate and payload) and copy maps to a
    # distinct pair and back
    frame = FrameConfig(3, 1)
    n_tail = frame.segment_bits - frame.p
    tails = np.array([binary_index(v, n_tail) for v in range(1 << n_tail)])
    segments = np.concatenate([np.zeros((len(tails), 1), np.uint8), tails], axis=1)
    seen = set()
    for sec in (False, True):
        bits = segment_pair_bits(segments, frame, np.full(len(tails), sec))
        for val, (P, b) in enumerate(zip(*bits_to_pair_batch(bits))):
            pair = RmPair(P, b)
            seen.add(pair.key())
            assert bits_to_int(unpack_bits(pair, frame.pair_positions)) == val
            assert bool(pair.b[frame.check_pos]) == sec
    assert len(seen) == (1 << n_tail) * 2


def test_pack_rejects_wrong_sizes():
    frame = FrameConfig(4, 2)
    for width in (frame.segment_bits - 1, frame.segment_bits + 1):
        with pytest.raises(ValueError):
            segment_pair_bits(np.zeros((1, width), np.uint8), frame, np.array([False]))
    sync = FrameConfig(4, 2, tau_max=0.0)
    with pytest.raises(ValueError, match="single copy"):
        # no check bit to set in the single-copy layout
        segment_pair_bits(np.zeros((1, sync.segment_bits), np.uint8), sync, np.array([True]))
