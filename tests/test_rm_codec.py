"""Sequence codec unit tests: sample generation against a brute-force
reference, the half-length layer structure, the transform, and the bit
packing conventions: canonical bit strings, and the segment layout of
access_pipeline.FrameConfig against the field-by-field oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmaccess.access_pipeline import FrameConfig, transmissions
from rmaccess.rm_codec import (
    _bit_rows,
    as_bits,
    bits_to_pair_batch,
    pair_to_bits,
    rm_samples,
    rm_samples_batch,
    unpack_bits,
    walsh_factor,
    wht,
)
from rmaccess.slot_detector import reconstruct_signal
from oracles import (
    async_layout,
    bit_table,
    bit_table_walsh_factor,
    bits_value,
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
    return P, b


# The two binary_index tests keep their names; they now check _bit_rows,
# the read-only table of MSB-first rows that replaced binary_index.
def test_binary_index_examples():
    assert _bit_rows(2)[3].tolist() == [1, 1]
    assert _bit_rows(2)[1].tolist() == [0, 1]
    assert _bit_rows(3)[0].tolist() == [0, 0, 0]
    assert _bit_rows(4)[5].tolist() == [0, 1, 0, 1]
    assert _bit_rows(2).shape == (4, 2)
    with pytest.raises(IndexError):
        _bit_rows(2)[4]
    for width in range(12):
        rows = _bit_rows(width)
        assert rows.dtype == np.uint8 and not rows.flags.writeable
        np.testing.assert_array_equal(rows, bit_table(width))


def test_binary_index_reads_back_msb_first():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = int(rng.integers(1, 12))
        n = int(rng.integers(0, 1 << s))
        assert bits_value(_bit_rows(s)[n]) == n


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
        P, b = random_pair(rng, m)
        np.testing.assert_array_equal(rm_samples(P, b), reference_samples(P, b))


def test_samples_alphabet_and_codeword():
    rng = np.random.default_rng(2)
    word = rm_samples(*random_pair(rng, 5))
    assert word.shape == (32,) and word.dtype == np.complex128
    assert set(word.tolist()) <= {1, -1, 1j, -1j}


def test_rm_samples_batch_matches_single():
    rng = np.random.default_rng(3)
    pairs = [random_pair(rng, 5) for _ in range(20)]
    Ps = np.stack([P for P, _ in pairs])
    bs = np.stack([b for _, b in pairs])
    batch = rm_samples_batch(Ps, bs)
    for k, (P, b) in enumerate(pairs):
        np.testing.assert_array_equal(batch[k], rm_samples(P, b))


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


@pytest.mark.parametrize(
    "bad",
    [
        np.array([0, 256]),
        np.array([256], np.uint16),
        np.array([1, 2], np.uint8),
        np.array([2], np.int8),
        np.array([-1, 1]),
        np.array([-1], np.int8),
        np.array([0.5, 1.0]),
        np.array([np.nan, 0.0]),
    ],
    ids=["256", "256-uint16", "2-uint8", "2-int8", "-1", "-1-int8", "0.5", "nan"],
)
def test_as_bits_rejects_non_bits(bad):
    with pytest.raises(ValueError, match="0 or 1"):
        as_bits(bad)


def test_as_bits_accepts_bits_of_any_dtype():
    for bits in ([True, False], np.array([1, 0], np.int8), np.array([1, 0], np.uint64), [1.0, 0.0]):
        got = as_bits(bits)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, [1, 0])
    assert as_bits(np.zeros((0, 3), bool)).shape == (0, 3)


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
        P, b = random_pair(rng, m)
        for s in range(2, m + 1):
            X = rm_samples(P[:s, :s], b[:s])
            X_half = rm_samples(P[: s - 1, : s - 1], b[: s - 1])
            V = walsh_factor(bits_value(P[: s - 1, s - 1]), s - 1, b[s - 1], P[s - 1, s - 1])
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
                walsh_factor(bits_value(eta), eta.size, b_bit, beta_bit),
                bit_table_walsh_factor(eta, b_bit, beta_bit),
            )


def test_walsh_factor_rejects_non_bits():
    # the frequency must be a width-bit integer and b, beta single bits
    for freq, width in ((4, 2), (-1, 2), (0, -1)):
        with pytest.raises(ValueError, match="Walsh frequency"):
            walsh_factor(freq, width, 0, 0)
    for b_bit, beta_bit in ((2, 0), (0, -1), (0.5, 0)):
        with pytest.raises(ValueError, match="0 or 1"):
            walsh_factor(1, 2, b_bit, beta_bit)


def test_walsh_factor_transform_peak():
    # a Walsh function of frequency freq transforms to a single spike at
    # index freq, the peak index the detector reads as the frequency
    rng = np.random.default_rng(8)
    for _ in range(30):
        width = int(rng.integers(1, 7))
        freq = int(rng.integers(0, 1 << width))
        t = wht(walsh_factor(freq, width, 0, 0))
        assert int(np.argmax(np.abs(t))) == freq
        assert abs(t[freq] - (1 << width)) < 1e-12


def one_pair(bits):
    """bits_to_pair_batch of one canonical bit string: (P, b)."""
    Ps, bs = bits_to_pair_batch(np.asarray(bits)[None])
    return Ps[0], bs[0]


def test_pair_bits_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        P, b = random_pair(rng, m)
        bits = pair_to_bits(P, b)
        assert bits.shape == (m * (m + 3) // 2,)
        P2, b2 = one_pair(bits)
        np.testing.assert_array_equal(P2, P)
        np.testing.assert_array_equal(b2, b)
    # and the other direction, bits first
    for _ in range(100):
        m = int(rng.integers(1, 8))
        bits = rng.integers(0, 2, size=m * (m + 3) // 2, dtype=np.uint8)
        np.testing.assert_array_equal(pair_to_bits(*one_pair(bits)), bits)


def test_pair_to_bits_inverts_bits_to_pair_batch_on_stacks():
    rng = np.random.default_rng(11)
    for m in (1, 2, 5, 9):
        mat = rng.integers(0, 2, size=(6, m * (m + 3) // 2), dtype=np.uint8)
        Ps, bs = bits_to_pair_batch(mat)
        np.testing.assert_array_equal(pair_to_bits(Ps, bs), mat)
        # any leading shape, row for row
        stacked = pair_to_bits(Ps.reshape(2, 3, m, m), bs.reshape(2, 3, m))
        np.testing.assert_array_equal(stacked, mat.reshape(2, 3, -1))
        assert pair_to_bits(Ps[:0], bs[:0]).shape == (0, mat.shape[1])


def test_bits_to_pair_batch_matches_single():
    # every row against the entry-by-entry oracle
    rng = np.random.default_rng(10)
    mat = rng.integers(0, 2, size=(15, 5 * 8 // 2), dtype=np.uint8)
    Ps, bs = bits_to_pair_batch(mat)
    for k in range(15):
        P, b = pair_from_bits(mat[k])
        np.testing.assert_array_equal(Ps[k], P)
        np.testing.assert_array_equal(bs[k], b)


@pytest.mark.parametrize("m", range(1, 11))
def test_bits_to_pair_batch_matches_zero_fill_and_mirror(m):
    """The gather through the cached entry positions against zeros plus the
    elementwise max with the transpose, k = 0 rows included."""
    rng = np.random.default_rng(100 + m)
    for k in (0, 1, 7):
        mat = rng.integers(0, 2, size=(k, m * (m + 3) // 2), dtype=np.uint8)
        rows, cols = np.triu_indices(m)
        expected = np.zeros((k, m, m), dtype=np.uint8)
        expected[:, rows, cols] = mat[:, m:]
        expected = np.maximum(expected, expected.transpose(0, 2, 1))
        Ps, bs = bits_to_pair_batch(mat)
        assert Ps.dtype == bs.dtype == np.uint8
        np.testing.assert_array_equal(Ps, expected)
        np.testing.assert_array_equal(bs, mat[:, :m])


def test_bits_to_pair_rejects_bad_length():
    with pytest.raises(ValueError):
        bits_to_pair_batch(np.zeros((1, 6), dtype=np.uint8))  # no m solves m(m+3)/2 = 6
    with pytest.raises(ValueError):
        bits_to_pair_batch(np.zeros(5, dtype=np.uint8))  # a vector, not rows


def test_pair_validation():
    """Every function that takes a pair (P, b) refuses an asymmetric P,
    entries other than 0 and 1, and shapes that disagree."""
    bad_pairs = [
        (np.array([[0, 1], [0, 0]]), np.zeros(2, np.uint8), "symmetric"),
        (np.array([[2]]), np.array([0]), "0 or 1"),
        (np.array([[0]]), np.array([256]), "0 or 1"),
        (np.array([[0.5]]), np.array([1.0]), "0 or 1"),
        (np.zeros((2, 2), np.uint8), np.zeros(3, np.uint8), "expected"),
        (np.zeros((2, 2, 2), np.uint8), np.zeros((3, 2), np.uint8), "expected"),
        (np.zeros((0, 0), np.uint8), np.zeros(0, np.uint8), "m >= 1"),
    ]
    takers = [
        pair_to_bits,
        rm_samples,
        lambda P, b: unpack_bits(P, b, np.arange(2)),
        lambda P, b: reconstruct_signal(P, b, np.ones(2), 0.1),
    ]
    for P, b, match in bad_pairs:
        for take in takers:
            with pytest.raises(ValueError, match=match):
                take(P, b)


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
    return frame, segments


@settings(max_examples=80, deadline=None)
@given(frames_and_segments())
def test_pack_unpack_round_trip(case):
    """transmissions -> unpack_bits and the check bit give back every tail
    and copy index exactly; the two copies of a segment differ only at
    check_pos."""
    frame, segments = case
    Ps, bs, _ = transmissions(segments, frame)
    for row in range(len(segments)):
        for c in range(frame.copies):
            P, b = Ps[row, c], bs[row, c]
            tail = unpack_bits(P, b, frame.pair_positions)
            np.testing.assert_array_equal(tail, segments[row, frame.p :])
            assert (0 if frame.check_pos is None else b[frame.check_pos]) == c
    if frame.check_pos is not None:
        bits = pair_to_bits(Ps, bs)
        diff = bits[:, 0] != bits[:, 1]
        assert diff[:, frame.check_pos].all() and diff.sum() == len(segments)


def test_copies_differ_only_in_check_bit():
    rng = np.random.default_rng(12)
    frame = FrameConfig(5, 2)
    segment = rng.integers(0, 2, size=frame.segment_bits, dtype=np.uint8)
    segment[2:4] = [1, 0]
    primary, secondary = pair_to_bits(*transmissions(segment, frame)[:2])
    assert np.flatnonzero(primary != secondary).tolist() == [3]  # b[m-2]


@st.composite
def two_copy_segments(draw):
    m = draw(st.integers(2, 10))
    frame = FrameConfig(m, draw(st.integers(1, m * (m - 1) // 2)))
    k = draw(st.integers(1, 4))
    return frame, draw(arrays(np.uint8, (k, frame.segment_bits), elements=st.integers(0, 1)))


@settings(max_examples=60, deadline=None)
@given(two_copy_segments())
@example((FrameConfig(2, 1), np.array([[0, 1, 1]], dtype=np.uint8)))
@example((FrameConfig(10, 2), np.ones((2, FrameConfig(10, 2).segment_bits), dtype=np.uint8)))
def test_copy_one_is_copy_zero_sign_flipped(case):
    """Copy 1's samples equal copy 0's times 1 - 2 * ((n-1) >> 1 & 1)
    exactly: the check bit b[m-2] weighs bit 1 of n-1 by i**2.
    frame_observations builds copy 1 from copy 0 through this identity."""
    frame, segments = case
    Ps, bs, _ = transmissions(segments, frame)
    X0 = rm_samples_batch(Ps[:, 0], bs[:, 0])
    X1 = rm_samples_batch(Ps[:, 1], bs[:, 1])
    n = np.arange(1, frame.seq_len + 1)
    np.testing.assert_array_equal(X1, X0 * (1 - 2 * ((n - 1) >> 1 & 1)))


def test_pack_exhaustive_small_layout():
    # m=3, p=1: every tail (translate and payload) and copy maps to a
    # distinct pair and back
    frame = FrameConfig(3, 1)
    n_tail = frame.segment_bits - frame.p
    tails = bit_table(n_tail).astype(np.uint8)
    segments = np.concatenate([np.zeros((len(tails), 1), np.uint8), tails], axis=1)
    seen = set()
    Ps, bs, _ = transmissions(segments, frame)
    for c in range(2):
        for val, (P, b) in enumerate(zip(Ps[:, c], bs[:, c])):
            seen.add(pair_to_bits(P, b).tobytes())
            assert bits_value(unpack_bits(P, b, frame.pair_positions)) == val
            assert b[frame.check_pos] == c
    assert len(seen) == (1 << n_tail) * 2


def test_pack_rejects_wrong_sizes():
    for frame in (FrameConfig(4, 2), FrameConfig(4, 2, tau_max=0.0)):
        for width in (frame.segment_bits - 1, frame.segment_bits + 1):
            with pytest.raises(ValueError):
                transmissions(np.zeros((1, width), np.uint8), frame)
