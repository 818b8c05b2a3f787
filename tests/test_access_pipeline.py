"""Frame scheme tests: configuration arithmetic, the tree code, message
plans and slot assignment, and the full frame decoder on constructed
scenes."""

import numpy as np
import pytest

from oracles import bits_value, segment_pair
from rmaccess import access_pipeline, slot_detector
from rmaccess.access_pipeline import (
    FrameConfig,
    decode_frame,
    draw_messages,
    error_metrics,
    transmissions,
    tree_decode,
    tree_encode,
)
from rmaccess.geometry_channel import (
    GeometryConfig,
    Population,
    frame_observations,
    synthesize_slot,
)
from rmaccess.rm_codec import (
    bits_to_pair_batch,
    pair_to_bits,
    rm_samples,
    unpack_bits,
)
from rmaccess.slot_detector import DetectorConfig


def test_frame_sizes_at_standard_points():
    f0 = FrameConfig(m=6, p=6, d=0)
    assert f0.segment_bits == 30 and f0.message_bits == 30
    assert f0.seq_len == 64 and f0.prefix_len == 10
    assert f0.n_slots == 64 and f0.copies == 2
    assert f0.codelength == 4736

    assert FrameConfig(m=6, p=6, d=1).message_bits == 48
    assert FrameConfig(m=6, p=6, d=1).codelength == 9472
    assert FrameConfig(m=6, p=6, d=2).message_bits == 93
    assert FrameConfig(m=6, p=6, d=2).codelength == 18944

    sync = FrameConfig(m=10, p=2, tau_max=0.0)
    assert sync.synchronous and sync.copies == 1
    assert sync.segment_bits == 67 and sync.message_bits == 67
    assert sync.prefix_len == 0 and sync.codelength == 4096


def test_frame_config_validation():
    with pytest.raises(ValueError):
        FrameConfig(m=6, p=6, d=3)
    with pytest.raises(ValueError):
        FrameConfig(m=6, p=0)  # two copies need a nonzero translate space
    FrameConfig(m=6, p=0, tau_max=0.0)  # but a single slot is fine synchronously
    with pytest.raises(ValueError, match="exceeds"):
        FrameConfig(m=3, p=1, d=2)  # 7-bit segments cannot carry 9 parity bits
    assert FrameConfig(m=4, p=1, d=2).info_per_subblock == (12, 3, 3, 3)
    with pytest.raises(ValueError):
        FrameConfig(m=1, p=1)


@pytest.mark.parametrize("name", ["m", "p", "d"])
@pytest.mark.parametrize("bad", [6.5, 2.0, True, np.float64(2.0), np.bool_(True), "2"])
def test_frame_config_rejects_non_integral_sizes(name, bad):
    fields = {"m": 6, "p": 2, "d": 0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        FrameConfig(**fields)


def test_frame_config_takes_numpy_integers_as_ints():
    frame = FrameConfig(m=np.int64(6), p=np.uint8(2), d=np.int32(1))
    assert frame == FrameConfig(m=6, p=2, d=1)
    assert all(type(getattr(frame, name)) is int for name in ("m", "p", "d"))


def test_tree_encode_shapes_and_linearity():
    cfg = FrameConfig(m=6, p=6, d=2)
    rng = np.random.default_rng(60)
    a = rng.integers(0, 2, size=cfg.message_bits, dtype=np.uint8)
    b = rng.integers(0, 2, size=cfg.message_bits, dtype=np.uint8)
    segs = tree_encode(np.stack([a, b, a ^ b]), cfg)
    assert segs.shape == (3, 4, cfg.segment_bits)
    ea, eb, exor = segs
    np.testing.assert_array_equal(exor, ea ^ eb)  # the parity map is linear
    assert not tree_encode(np.zeros((1, cfg.message_bits), np.uint8), cfg).any()
    # rows are encoded independently of each other
    np.testing.assert_array_equal(tree_encode(b[None], cfg)[0], eb)
    assert tree_encode(np.zeros((0, cfg.message_bits), np.uint8), cfg).shape == (0, 4, cfg.segment_bits)
    with pytest.raises(ValueError):
        tree_encode(a, cfg)  # one message is a row, not a vector


def test_tree_encode_frozen_regression():
    # seed 2024, d=1 split of a fixed ramp message
    cfg = FrameConfig(m=6, p=6, d=1)
    info = (np.arange(cfg.message_bits) % 3 == 0).astype(np.uint8)
    segs = tree_encode(info[None], cfg)[0]
    assert "".join(map(str, segs[0])) == "100100100100100100100100100100"
    assert "".join(map(str, segs[1])) == "100100100100100100000110110101"


def test_tree_round_trip_all_depths():
    rng = np.random.default_rng(61)
    for d in (0, 1, 2):
        cfg = FrameConfig(m=6, p=6, d=d)
        infos = rng.integers(0, 2, size=(6, cfg.message_bits), dtype=np.uint8)
        segs = tree_encode(infos, cfg)
        # candidates arrive per sub-block, in scrambled order
        candidates = []
        for j in range(cfg.n_subblocks):
            order = rng.permutation(6)
            candidates.append([segs[k, j] for k in order])
        result = tree_decode(candidates, cfg)
        got = {m.tobytes() for m in result.messages}
        want = {infos[k].tobytes() for k in range(6)}
        assert got == want
        assert not result.overflow


def test_tree_decode_prunes_parity_mismatch():
    cfg = FrameConfig(m=6, p=6, d=1)
    rng = np.random.default_rng(62)
    info_a = rng.integers(0, 2, size=cfg.message_bits, dtype=np.uint8)
    info_b = info_a.copy()
    info_b[0] ^= 1  # differs inside sub-block 0's info field
    seg_a, seg_b = tree_encode(np.stack([info_a, info_b]), cfg)
    assert not np.array_equal(seg_a[1], seg_b[1])  # the flip moves the parity
    result = tree_decode([[seg_a[0], seg_b[0]], [seg_a[1]]], cfg)
    assert len(result.messages) == 1
    np.testing.assert_array_equal(result.messages[0], info_a)


def test_tree_decode_dedup_and_overflow(monkeypatch):
    cfg = FrameConfig(m=6, p=6, d=1)
    rng = np.random.default_rng(63)
    info = rng.integers(0, 2, size=cfg.message_bits, dtype=np.uint8)
    segs = tree_encode(info[None], cfg)[0]
    # the same segment offered twice collapses to one message
    result = tree_decode([[segs[0], segs[0]], [segs[1]]], cfg)
    assert len(result.messages) == 1
    # a second valid message pushes past a path cap of one
    info2 = rng.integers(0, 2, size=cfg.message_bits, dtype=np.uint8)
    segs2 = tree_encode(info2[None], cfg)[0]
    monkeypatch.setattr(access_pipeline, "_PATH_CAP", 1)
    capped = tree_decode([[segs[0], segs2[0]], [segs[1], segs2[1]]], cfg)
    assert capped.overflow
    assert len(capped.messages) == 1
    np.testing.assert_array_equal(capped.messages[0], info)


def test_segment_pair_copies():
    cfg = FrameConfig(m=5, p=2)
    rng = np.random.default_rng(64)
    seg = rng.integers(0, 2, size=cfg.segment_bits, dtype=np.uint8)
    seg[2:4] = [1, 0]  # nonzero translate
    Ps, bs, slots = transmissions(seg, cfg)
    assert Ps.shape == (2, 5, 5) and bs.shape == (2, 5) and slots.shape == (2,)
    bits_p, bits_s = pair_to_bits(Ps, bs)
    assert np.flatnonzero(bits_p != bits_s).tolist() == [cfg.check_pos]
    tail = unpack_bits(Ps[1], bs[1], cfg.pair_positions)
    np.testing.assert_array_equal(tail[: cfg.p], seg[cfg.p : 2 * cfg.p])  # translate
    np.testing.assert_array_equal(tail[cfg.p :], seg[2 * cfg.p :])  # payload
    assert bs[1, cfg.check_pos] == 1
    assert slots.tolist() == [bits_value(seg[:2]), bits_value(seg[:2]) ^ 2]


@pytest.mark.parametrize("bad", [256, -1, 0.5, 2])
def test_bit_inputs_reject_out_of_range_values(bad):
    """Every entry point that takes raw bits checks them before the uint8
    cast, which would wrap 256 to 0 and -1 to 255 and truncate 0.5."""
    cfg = FrameConfig(m=4, p=2)
    with pytest.raises(ValueError, match="0 or 1"):
        pair_to_bits(np.array([[bad]]), [0])
    with pytest.raises(ValueError, match="0 or 1"):
        pair_to_bits([[0]], np.array([bad]))
    infos = np.zeros((1, cfg.message_bits))
    infos[0, 3] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        tree_encode(infos, cfg)
    segments = np.zeros((1, cfg.segment_bits))
    segments[0, -1] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        transmissions(segments, cfg)
    bits = np.zeros((1, 14))
    bits[0, 0] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        bits_to_pair_batch(bits)
    candidate = np.zeros(cfg.segment_bits)
    candidate[-1] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        tree_decode([[np.zeros(cfg.segment_bits), candidate]], cfg)


def test_tree_decode_rejects_malformed_candidates():
    """Candidate bits are checked before use: an unchecked uint8 cast would
    decode 256 as 0, carry a 2 into the message as a "bit" 2 and truncate
    0.5 to 0."""
    cfg = FrameConfig(m=6, p=6, d=1)
    segs = tree_encode(np.ones((1, cfg.message_bits), np.uint8), cfg)[0]
    assert len(tree_decode([[segs[0]], [segs[1]]], cfg).messages) == 1
    for bad in (256, 2, 0.5, -1):
        for j in (0, 1):
            candidates = [[segs[0]], [segs[1]]]
            candidates[j] = [segs[j].astype(float)]
            candidates[j][0][0] = bad
            with pytest.raises(ValueError, match="0 or 1"):
                tree_decode(candidates, cfg)
    for wrong in (segs[0][:-1], np.stack([segs[0]] * 2), segs[0][:1]):
        with pytest.raises(ValueError, match="shape"):
            tree_decode([[wrong], [segs[1]]], cfg)
    with pytest.raises(ValueError, match="shape"):
        tree_decode([[segs[0], segs[0][:-1]], [segs[1]]], cfg)  # ragged block


def test_transmissions_match_oracle_pairs_and_slots():
    """Every copy of every segment, over any leading shape, against the
    field-by-field encoder and the slot rule: copy 0 at the first p bits,
    copy 1 at that slot XOR the translate."""
    rng = np.random.default_rng(65)
    for cfg in (FrameConfig(m=5, p=2), FrameConfig(m=5, p=2, tau_max=0.0)):
        segs = rng.integers(0, 2, size=(2, 5, cfg.segment_bits), dtype=np.uint8)
        Ps, bs, slots = transmissions(segs, cfg)
        assert Ps.shape == (2, 5, cfg.copies, 5, 5) and bs.shape == (2, 5, cfg.copies, 5)
        assert slots.shape == (2, 5, cfg.copies) and slots.dtype == np.int64
        assert Ps.dtype == bs.dtype == np.uint8
        for idx in np.ndindex(2, 5):
            seg = segs[idx]
            primary = bits_value(seg[: cfg.p])
            expect = [primary, primary ^ bits_value(seg[cfg.p : 2 * cfg.p])]
            assert slots[idx].tolist() == expect[: cfg.copies]
            for c in range(cfg.copies):
                P, b = segment_pair(seg, cfg, c == 1)
                np.testing.assert_array_equal(Ps[idx][c], P)
                np.testing.assert_array_equal(bs[idx][c], b)
        # one segment is a stack with no leading axes
        one = transmissions(segs[1, 3], cfg)
        for got, stacked in zip(one, (Ps, bs, slots)):
            np.testing.assert_array_equal(got, stacked[1, 3])
    for shape in ((cfg.segment_bits - 1,), (2, cfg.segment_bits + 1), ()):
        with pytest.raises(ValueError, match="segments"):
            transmissions(np.zeros(shape, np.uint8), cfg)


def test_draw_messages():
    cfg = FrameConfig(m=5, p=2, d=1)
    rng = np.random.default_rng(68)
    info = draw_messages(cfg, rng, 400)
    assert info.shape == (400, cfg.message_bits) and info.dtype == np.uint8
    # zero-translate payloads were redrawn whole: every sub-block's two copies
    # land in distinct slots
    slots = transmissions(tree_encode(info, cfg), cfg)[2]
    assert (slots[:, :, 0] != slots[:, :, 1]).all()

    sync = FrameConfig(m=5, p=2, d=1, tau_max=0.0)
    assert draw_messages(sync, rng, 30).shape == (30, sync.message_bits)
    assert draw_messages(cfg, rng, 0).shape == (0, cfg.message_bits)
    with pytest.raises(ValueError):
        draw_messages(cfg, rng, -1)


def _population(info, h, delta=None):
    """Devices at distance 1 sending the messages info (k, B) over channels
    h (k, r) with delays (k,)."""
    h = np.asarray(h, dtype=np.complex128)
    k = h.shape[0]
    delta = np.zeros(k) if delta is None else delta
    return Population(np.ones(k), np.abs(h) ** 2, h, delta, np.asarray(info))


def _plan(info, frame):
    """The tree-coded segments (k, 2**d, segment_bits) of messages info
    (k, B) and the landed slots (k, 2**d, copies) of their copies."""
    segments = tree_encode(info, frame)
    return segments, transmissions(segments, frame)[2]


NOISELESS = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1.0, r=2)


def test_decode_frame_single_device():
    frame = FrameConfig(m=4, p=2, d=0)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=2.0, r=2)
    info = draw_messages(frame, np.random.default_rng(70), 1)
    pop = _population(info, [[0.8 + 0.1j, -0.3 + 1.1j]], [0.4])
    obs = frame_observations(pop, frame, geo)
    out = decode_frame(obs, DetectorConfig(k_max=2, eps=1e-9), frame)
    assert len(out.messages) == 1
    np.testing.assert_array_equal(out.messages[0], info[0])
    assert out.candidate_counts == [1]
    assert out.delays[0][0] == pytest.approx(0.4, abs=1e-6)
    np.testing.assert_allclose(out.channels[0][0], np.sqrt(2.0) * pop.h[0], atol=1e-9)
    assert not out.overflow


def test_decode_frame_cross_slot_cancellation():
    """A strong device's secondary copy buries a weak device's primary; with
    one iteration per slot the weak one is only found because the copy is
    pre-cancelled."""
    frame = FrameConfig(m=6, p=2, d=0)
    rng = np.random.default_rng(0)
    msg_a = msg_b = None
    while msg_a is None or msg_b is None:
        m = draw_messages(frame, rng, 1)[0]
        s = _plan(m[None], frame)[1][0, 0]
        if msg_a is None and s[0] == 0 and s[1] == 2:
            msg_a = m
        elif msg_b is None and s[0] == 2 and s[1] == 3:
            msg_b = m
    rng2 = np.random.default_rng(3)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1.0, r=4)
    h_a = 4.0 * np.exp(1j * rng2.uniform(0, 2 * np.pi, 4))
    h_b = 1.0 * np.exp(1j * rng2.uniform(0, 2 * np.pi, 4))
    pop = _population([msg_a, msg_b], [h_a, h_b], [0.5, -0.9])
    obs = frame_observations(pop, frame, geo)
    out = decode_frame(obs, DetectorConfig(k_max=1, eps=1e-6), frame)
    got = {m.tobytes() for m in out.messages}
    assert got == {msg_a.tobytes(), msg_b.tobytes()}


def _one_device_slot(pair, h, delta):
    X = rm_samples(*pair)[None]
    return synthesize_slot(X, np.asarray(h)[None], np.array([delta]), gamma=1.0)


def test_decode_frame_queues_the_other_copys_pair(monkeypatch):
    """The pair decode_frame queues for cancellation in a message's other
    slot is that copy's pair as the field-by-field encoder builds it: the
    secondary copy when the primary slot comes first, the primary one
    otherwise."""
    frame = FrameConfig(m=4, p=2, d=0)
    detect, reconstruct = slot_detector.detect_slot, slot_detector.reconstruct_signal
    inside_detect, queued = [], []

    def spy_detect(Y, cfg):
        inside_detect.append(True)
        try:
            return detect(Y, cfg)
        finally:
            inside_detect.pop()

    def spy_reconstruct(P, b, h, delta):
        if not inside_detect:  # not the detector's own cancellation
            queued.append((P.copy(), b.copy()))
        return reconstruct(P, b, h, delta)

    monkeypatch.setattr(slot_detector, "detect_slot", spy_detect)
    monkeypatch.setattr(slot_detector, "reconstruct_signal", spy_reconstruct)
    rng = np.random.default_rng(2)
    orders = set()
    for _ in range(8):
        info = draw_messages(frame, rng, 1)
        segs, slots = _plan(info, frame)
        primary_first = bool(slots[0, 0, 0] < slots[0, 0, 1])
        orders.add(primary_first)
        pop = _population(info, [[1.0, 0.5j]], [0.3])
        obs = frame_observations(pop, frame, NOISELESS)
        queued.clear()
        out = decode_frame(obs, DetectorConfig(k_max=2, eps=1e-9), frame)
        np.testing.assert_array_equal(out.messages[0], info[0])
        P, b = segment_pair(segs[0, 0], frame, primary_first)
        assert len(queued) == 1
        np.testing.assert_array_equal(queued[0][0], P)
        np.testing.assert_array_equal(queued[0][1], b)
    assert orders == {True, False}


def test_decode_frame_secondary_copy_alone_recovers():
    # only the check-flipped copy is on the air; the decoder walks the
    # translate back to the primary slot index
    frame = FrameConfig(m=4, p=2, d=0)
    info = draw_messages(frame, np.random.default_rng(1), 1)
    segs, slots = _plan(info, frame)
    seg = segs[0, 0]
    s_sec = int(slots[0, 0, 1])
    grid = np.zeros((1, 4, 2, 16), dtype=complex)
    grid[0, s_sec] = _one_device_slot(segment_pair(seg, frame, True), [1.5, -0.7j], 0.25)
    out = decode_frame(grid, DetectorConfig(k_max=2, eps=1e-9), frame)
    assert len(out.messages) == 1
    np.testing.assert_array_equal(out.messages[0], info[0])
    assert out.candidate_counts == [1]


def test_decode_frame_dedups_straggling_copy():
    """If the queued cancellation misses (here: the copies disagree on the
    channel), the re-detected copy maps to the same segment and is dropped."""
    frame = FrameConfig(m=4, p=2, d=0)
    info = draw_messages(frame, np.random.default_rng(1), 1)
    segs, slots = _plan(info, frame)
    seg = segs[0, 0]
    s_pri, s_sec = int(slots[0, 0, 0]), int(slots[0, 0, 1])
    h = np.array([1.0 + 0.2j, -0.5j])
    grid = np.zeros((1, 4, 2, 16), dtype=complex)
    grid[0, s_sec] = _one_device_slot(segment_pair(seg, frame, True), h, 0.3)
    grid[0, s_pri] = _one_device_slot(segment_pair(seg, frame, False), 2.0 * h, 0.3)
    out = decode_frame(grid, DetectorConfig(k_max=3, eps=1e-9), frame)
    assert out.candidate_counts == [1]
    assert len(out.messages) == 1
    np.testing.assert_array_equal(out.messages[0], info[0])


def test_decode_frame_power_floor_screens_but_cancels():
    frame = FrameConfig(m=4, p=2, d=0)
    rng = np.random.default_rng(5)
    msgs = draw_messages(frame, rng, 2)  # strong, then weak
    pop = _population(msgs, [[3.0, 4.0j], [0.1, 0.1j]], [0.2, -0.4])
    obs = frame_observations(pop, frame, NOISELESS)
    det = DetectorConfig(k_max=4, eps=1e-9)
    everything = decode_frame(obs, det, frame)
    assert {m.tobytes() for m in everything.messages} == {m.tobytes() for m in msgs}
    screened = decode_frame(obs, det, frame, power_floor=1.0)
    assert len(screened.messages) == 1
    np.testing.assert_array_equal(screened.messages[0], msgs[0])
    assert screened.candidate_counts == [1]


def test_decode_frame_synchronous():
    frame = FrameConfig(m=5, p=2, tau_max=0.0)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1.0, r=2)
    msgs = draw_messages(frame, np.random.default_rng(6), 3)
    h = np.exp(1j * np.arange(3))[:, None] * np.array([1.0, 1.4j])
    obs = frame_observations(_population(msgs, h), frame, geo)
    cfg = DetectorConfig(k_max=4, eps=1e-6, estimate_delay=False)
    out = decode_frame(obs, cfg, frame)
    assert {m.tobytes() for m in out.messages} == {m.tobytes() for m in msgs}
    for delays in out.delays:
        assert not delays.any()


def test_decode_frame_rejects_mismatched_detector_variant():
    # a delay-estimating detector forces the top layer to zero and a
    # synchronous one reads it as data, so neither can decode the other's frame
    for frame in (FrameConfig(m=4, p=2), FrameConfig(m=4, p=2, tau_max=0.0)):
        grid = np.zeros((1, 4, 2, 16))
        right = DetectorConfig(k_max=1, eps=1.0, estimate_delay=not frame.synchronous)
        decode_frame(grid, right, frame)
        wrong = DetectorConfig(k_max=1, eps=1.0, estimate_delay=frame.synchronous)
        with pytest.raises(ValueError, match="estimate_delay"):
            decode_frame(grid, wrong, frame)


def test_decode_frame_shape_validation():
    frame = FrameConfig(m=4, p=2, d=1)
    cfg = DetectorConfig(k_max=1, eps=1.0)
    decode_frame(np.zeros((2, 4, 3, 16)), cfg, frame)  # any antenna count
    for shape in [
        (1, 4, 2, 16),  # one sub-block missing
        (2, 3, 2, 16),  # slot short
        (2, 4, 2, 32),  # slots of another sequence order
        (2, 4, 16),  # no antenna axis
        (2, 4, 2, 16, 1),
    ]:
        with pytest.raises(ValueError, match=r"\(2, 4, r, 16\)"):
            decode_frame(np.zeros(shape), cfg, frame)
    with pytest.raises(ValueError):
        decode_frame([[np.zeros((2, 16))] * 3 + [np.zeros((2, 8))]] * 2, cfg, frame)  # ragged


def test_error_metrics_conventions():
    a, b, c, x = (np.array(v, dtype=np.uint8) for v in ([0, 1], [1, 1], [1, 0], [0, 0]))
    m = error_metrics([a, b, x], [a, b, c])
    assert m.miss_rate == pytest.approx(1 / 3)
    assert m.false_alarm_rate == pytest.approx(1 / 3)
    assert m.truth_count == 3 and m.decoded_count == 3
    m = error_metrics([], [a, b])
    assert m.miss_rate == 1.0 and m.false_alarm_rate == 0.0 and m.decoded_count == 0
    m = error_metrics([a], [])
    assert m.miss_rate is None and m.false_alarm_rate == 1.0
    m = error_metrics([], [])
    assert m.miss_rate is None and m.false_alarm_rate == 0.0
    # duplicates collapse, bit strings compare by content
    m = error_metrics([a, a.copy()], [a])
    assert m.miss_rate == 0.0 and m.false_alarm_rate == 0.0 and m.decoded_count == 1


def test_error_metrics_rejects_non_bits():
    # uint8 casts would wrap 256 to 0 and truncate 0.5 to 0, scoring a hit
    a = np.array([0, 1], dtype=np.uint8)
    for bad in ([256, 1], [0.5, 1], [2, 1]):
        with pytest.raises(ValueError, match="0 or 1"):
            error_metrics([np.array(bad)], [a])
        with pytest.raises(ValueError, match="0 or 1"):
            error_metrics([a], [np.array(bad)])
