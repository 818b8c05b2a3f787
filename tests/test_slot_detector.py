"""Per-slot detector tests: each stage against small hand-worked cases, then
noiseless round trips through the full detect-and-cancel loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import einsum_samples_batch, full_grid_delay, reference_detect_slot, segment_pair
from rmaccess import slot_detector
from rmaccess.access_pipeline import FrameConfig, transmissions
from rmaccess.geometry_channel import expected_neighbors, synthesize_slot
from rmaccess.rm_codec import rm_samples, rm_samples_batch, walsh_factor
from rmaccess.sim_cli import ExperimentSpec
from rmaccess.slot_detector import (
    Detection,
    DetectorConfig,
    correlate_layer,
    decode_polarity,
    detect_slot,
    estimate_final,
    fold_layer,
    peak_search,
    reconstruct_signal,
    refine_delay,
)


def wrap(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def slot_of(pairs, h, delta, gamma=1.0):
    """Noise-free slot carrying the given (P, b) pairs over channels h (k, r)
    with delays (k,)."""
    X = np.stack([rm_samples(P, b) for P, b in pairs])
    return synthesize_slot(X, np.asarray(h), np.asarray(delta, dtype=float), gamma)


def transmit_pair(rng, m, p=1):
    """Primary pair (P, b) of a segment with slot 0, translate 1 followed by
    zeros and a random payload."""
    frame = FrameConfig(m, p)
    segment = np.zeros(frame.segment_bits, np.uint8)
    segment[p] = 1
    segment[2 * p :] = rng.integers(0, 2, size=frame.segment_bits - 2 * p, dtype=np.uint8)
    return segment_pair(segment, frame)


def found(det, pair):
    """Whether a detection carries exactly the pair (P, b)."""
    return np.array_equal(det.P, pair[0]) and np.array_equal(det.b, pair[1])


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(k_max=0, eps=1.0)
    with pytest.raises(ValueError):
        DetectorConfig(k_max=1, eps=1.0, refine_resolution=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(k_max=1, eps=1.0, refine_window=-0.1)
    # an infinite eps declares every slot empty
    assert DetectorConfig(k_max=1, eps=math.inf).eps == math.inf


@pytest.mark.parametrize(
    "bad",
    [
        {"k_max": 2.5},
        {"k_max": 2.0},
        {"k_max": True},
        {"k_max": math.inf},
        {"k_max": "3"},
        {"k_max": 1, "estimate_delay": "yes"},
        {"k_max": 1, "estimate_delay": 1},
        {"k_max": 1, "estimate_delay": None},
    ],
)
def test_detector_config_rejects_bad_types(bad):
    name = "estimate_delay" if "estimate_delay" in bad else "k_max"
    with pytest.raises(ValueError, match=name):
        DetectorConfig(eps=1.0, **bad)


def test_detector_config_takes_numpy_scalars():
    cfg = DetectorConfig(k_max=np.int64(3), eps=1.0, estimate_delay=np.bool_(False))
    assert type(cfg.k_max) is int and cfg.k_max == 3
    assert cfg.estimate_delay is False


def test_detector_config_rejects_nan_eps():
    with pytest.raises(ValueError, match="eps"):
        DetectorConfig(k_max=1, eps=math.nan)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_detector_config_rejects_non_finite_refine_window(value):
    with pytest.raises(ValueError, match="refine_window"):
        DetectorConfig(k_max=1, eps=1.0, refine_window=value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_detector_config_rejects_non_finite_refine_resolution(value):
    with pytest.raises(ValueError, match="refine_resolution"):
        DetectorConfig(k_max=1, eps=1.0, refine_resolution=value)


def test_from_operating_point_frozen():
    # the detector an experiment derives at the standard operating point
    # (K = 1000, r = 16, m = p = 6, d = 0) and for an idle frame
    spec = ExperimentSpec()
    point = spec.points()[0]
    assert point == {"K": 1000, "r": 16, "m": 6, "p": 6, "d": 0}
    cfg = spec.detector_for(point)
    assert cfg.eps == pytest.approx(37.72260613626624, rel=1e-12)
    assert cfg.k_max == 3
    idle = ExperimentSpec(devices=0)
    idle_cfg = idle.detector_for(idle.points()[0])
    assert idle_cfg.eps == pytest.approx(32.0, rel=1e-12) and idle_cfg.k_max == 1
    # k_max = max(1, ceil(6 K* / 2**p * r**(1/4))) across the sweep axes
    swept = ExperimentSpec(sweep={"K": [0, 200, 1000], "r": [1, 16], "p": [2, 6]})
    for pt in swept.points():
        neighbors = expected_neighbors(swept.geometry_for(pt))
        want = max(1, math.ceil(6.0 * neighbors / 2 ** pt["p"] * pt["r"] ** 0.25))
        assert swept.detector_for(pt).k_max == want


def test_correlate_layer_by_hand():
    Y = np.array([[1.0, 1.0, 1.0, -1.0]])
    np.testing.assert_array_equal(correlate_layer(Y), np.array([1.0, -1.0]))
    # sums across antennas
    Y2 = np.array([[1.0, 2.0], [1j, 3.0]])
    # 2*conj(1) + 3*conj(i) = 2 - 3i
    np.testing.assert_allclose(correlate_layer(Y2), np.array([2.0 - 3.0j]))
    with pytest.raises(ValueError):
        correlate_layer(np.ones((2, 3)))


def test_peak_search_examples_and_ties():
    # the peak index is the Walsh frequency, an int
    freq, peak = peak_search(np.array([2.0, 0.0]))
    assert freq == 0 and type(freq) is int and peak == 2.0
    freq, peak = peak_search(np.array([0.0, -2.0j]))
    assert freq == 1 and peak == -2.0j
    freq, _ = peak_search(np.array([1.0, 0.0, 3.0, -3.0]))  # tie toward the smaller index
    assert freq == 0b10
    with pytest.raises(ValueError):
        peak_search(np.array([1.0, 2.0, 3.0]))


def test_decode_polarity_quadrants():
    assert decode_polarity(5.0, 0.0)[:2] == (0, 0)
    assert decode_polarity(5.0j, 0.0)[:2] == (0, 1)
    assert decode_polarity(-5.0, 0.0)[:2] == (1, 0)
    assert decode_polarity(-5.0j, 0.0)[:2] == (1, 1)
    with pytest.raises(ValueError):
        decode_polarity(0.0, 0.0)


def test_decode_polarity_extracts_residual_phase():
    # peak = i * e^{-0.3i}: polarity i, delay component 0.3
    b, beta, comp = decode_polarity(1j * np.exp(-0.3j), 0.0)
    assert (b, beta) == (0, 1)
    assert comp == pytest.approx(0.3, abs=1e-12)
    # a compensating rotation resolves a polarity that drifted across pi/4
    b, beta, comp = decode_polarity(-np.exp(-1.0j), 1.0)
    assert (b, beta) == (1, 0)
    assert comp == pytest.approx(1.0, abs=1e-12)


def test_fold_layer_matches_pointwise_formula():
    rng = np.random.default_rng(50)
    Y = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    V = walsh_factor(0b10, 2, 1, 0)
    d = 0.37
    out = fold_layer(Y, V, d)
    for l in range(3):
        for nn in range(4):
            expect = 0.5 * (np.exp(-1j * d) * Y[l, 2 * nn] + np.conj(V[nn]) * Y[l, 2 * nn + 1])
            assert abs(out[l, nn] - expect) < 1e-12
    with pytest.raises(ValueError):
        fold_layer(Y, V[:3], d)


def test_fold_layer_halves_noise_variance():
    rng = np.random.default_rng(51)
    Y = (rng.standard_normal((5000, 16)) + 1j * rng.standard_normal((5000, 16))) / math.sqrt(2)
    V = walsh_factor(0b011, 3, 0, 1)
    out = fold_layer(Y, V, 1.2)
    assert np.mean(np.abs(out) ** 2) == pytest.approx(0.5, rel=0.05)


def test_estimate_final_noiseless():
    h = np.array([1.0 + 0.0j, 2.0j])
    d = 0.2
    polarity = 1j  # (b, beta) = (0, 1)
    Y1 = np.outer(h, np.array([np.exp(-1j * d), polarity * np.exp(-2j * d)]))
    b1, beta1, comp, h_hat = estimate_final(Y1, delta_prev=d)
    assert (b1, beta1) == (0, 1)
    assert comp == pytest.approx(d, abs=1e-12)
    np.testing.assert_allclose(h_hat, h, atol=1e-12)
    # synchronous variant ignores phase entirely
    Y1s = np.outer(h, np.array([1.0, -1.0]))
    b1, beta1, comp, h_hat = estimate_final(Y1s, delta_prev=0.0, estimate_delay=False)
    assert (b1, beta1) == (1, 0) and comp == 0.0
    np.testing.assert_allclose(h_hat, h, atol=1e-12)
    with pytest.raises(ValueError):
        estimate_final(np.zeros((2, 2)), 0.0)


def test_refine_delay_reconciles_components():
    cfg = DetectorConfig(k_max=1, eps=0.0, refine_window=0.1, refine_resolution=1e-4)
    delta = 0.7
    comps = wrap(2.0 ** np.arange(6) * delta)
    comps[0] += 0.03  # first component is the noisiest one; later ones pull it back
    est = refine_delay(comps, cfg)
    assert abs(est - delta) <= 1e-4
    # window of zero keeps the first component untouched
    cfg0 = DetectorConfig(k_max=1, eps=0.0, refine_window=0.0, refine_resolution=1e-4)
    assert refine_delay(comps, cfg0) == pytest.approx(comps[0])
    with pytest.raises(ValueError):
        refine_delay(np.array([0.1]), cfg)


def tied_components(m, first, j, resolution):
    """Components whose noiseless residual e^2 + sum_l 4^l (e - e0)^2 has its
    minimum halfway between grid corrections j and j + 1, so the two tie up
    to rounding."""
    s2 = sum(4.0**l for l in range(1, m))
    e0 = (j + 0.5) * resolution * (1.0 + s2) / s2
    comps = wrap(2.0 ** np.arange(m) * (first - e0))
    comps[0] = first
    return comps


SEARCH_CONFIGS = [
    DetectorConfig(k_max=1, eps=0.0, refine_window=window, refine_resolution=resolution)
    for window in (0.0, 0.1, 0.5)
    for resolution in (1e-4, 1e-3)
]


@st.composite
def delay_components(draw):
    m = draw(st.integers(2, 14))
    kind = draw(st.sampled_from(["noisy", "near_pi", "tie"]))
    if kind == "tie":
        first = draw(st.floats(-math.pi, math.pi))
        return tied_components(m, first, draw(st.integers(-200, 199)), 1e-4)
    if kind == "near_pi":
        sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
        gap = np.array(draw(st.lists(st.floats(0.0, 1e-12), min_size=m, max_size=m)))
        return sign * (np.pi - gap)
    delta = draw(st.floats(-math.pi, math.pi))
    noise = draw(st.floats(0.0, math.pi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return wrap(2.0 ** np.arange(m) * delta + noise * rng.standard_normal(m))


@settings(max_examples=300, deadline=None)
@given(delay_components(), st.sampled_from(SEARCH_CONFIGS))
def test_refine_delay_equals_full_grid_search(comps, cfg):
    assert refine_delay(comps, cfg) == full_grid_delay(comps, cfg)


def test_refine_delay_near_ties_keep_several_grid_points(monkeypatch):
    """The screen keeps both halves of a near tie, and the exact stage then
    breaks it as the full grid does."""
    exact_shapes = []

    def recording_wrap(x):
        exact_shapes.append(np.shape(x))
        return wrap(x)

    monkeypatch.setattr(slot_detector, "_wrap", recording_wrap)
    cfg = DetectorConfig(k_max=1, eps=0.0, refine_window=0.1, refine_resolution=1e-4)
    for m in (2, 3, 6):
        for first in (0.3, -2.9, 3.1):
            for j in (-40, 0, 17):
                comps = tied_components(m, first, j, 1e-4)
                exact_shapes.clear()
                assert refine_delay(comps, cfg) == full_grid_delay(comps, cfg)
                # the exact stage's wraps see (m, survivors) arrays
                assert exact_shapes[0][0] == m and exact_shapes[0][1] >= 2


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 3.2, -3.2, np.nextafter(np.pi, 4.0)]
)
def test_refine_delay_rejects_components_outside_wrapped_range(bad):
    cfg = DetectorConfig(k_max=1, eps=0.0)
    for position in (0, 3):
        comps = np.full(6, 0.5)
        comps[position] = bad
        with pytest.raises(ValueError, match="finite and in"):
            refine_delay(comps, cfg)
    # the range is closed: both ends are accepted
    assert math.isfinite(refine_delay(np.array([np.pi, -np.pi, 0.0]), cfg))


def test_reconstruct_and_cancel():
    rng = np.random.default_rng(52)
    pair = transmit_pair(rng, 5)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    delta = -0.8
    Y = slot_of([pair], [h], [delta])
    rebuilt = reconstruct_signal(*pair, h, delta)
    np.testing.assert_allclose(rebuilt, Y, atol=1e-12)

    # cancelling the detector's own estimate leaves nothing behind
    det = detect_slot(Y, DetectorConfig(k_max=1, eps=1e-9))[0]
    residual = Y - reconstruct_signal(det.P, det.b, det.h_hat, det.delta_hat)
    assert np.linalg.norm(residual) < 1e-9


def test_reconstruct_signal_matches_einsum_oracle():
    """Bit for bit against outer(h, X e**(-i delta n)) with X from the
    quadratic form, at m = 2..14: a random pair and both copies of a
    transmit pair as the batch encoder builds them."""
    rng = np.random.default_rng(54)
    for m in range(2, 15):
        upper = np.triu(rng.integers(0, 2, size=(m, m), dtype=np.uint8))
        frame = FrameConfig(m, 1)
        payload = rng.integers(0, 2, size=frame.segment_bits - 2, dtype=np.uint8)
        segment = np.concatenate([[0, 1], payload])
        Ps, bs, _ = transmissions(segment, frame)
        random_pair = (upper | upper.T, rng.integers(0, 2, size=m, dtype=np.uint8))
        for P, b in (random_pair, (Ps[0], bs[0]), (Ps[1], bs[1])):
            h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            delta = float(rng.uniform(-math.pi, math.pi))
            X = einsum_samples_batch(P[None], b[None])[0]
            ramp = np.exp(-1j * delta * np.arange(1, X.size + 1))
            np.testing.assert_array_equal(reconstruct_signal(P, b, h, delta), np.outer(h, X * ramp))


def test_single_device_noiseless_round_trip():
    rng = np.random.default_rng(53)
    for m in (4, 6, 8):
        pair = transmit_pair(rng, m)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        delta = float(rng.uniform(-math.pi, math.pi))
        Y = slot_of([pair], [h], [delta], gamma=2.0)
        dets = detect_slot(Y, DetectorConfig(k_max=3, eps=1e-9))
        assert len(dets) == 1
        det = dets[0]
        assert found(det, pair)
        assert abs(wrap(det.delta_hat - delta)) <= 1e-6
        scale = math.sqrt(2.0)
        assert np.linalg.norm(det.h_hat - scale * h) <= 1e-9 * np.linalg.norm(scale * h)
        assert det.residual_after <= 1e-9
        assert det.delta_components.size == m


def test_two_devices_noiseless():
    """Both pairs are recovered, strongest first, and every kept iteration
    shrinks the residual."""
    rng = np.random.default_rng(54)
    pairs, hs = [], []
    for scale in (3.0, 1.0):
        pairs.append(transmit_pair(rng, 6, p=2))
        hs.append(scale * np.exp(1j * rng.uniform(0, 2 * math.pi, 16)))
    dets = detect_slot(slot_of(pairs, hs, [0.3, -1.1]), DetectorConfig(k_max=6, eps=1e-6))
    assert any(found(d, pairs[1]) for d in dets)
    assert found(dets[0], pairs[0])  # strongest first
    residuals = [d.residual_before for d in dets] + [dets[-1].residual_after]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    # cross terms keep the estimates from being exact, but cancellation still
    # drives the slot down to a small fraction of its initial energy
    assert dets[-1].residual_after <= 1e-2 * dets[0].residual_before


def test_synchronous_mode_decodes_top_layer_as_data():
    rng = np.random.default_rng(55)
    frame = FrameConfig(6, 2, tau_max=0.0)
    segment = np.zeros(frame.segment_bits, np.uint8)
    segment[2:] = rng.integers(0, 2, size=frame.segment_bits - 2, dtype=np.uint8)
    pair = segment_pair(segment, frame)
    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    cfg = DetectorConfig(k_max=2, eps=1e-9, estimate_delay=False)
    det = detect_slot(slot_of([pair], [h], [0.0]), cfg)[0]
    assert found(det, pair)
    assert det.delta_hat == 0.0
    assert not det.delta_components.any()
    np.testing.assert_allclose(det.h_hat, h, atol=1e-10)


def test_detect_slot_stopping_behavior():
    # a zero observation never enters the loop
    assert detect_slot(np.zeros((2, 16)), DetectorConfig(k_max=3, eps=1e-9)) == []
    # even a negative threshold exits cleanly once the peak degenerates
    assert detect_slot(np.zeros((2, 16)), DetectorConfig(k_max=3, eps=-1.0)) == []
    # pure noise: the loop keeps going only while cancellation helps, and a
    # detection that does not shrink the residual is dropped (possibly the
    # first one, leaving nothing)
    saw_detections = False
    for seed in range(56, 62):
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))
        dets = detect_slot(Y, DetectorConfig(k_max=10, eps=1e-9))
        assert len(dets) <= 10
        residuals = [d.residual_before for d in dets]
        if dets:
            saw_detections = True
            residuals.append(dets[-1].residual_after)
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert saw_detections


def test_detect_slot_validates_shape():
    with pytest.raises(ValueError):
        detect_slot(np.zeros((2, 24)), DetectorConfig(k_max=1, eps=0.0))
    with pytest.raises(ValueError):
        detect_slot(np.zeros((2, 2)), DetectorConfig(k_max=1, eps=0.0))
    with pytest.raises(ValueError):
        detect_slot(np.zeros(16), DetectorConfig(k_max=1, eps=0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_detect_slot_rejects_non_finite_observation(bad):
    Y = np.zeros((2, 16), dtype=complex)
    Y[1, 5] = bad
    for eps in (1e-9, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            detect_slot(Y, DetectorConfig(k_max=2, eps=eps))


def test_detect_slot_takes_any_memory_layout():
    rng = np.random.default_rng(59)
    pair = transmit_pair(rng, 5)
    Y = slot_of([pair], [rng.standard_normal(3) + 1j * rng.standard_normal(3)], [0.6])
    cfg = DetectorConfig(k_max=2, eps=1e-9)
    expected = detect_slot(Y, cfg)
    for layout in (np.asfortranarray(Y), np.repeat(Y, 2, axis=1)[:, ::2], Y.astype(np.complex64)):
        got = detect_slot(layout, cfg)
        assert len(got) == 1 and found(got[0], pair)
        if layout.dtype == Y.dtype:
            assert got[0].residual_after == expected[0].residual_after


def test_detect_slot_does_not_mutate_input():
    rng = np.random.default_rng(57)
    pair = transmit_pair(rng, 4)
    h = np.array([1.0, 0.5j])
    Y = slot_of([pair], [h], [0.1])
    before = Y.copy()
    detect_slot(Y, DetectorConfig(k_max=2, eps=1e-9))
    np.testing.assert_array_equal(Y, before)


def test_detection_arrays_are_read_only():
    rng = np.random.default_rng(60)
    pair = transmit_pair(rng, 4)
    Y = slot_of([pair], [np.array([1.0, 0.5j])], [0.1])
    det = detect_slot(Y, DetectorConfig(k_max=1, eps=1e-9))[0]
    assert det.P.dtype == det.b.dtype == np.uint8
    for arr in (det.P, det.b, det.h_hat, det.delta_components):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        det.P[0, 0] ^= 1
    with pytest.raises(ValueError):
        det.b[0] ^= 1
    assert not det.signal.flags.writeable
    with pytest.raises(ValueError, match="0 or 1"):
        Detection(np.array([[2]]), np.array([0]), np.ones(1), 0.0, np.zeros(1), 1.0, 0.5, 1)
    with pytest.raises(ValueError, match="signal"):
        Detection(det.P, det.b, det.h_hat, 0.1, det.delta_components, 1.0, 0.5, 1, np.ones((2, 8)))
    built = Detection(det.P, det.b, det.h_hat, 0.1, det.delta_components, 1.0, 0.5, 1, det.signal)
    assert not built.signal.flags.writeable


@st.composite
def slot_scenes(draw):
    """A slot carrying 1-4 random pairs (asynchronous ones with the reserved
    zeros) at m = 3..8 over r = 1..4 antennas, with or without noise, and a
    detector of the matching variant."""
    m, r, k = draw(st.integers(3, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    synchronous, noisy = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.integers(0, 2, size=(k, m, m), dtype=np.uint8))
    Ps = upper | np.swapaxes(upper, 1, 2)
    bs = rng.integers(0, 2, size=(k, m), dtype=np.uint8)
    if not synchronous:
        Ps[:, m - 1, m - 1] = bs[:, m - 1] = 0
    h = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
    h *= rng.uniform(0.2, 3.0, (k, 1))
    delta = np.zeros(k) if synchronous else rng.uniform(-math.pi, math.pi, k)
    Y = synthesize_slot(rm_samples_batch(Ps, bs), h, delta, 1.0)
    if noisy:
        Y = Y + 0.3 * (rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape))
    cfg = DetectorConfig(
        k_max=draw(st.integers(1, 6)),
        eps=draw(st.sampled_from([0.0, 1e-9, 1.0])),
        estimate_delay=not synchronous,
    )
    return Y, cfg


def _bits(value):
    return np.asarray(value).tobytes()


@settings(max_examples=150, deadline=None)
@given(slot_scenes())
def test_detect_slot_equals_numpy_reference(scene):
    """The kernel loop returns, bit for bit, what the same steps give in
    numpy's own forms over the oracle tables, the cancelled signal
    included."""
    Y, cfg = scene
    got = detect_slot(Y, cfg)
    want = reference_detect_slot(Y, cfg)
    assert len(got) == len(want)
    for det, expected in zip(got, want):
        fields = (det.P, det.b, det.h_hat, det.delta_hat, det.delta_components)
        fields += (det.residual_before, det.residual_after, det.iteration, det.signal)
        assert [_bits(x) for x in fields] == [_bits(x) for x in expected]


_BLAS_PROBE = """
import numpy as np
from rmaccess.access_pipeline import FrameConfig, transmissions
from rmaccess.geometry_channel import synthesize_slot
from rmaccess.rm_codec import rm_samples_batch
from rmaccess.slot_detector import DetectorConfig, detect_slot

rng = np.random.default_rng(58)
frame = FrameConfig(11, 1)
segments, h = [], []
for scale in (2.0, 1.0):
    payload = rng.integers(0, 2, size=frame.segment_bits - 2, dtype=np.uint8)
    segments.append(np.concatenate([[0, 1], payload]))
    h.append(scale * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=16)))
Ps, bs, _ = transmissions(np.stack(segments), frame)
X = rm_samples_batch(Ps[:, 0], bs[:, 0])
Y = synthesize_slot(X, np.stack(h), np.array([0.4, -1.3]), gamma=1.0)
Y = Y + 0.1 * (rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape))
for det in detect_slot(Y, DetectorConfig(k_max=3, eps=0.0)):
    print(det.P.tobytes().hex(), det.b.tobytes().hex(), det.h_hat.tobytes().hex(),
          det.delta_hat.hex(), det.residual_before.hex(), det.residual_after.hex())
"""


def test_detect_slot_independent_of_blas_threads(blas_thread_outputs):
    """An m = 11, r = 16 slot holds 32768 entries, enough for OpenBLAS to
    split a dot product across threads; detections and residual norms must
    not depend on that."""
    outputs = blas_thread_outputs(_BLAS_PROBE)
    assert outputs[0].strip()
    assert outputs[0] == outputs[1]
