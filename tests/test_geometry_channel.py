"""Geometry and channel model tests: the closed-form neighbor and
interference expressions against numerical integrals and frozen values, the
frame sampler's draw conventions, and the slot synthesis paths."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc

from rmaccess.access_pipeline import FrameConfig, draw_messages
from rmaccess.geometry_channel import (
    DeviceRealization,
    GeometryConfig,
    classify_neighbors,
    expected_neighbors,
    frame_observations,
    interference_power,
    sample_frame,
    synthesize_slot,
    time_domain_reference,
)
from rmaccess.rm_codec import bits_to_pair, bits_to_pair_batch, generate_sequence, rm_samples_batch
from rmaccess.access_pipeline import segment_pair, segment_pair_bits

# the standard operating geometry: 4000 devices per km^2, 60 dB power
GEO_R1 = GeometryConfig(density=0.004, area=250_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=1)
GEO_R16 = GeometryConfig(density=0.004, area=250_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=16)


def test_closed_forms_frozen_values():
    assert expected_neighbors(GEO_R1) == pytest.approx(11.136655993663414, rel=1e-12)
    assert expected_neighbors(GEO_R16) == pytest.approx(12.468594178495989, rel=1e-12)
    assert interference_power(GEO_R1) == pytest.approx(11.136655993663416, rel=1e-12)
    assert interference_power(GEO_R16) == pytest.approx(199.49750685593585, rel=1e-12)


def test_closed_forms_against_quadrature():
    """Radial integrals over the point process, done numerically.

    A device at range x is a neighbor when its aggregate gain S ~ Gamma(r, 1)
    satisfies S >= r theta x^alpha, so the neighbor count is
    2 pi lam int x P(S >= r theta x^alpha) dx and the out-of-cell power is
    2 pi lam gamma int x^(1-alpha) E[S; S < r theta x^alpha] dx with
    E[S; S < c] = r P(Gamma(r+1) < c).
    """
    for geo in (GEO_R1, GEO_R16, GeometryConfig(0.002, 1e5, 3.5, 1e-6, 1e5, 4)):
        lam, alpha, th, r = geo.density, geo.alpha, geo.theta, geo.r
        k_num, _ = quad(lambda x: 2 * math.pi * lam * x * gammaincc(r, r * th * x**alpha), 0, np.inf)
        s_num, _ = quad(
            lambda x: 2 * math.pi * lam * geo.gamma * x ** (1 - alpha) * r * gammainc(r + 1, r * th * x**alpha),
            0,
            np.inf,
        )
        assert expected_neighbors(geo) == pytest.approx(k_num, rel=1e-6)
        assert interference_power(geo) == pytest.approx(s_num, rel=1e-6)


def test_geometry_validation():
    with pytest.raises(ValueError):
        GeometryConfig(0.004, 250_000.0, 2.0, 1e-6, 1e6, 1)  # alpha must exceed 2
    with pytest.raises(ValueError):
        GeometryConfig(-0.1, 250_000.0, 4.0, 1e-6, 1e6, 1)
    with pytest.raises(ValueError):
        GeometryConfig(0.004, 250_000.0, 4.0, 1e-6, 1e6, 0)
    assert GeometryConfig(0.004, 250_000.0, 4.0, 1e-6, 1e6, 1).side == pytest.approx(500.0)


def test_sample_frame_is_reproducible():
    frame = FrameConfig(m=4, p=2)
    geo = GeometryConfig(density=4e-4, area=62_500.0, alpha=4.0, theta=1e-6, gamma=1e6, r=2)
    a = sample_frame(geo, frame, np.random.default_rng(33))
    b = sample_frame(geo, frame, np.random.default_rng(33))
    assert len(a) == len(b)
    for da, db in zip(a, b):
        assert da.distance == db.distance
        np.testing.assert_array_equal(da.h, db.h)
        assert da.delta == db.delta and da.tau == db.tau
        np.testing.assert_array_equal(da.message.info, db.message.info)
        np.testing.assert_array_equal(da.message.slots, db.message.slots)
    c = sample_frame(geo, frame, np.random.default_rng(34))
    assert len(c) != len(a) or any(
        da.distance != dc.distance for da, dc in zip(a, c)
    )


def test_sample_frame_population_statistics():
    # Poisson count with mean density*area; gains unit-mean exponential
    frame = FrameConfig(m=2, p=0, tau_max=0.0)
    geo = GeometryConfig(density=8e-4, area=25_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=2)
    rng = np.random.default_rng(35)
    counts, gains = [], []
    for _ in range(1500):
        devs = sample_frame(geo, frame, rng)
        counts.append(len(devs))
        gains.extend(dev.gains.mean() for dev in devs[:3])
    assert np.mean(counts) == pytest.approx(20.0, abs=0.5)
    assert np.mean(gains) == pytest.approx(1.0, abs=0.05)


def test_sample_frame_channel_composition():
    frame = FrameConfig(m=4, p=2)
    geo = GeometryConfig(density=4e-4, area=62_500.0, alpha=4.0, theta=1e-6, gamma=1e6, r=3)
    for dev in sample_frame(geo, frame, np.random.default_rng(36)):
        expect = dev.distance ** (-geo.alpha / 2.0) * np.sqrt(dev.gains) * np.exp(1j * dev.phases)
        np.testing.assert_allclose(dev.h, expect, rtol=1e-12)
        assert dev.distance <= geo.side / math.sqrt(2.0) + 1e-9


def test_delay_conventions():
    """The normalized delay governs; tau is its clamp into the prefix window."""
    frame = FrameConfig(m=4, p=2, delta_f=15e3, tau_max=10e-6)
    geo = GeometryConfig(density=2e-3, area=62_500.0, alpha=4.0, theta=1e-6, gamma=1e6, r=1)
    devs = sample_frame(geo, frame, np.random.default_rng(37))
    deltas = np.array([d.delta for d in devs])
    taus = np.array([d.tau for d in devs])
    assert deltas.min() >= -math.pi and deltas.max() < math.pi
    np.testing.assert_array_equal(
        taus, np.clip(deltas / (2.0 * math.pi * frame.delta_f), 0.0, frame.tau_max)
    )
    assert (taus == 0.0).any()  # negative deltas clamp to zero
    assert (taus == frame.tau_max).any()  # large positive deltas saturate

    sync = FrameConfig(m=4, p=2, tau_max=0.0)
    for dev in sample_frame(geo, sync, np.random.default_rng(38)):
        assert dev.delta == 0.0 and dev.tau == 0.0


def _payload_device(frame, rng, h, delta=0.0):
    msg = draw_messages(frame, rng, 1)[0]
    return DeviceRealization(
        distance=1.0,
        gains=np.abs(h) ** 2,
        phases=np.angle(h),
        h=h,
        tau=0.0,
        delta=delta,
        message=msg,
    )


def test_classify_neighbors_boundary():
    frame = FrameConfig(m=4, p=2)
    geo = GeometryConfig(density=1e-4, area=1e4, alpha=4.0, theta=1e-6, gamma=1e6, r=2)
    rng = np.random.default_rng(39)
    msg = draw_messages(frame, rng, 1)[0]

    def dev_at(distance, gain_total):
        gains = np.full(2, gain_total / 2.0)
        return DeviceRealization(
            distance=distance, gains=gains, phases=np.zeros(2),
            h=distance ** (-2.0) * np.sqrt(gains), tau=0.0, delta=0.0, message=msg,
        )

    threshold = geo.r * geo.theta
    d = 20.0
    exactly = dev_at(d, threshold * d**4)
    below = dev_at(d, threshold * d**4 * 0.999)
    above = dev_at(d, threshold * d**4 * 1.001)
    in_cell, out_cell = classify_neighbors([exactly, below, above], geo)
    assert any(d is exactly for d in in_cell) and any(d is above for d in in_cell)
    assert any(d is below for d in out_cell) and len(out_cell) == 1


def test_synthesize_slot_matches_pointwise_formula():
    rng = np.random.default_rng(40)
    frame = FrameConfig(m=3, p=1)
    tx = []
    for _ in range(3):
        bits = rng.integers(0, 2, size=9, dtype=np.uint8)
        word = generate_sequence(bits_to_pair(bits))
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        delta = float(rng.uniform(-math.pi, math.pi))
        tx.append((word, h, delta))
    gamma = 2.5
    obs = synthesize_slot(tx, gamma, noise_on=False)
    n = frame.seq_len
    for l in range(2):
        for nn in range(n):
            expect = sum(
                math.sqrt(gamma) * h[l] * w.samples[nn] * np.exp(-1j * d * (nn + 1))
                for w, h, d in tx
            )
            assert abs(obs.Y[l, nn] - expect) < 1e-12


def test_synthesize_slot_empty_and_noise():
    empty = synthesize_slot([], gamma=1.0, noise_on=False, r=3, n=16)
    assert empty.Y.shape == (3, 16) and not empty.Y.any()
    with pytest.raises(ValueError):
        synthesize_slot([], gamma=1.0, noise_on=False)  # dimensions unknown
    with pytest.raises(ValueError):
        synthesize_slot([], gamma=1.0, noise_on=True, r=3, n=16)  # needs a generator
    a = synthesize_slot([], 1.0, True, np.random.default_rng(41), r=2, n=512)
    b = synthesize_slot([], 1.0, True, np.random.default_rng(41), r=2, n=512)
    np.testing.assert_array_equal(a.Y, b.Y)
    assert np.mean(np.abs(a.Y) ** 2) == pytest.approx(1.0, rel=0.1)


def test_slot_observation_is_read_only():
    obs = synthesize_slot([], gamma=1.0, noise_on=False, r=2, n=8)
    with pytest.raises(ValueError):
        obs.Y[0, 0] = 1.0


def test_frame_observations_matches_manual_superposition():
    """The batched grid builder agrees with a per-device, per-copy loop
    through the single-pair encoder."""
    frame = FrameConfig(m=4, p=2, d=1)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=3.0, r=2)
    rng = np.random.default_rng(42)
    devices = [
        _payload_device(frame, rng, rng.standard_normal(2) + 1j * rng.standard_normal(2),
                        float(rng.uniform(-math.pi, math.pi)))
        for _ in range(4)
    ]
    got = frame_observations(devices, frame, geo, noise_on=False)
    n = frame.seq_len
    ramp_base = np.arange(1, n + 1)
    expected = np.zeros((frame.n_subblocks, frame.n_slots, geo.r, n), dtype=complex)
    for dev in devices:
        ramp = np.exp(-1j * dev.delta * ramp_base)
        for j in range(frame.n_subblocks):
            for c in range(frame.copies):
                pair = segment_pair(dev.message.segments[j], frame, c == 1)
                X = generate_sequence(pair).samples
                slot = int(dev.message.slots[j, c])
                expected[j, slot] += math.sqrt(geo.gamma) * np.outer(dev.h, X * ramp)
    for j in range(frame.n_subblocks):
        for i in range(frame.n_slots):
            assert got[j][i].slot == i
            np.testing.assert_allclose(got[j][i].Y, expected[j, i], atol=1e-10)


def test_frame_observations_noise_is_additive_and_seeded():
    frame = FrameConfig(m=4, p=2)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1.0, r=2)
    rng = np.random.default_rng(43)
    devices = [_payload_device(frame, rng, np.array([1.0 + 0.3j, -0.2j]), 0.5)]
    total = frame_observations(devices, frame, geo, np.random.default_rng(7), noise_on=True)
    noise = frame_observations([], frame, geo, np.random.default_rng(7), noise_on=True)
    signal = frame_observations(devices, frame, geo, noise_on=False)
    for j in range(frame.n_subblocks):
        for i in range(frame.n_slots):
            np.testing.assert_allclose(
                total[j][i].Y, noise[j][i].Y + signal[j][i].Y, rtol=1e-12, atol=1e-12
            )
    with pytest.raises(ValueError):
        frame_observations(devices, frame, geo, noise_on=True)  # no generator


def mask_loop_observations(devices, frame, cfg, rng):
    # whole-population codewords and ramps, then one boolean mask per landed
    # slot: the synthesis loop frame_observations replaced
    r, n = cfg.r, frame.seq_len
    n_sub, n_slots = frame.n_subblocks, frame.n_slots
    shape = (n_sub, n_slots, r, n)
    Y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    if devices:
        k = len(devices)
        segments = np.stack([dev.message.segments for dev in devices])
        slots = np.stack([dev.message.slots for dev in devices])
        h = np.stack([dev.h for dev in devices])
        delta = np.array([dev.delta for dev in devices])
        ramp = np.exp(-1j * np.outer(delta, np.arange(1, n + 1)))
        flat = segments.reshape(k * n_sub, frame.segment_bits)
        amp = math.sqrt(cfg.gamma)
        for c in range(frame.copies):
            bits = segment_pair_bits(flat, frame, np.full(k * n_sub, c == 1))
            X = rm_samples_batch(*bits_to_pair_batch(bits)).reshape(k, n_sub, n)
            X = X * ramp[:, None, :]
            for j in range(n_sub):
                landed = slots[:, j, c]
                for i in np.unique(landed):
                    sel = landed == i
                    Y[j, i] += amp * np.einsum("kl,kn->ln", h[sel], X[sel, j])
    return Y


def _assert_matches_mask_loop(devices, frame, geo, seed=5):
    got = frame_observations(devices, frame, geo, np.random.default_rng(seed))
    expected = mask_loop_observations(devices, frame, geo, np.random.default_rng(seed))
    for j in range(frame.n_subblocks):
        for i in range(frame.n_slots):
            assert got[j][i].slot == i
            np.testing.assert_array_equal(got[j][i].Y, expected[j, i])


@pytest.mark.parametrize(
    "frame",
    [
        FrameConfig(m=4, p=2, d=0),
        FrameConfig(m=5, p=2, d=1),
        FrameConfig(m=6, p=3, d=2),
        FrameConfig(m=5, p=2, tau_max=0.0),
    ],
    ids=["async-d0", "async-d1", "async-d2", "sync"],
)
def test_frame_observations_equals_mask_loop_exactly(frame):
    """Slot-group synthesis performs the same floating-point operations as
    the whole-population mask loop, so every observation is bit-identical."""
    geo = GeometryConfig(density=2e-3, area=20_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=3)
    devices = sample_frame(geo, frame, np.random.default_rng(46))
    assert len(devices) > 2 * frame.n_slots
    _assert_matches_mask_loop(devices, frame, geo)


def test_frame_observations_exact_with_empty_slots():
    frame = FrameConfig(m=4, p=4, d=1)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=3.0, r=2)
    rng = np.random.default_rng(47)
    devices = [
        _payload_device(frame, rng, rng.standard_normal(2) + 1j * rng.standard_normal(2),
                        float(rng.uniform(-math.pi, math.pi)))
        for _ in range(3)
    ]
    landed = np.stack([dev.message.slots for dev in devices])
    assert len(np.unique(landed[:, 0, :])) < frame.n_slots  # some slot stays empty
    _assert_matches_mask_loop(devices, frame, geo)
    _assert_matches_mask_loop([], frame, geo)


def test_time_domain_reference_equivalence():
    # the long way through waveform, sampling, prefix discard and projection
    rng = np.random.default_rng(44)
    for m in (5, 6):
        for _ in range(3):
            n = 1 << m
            tx = []
            for _ in range(int(rng.integers(1, 5))):
                bits = rng.integers(0, 2, size=m * (m + 3) // 2, dtype=np.uint8)
                word = generate_sequence(bits_to_pair(bits))
                h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                tau = float(rng.uniform(0.0, 10e-6))
                tx.append((word, h, tau))
            ref = time_domain_reference(tx, delta_f=15e3, tau_max=10e-6, gamma=2.0)
            fast = synthesize_slot(
                [(w, h, 2.0 * math.pi * 15e3 * tau) for w, h, tau in tx],
                gamma=2.0,
                noise_on=False,
            )
            err = np.linalg.norm(ref.Y - fast.Y) / np.linalg.norm(fast.Y)
            assert err <= 1e-9


def test_time_domain_reference_rejects_out_of_window_delay():
    rng = np.random.default_rng(45)
    bits = rng.integers(0, 2, size=20, dtype=np.uint8)
    word = generate_sequence(bits_to_pair(bits))
    with pytest.raises(ValueError):
        time_domain_reference([(word, np.ones(1), 11e-6)], 15e3, 10e-6, 1.0)
    with pytest.raises(ValueError):
        time_domain_reference([(word, np.ones(1), -1e-9)], 15e3, 10e-6, 1.0)


def test_prefix_length_values():
    assert FrameConfig(m=5, p=2).prefix_len == 5
    assert FrameConfig(m=6, p=2).prefix_len == 10
    assert FrameConfig(m=6, p=2, tau_max=0.0).prefix_len == 0
