"""Geometry and channel model tests: the closed-form neighbor and
interference expressions against numerical integrals and frozen values, the
frame sampler's draw conventions, and the slot synthesis paths."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc

from oracles import segment_pair, time_domain_reference
from rmaccess.access_pipeline import FrameConfig, draw_messages, segment_pair_bits
from rmaccess.geometry_channel import (
    GeometryConfig,
    Population,
    classify_neighbors,
    expected_neighbors,
    frame_observations,
    interference_power,
    sample_frame,
    synthesize_slot,
)
from rmaccess.rm_codec import bits_to_pair_batch, rm_samples, rm_samples_batch

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
    for field in dataclasses.fields(Population):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))
    c = sample_frame(geo, frame, np.random.default_rng(34))
    assert len(c) != len(a) or not np.array_equal(a.distance, c.distance)


def test_sample_frame_population_statistics():
    # Poisson count with mean density*area; gains unit-mean exponential
    frame = FrameConfig(m=2, p=0, tau_max=0.0)
    geo = GeometryConfig(density=8e-4, area=25_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=2)
    rng = np.random.default_rng(35)
    counts, gains = [], []
    for _ in range(1500):
        pop = sample_frame(geo, frame, rng)
        counts.append(len(pop))
        gains.extend(pop.gains[:3].mean(axis=1))
    assert np.mean(counts) == pytest.approx(20.0, abs=0.5)
    assert np.mean(gains) == pytest.approx(1.0, abs=0.05)


def test_sample_frame_channel_composition():
    frame = FrameConfig(m=4, p=2, d=1)
    geo = GeometryConfig(density=4e-4, area=62_500.0, alpha=4.0, theta=1e-6, gamma=1e6, r=3)
    pop = sample_frame(geo, frame, np.random.default_rng(36))
    k = len(pop)
    assert k > 0 and pop.h.shape == pop.gains.shape == pop.phases.shape == (k, geo.r)
    assert pop.info.shape == (k, frame.message_bits)
    assert pop.segments.shape == (k, frame.n_subblocks, frame.segment_bits)
    assert pop.slots.shape == (k, frame.n_subblocks, frame.copies)
    expect = pop.distance[:, None] ** (-geo.alpha / 2.0) * np.sqrt(pop.gains) * np.exp(1j * pop.phases)
    np.testing.assert_allclose(pop.h, expect, rtol=1e-12)
    assert (pop.distance <= geo.side / math.sqrt(2.0) + 1e-9).all()
    with pytest.raises(ValueError):
        pop.h[0, 0] = 0.0  # the population is read-only


def test_delay_conventions():
    """The normalized delay governs; tau is its clamp into the prefix window."""
    frame = FrameConfig(m=4, p=2, delta_f=15e3, tau_max=10e-6)
    geo = GeometryConfig(density=2e-3, area=62_500.0, alpha=4.0, theta=1e-6, gamma=1e6, r=1)
    pop = sample_frame(geo, frame, np.random.default_rng(37))
    deltas, taus = pop.delta, pop.tau
    assert deltas.min() >= -math.pi and deltas.max() < math.pi
    np.testing.assert_array_equal(
        taus, np.clip(deltas / (2.0 * math.pi * frame.delta_f), 0.0, frame.tau_max)
    )
    assert (taus == 0.0).any()  # negative deltas clamp to zero
    assert (taus == frame.tau_max).any()  # large positive deltas saturate

    sync = FrameConfig(m=4, p=2, tau_max=0.0)
    pop = sample_frame(geo, sync, np.random.default_rng(38))
    assert len(pop) and not pop.delta.any() and not pop.tau.any()


def _population(h, delta, messages):
    """Devices at distance 1 with channels h (k, r), delays (k,) and the
    stacked messages of draw_messages."""
    h = np.asarray(h, dtype=np.complex128)
    k = h.shape[0]
    return Population(np.ones(k), np.abs(h) ** 2, np.angle(h), h, np.zeros(k), delta, *messages)


def _random_population(frame, rng, k, r):
    h = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
    delta = rng.uniform(-math.pi, math.pi, size=k)
    return _population(h, delta, draw_messages(frame, rng, k))


def test_classify_neighbors_boundary():
    frame = FrameConfig(m=4, p=2)
    geo = GeometryConfig(density=1e-4, area=1e4, alpha=4.0, theta=1e-6, gamma=1e6, r=2)
    threshold = geo.r * geo.theta
    d = 16.0  # d**4 is a power of two, so the first aggregate hits the threshold exactly
    totals = threshold * d**4 * np.array([1.0, 0.999, 1.001])  # exactly, below, above
    gains = np.repeat(totals[:, None] / 2.0, 2, axis=1)
    pop = Population(
        np.full(3, d), gains, np.zeros((3, 2)), d ** (-2.0) * np.sqrt(gains),
        np.zeros(3), np.zeros(3), *draw_messages(frame, np.random.default_rng(39), 3),
    )
    assert d ** (-geo.alpha) * gains[0].sum() == threshold
    np.testing.assert_array_equal(classify_neighbors(pop, geo), [True, False, True])


@pytest.mark.parametrize("r", [1, 16])
def test_classify_neighbors_matches_scalar_formula(r):
    """The vectorized mask against the per-device formula it replaced."""
    frame = FrameConfig(m=4, p=2)
    geo = GeometryConfig(density=2e-3, area=250_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=r)
    pop = sample_frame(geo, frame, np.random.default_rng(48))
    scalar = [
        float(float(d) ** (-geo.alpha) * g.sum()) >= geo.r * geo.theta
        for d, g in zip(pop.distance, pop.gains)
    ]
    mask = classify_neighbors(pop, geo)
    assert mask.dtype == bool and 0 < mask.sum() < len(pop)
    np.testing.assert_array_equal(mask, scalar)


def _rejects(pop, **bad):
    with pytest.raises(ValueError):
        dataclasses.replace(pop, **bad)


def test_population_rejects_mismatched_counts():
    pop = _random_population(FrameConfig(m=4, p=2, d=1), np.random.default_rng(49), 5, 2)
    _rejects(pop, distance=np.ones(4))
    _rejects(pop, delta=np.zeros(6))
    _rejects(pop, info=pop.info[:4])
    _rejects(pop, slots=pop.slots[:4])


def test_population_rejects_mismatched_channel_shapes():
    pop = _random_population(FrameConfig(m=4, p=2, d=1), np.random.default_rng(50), 5, 2)
    _rejects(pop, gains=pop.gains[:, 0])  # not 2-D
    _rejects(pop, h=pop.h[:, :1])  # another antenna count
    _rejects(pop, phases=np.zeros((5, 3)))
    _rejects(pop, distance=np.ones((5, 1)))


def test_population_rejects_flat_segments_and_slots():
    pop = _random_population(FrameConfig(m=4, p=2, d=1), np.random.default_rng(51), 5, 2)
    _rejects(pop, segments=pop.segments[:, 0])
    _rejects(pop, slots=pop.slots[:, :, 0])
    _rejects(pop, slots=pop.slots[:, :1])  # sub-block count differs from segments'
    assert len(dataclasses.replace(pop)) == 5


def test_frame_observations_rejects_mismatched_plan():
    frame = FrameConfig(m=4, p=2, d=1)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1.0, r=2)
    pop = _random_population(frame, np.random.default_rng(52), 5, 2)
    frame_observations(pop, frame, geo, noise_on=False)
    # a plan drawn for another frame: sub-block count, copy count, segment size
    for other, reason in [
        (FrameConfig(m=4, p=2, d=0), "slots"),
        (FrameConfig(m=4, p=2, d=1, tau_max=0.0), "slots"),
        (FrameConfig(m=5, p=2, d=1), "segments"),
    ]:
        with pytest.raises(ValueError, match=f"^{reason} of"):
            frame_observations(pop, other, geo, noise_on=False)
    with pytest.raises(ValueError, match="antenna count"):
        frame_observations(pop, frame, dataclasses.replace(geo, r=3), noise_on=False)


def _random_codewords(rng, m, k):
    """k random sequences of order m as a (k, 2**m) stack."""
    bits = rng.integers(0, 2, size=(k, m * (m + 3) // 2), dtype=np.uint8)
    return rm_samples_batch(*bits_to_pair_batch(bits))


def test_synthesize_slot_matches_pointwise_formula():
    rng = np.random.default_rng(40)
    X = _random_codewords(rng, 3, 3)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    delta = rng.uniform(-math.pi, math.pi, size=3)
    gamma = 2.5
    Y = synthesize_slot(X, h, delta, gamma)
    assert Y.shape == (2, 8)
    for l in range(2):
        for nn in range(8):
            expect = sum(
                math.sqrt(gamma) * h[k, l] * X[k, nn] * np.exp(-1j * delta[k] * (nn + 1))
                for k in range(3)
            )
            assert abs(Y[l, nn] - expect) < 1e-12


def test_synthesize_slot_empty_and_mismatched_k():
    empty = synthesize_slot(np.zeros((0, 16)), np.zeros((0, 3)), np.zeros(0), gamma=1.0)
    assert empty.shape == (3, 16) and not empty.any()
    X = _random_codewords(np.random.default_rng(41), 4, 2)
    h, delta = np.ones((2, 3)), np.zeros(2)
    assert synthesize_slot(X, h, delta, 1.0).shape == (3, 16)
    for bad in [(X[:1], h, delta), (X, h[:1], delta), (X, h, delta[:1]), (X[0], h, delta)]:
        with pytest.raises(ValueError, match="expected X"):
            synthesize_slot(*bad, gamma=1.0)


def test_frame_observations_returns_read_only_array():
    frame = FrameConfig(m=4, p=2, d=1)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1.0, r=3)
    pop = _random_population(frame, np.random.default_rng(41), 4, geo.r)
    for rng in (None, np.random.default_rng(7)):
        Y = frame_observations(pop, frame, geo, rng, noise_on=rng is not None)
        assert isinstance(Y, np.ndarray) and Y.dtype == np.complex128
        assert Y.shape == (frame.n_subblocks, frame.n_slots, geo.r, frame.seq_len)
        with pytest.raises(ValueError):
            Y[0, 0, 0, 0] = 1.0


def test_frame_observations_matches_manual_superposition():
    """The batched grid builder agrees with a per-device, per-copy loop
    through the field-by-field encoder."""
    frame = FrameConfig(m=4, p=2, d=1)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=3.0, r=2)
    pop = _random_population(frame, np.random.default_rng(42), 4, geo.r)
    got = frame_observations(pop, frame, geo, noise_on=False)
    n = frame.seq_len
    ramp_base = np.arange(1, n + 1)
    expected = np.zeros((frame.n_subblocks, frame.n_slots, geo.r, n), dtype=complex)
    for k in range(len(pop)):
        ramp = np.exp(-1j * pop.delta[k] * ramp_base)
        for j in range(frame.n_subblocks):
            seg = pop.segments[k, j]
            for c in range(frame.copies):
                pair = segment_pair(seg, frame, c == 1)
                X = rm_samples(pair.P, pair.b)
                slot = int(pop.slots[k, j, c])
                expected[j, slot] += math.sqrt(geo.gamma) * np.outer(pop.h[k], X * ramp)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_frame_observations_noise_is_additive_and_seeded():
    frame = FrameConfig(m=4, p=2)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1.0, r=2)
    rng = np.random.default_rng(43)
    pop = _population([[1.0 + 0.3j, -0.2j]], [0.5], draw_messages(frame, rng, 1))
    empty = _population(np.zeros((0, 2)), [], draw_messages(frame, rng, 0))
    total = frame_observations(pop, frame, geo, np.random.default_rng(7), noise_on=True)
    noise = frame_observations(empty, frame, geo, np.random.default_rng(7), noise_on=True)
    signal = frame_observations(pop, frame, geo, noise_on=False)
    np.testing.assert_allclose(total, noise + signal, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        frame_observations(pop, frame, geo, noise_on=True)  # no generator


def mask_loop_observations(pop, frame, cfg, rng):
    # whole-population codewords and ramps, then one boolean mask per landed
    # slot: the synthesis loop frame_observations replaced
    r, n = cfg.r, frame.seq_len
    n_sub, n_slots = frame.n_subblocks, frame.n_slots
    shape = (n_sub, n_slots, r, n)
    Y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    k = len(pop)
    if k:
        ramp = np.exp(-1j * np.outer(pop.delta, np.arange(1, n + 1)))
        flat = pop.segments.reshape(k * n_sub, frame.segment_bits)
        amp = math.sqrt(cfg.gamma)
        for c in range(frame.copies):
            bits = segment_pair_bits(flat, frame, np.full(k * n_sub, c == 1))
            X = rm_samples_batch(*bits_to_pair_batch(bits)).reshape(k, n_sub, n)
            X = X * ramp[:, None, :]
            for j in range(n_sub):
                landed = pop.slots[:, j, c]
                for i in np.unique(landed):
                    sel = landed == i
                    Y[j, i] += amp * np.einsum("kl,kn->ln", pop.h[sel], X[sel, j])
    return Y


def _assert_matches_mask_loop(pop, frame, geo, seed=5):
    got = frame_observations(pop, frame, geo, np.random.default_rng(seed))
    expected = mask_loop_observations(pop, frame, geo, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, expected)


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
    pop = sample_frame(geo, frame, np.random.default_rng(46))
    assert len(pop) > 2 * frame.n_slots
    _assert_matches_mask_loop(pop, frame, geo)


def test_frame_observations_exact_with_empty_slots():
    frame = FrameConfig(m=4, p=4, d=1)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=3.0, r=2)
    rng = np.random.default_rng(47)
    pop = _random_population(frame, rng, 3, geo.r)
    assert len(np.unique(pop.slots[:, 0, :])) < frame.n_slots  # some slot stays empty
    _assert_matches_mask_loop(pop, frame, geo)
    _assert_matches_mask_loop(sample_frame(geo, frame, rng), frame, geo)  # no devices


def test_time_domain_reference_equivalence():
    # the long way through waveform, sampling, prefix discard and projection
    rng = np.random.default_rng(44)
    for m in (5, 6):
        for _ in range(3):
            k = int(rng.integers(1, 5))
            X = _random_codewords(rng, m, k)
            h = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
            tau = rng.uniform(0.0, 10e-6, size=k)
            ref = time_domain_reference(X, h, tau, delta_f=15e3, tau_max=10e-6, gamma=2.0)
            fast = synthesize_slot(X, h, 2.0 * math.pi * 15e3 * tau, gamma=2.0)
            err = np.linalg.norm(ref - fast) / np.linalg.norm(fast)
            assert err <= 1e-9


def test_time_domain_reference_rejects_out_of_window_delay():
    X = _random_codewords(np.random.default_rng(45), 5, 1)
    for tau in (11e-6, -1e-9):
        with pytest.raises(ValueError, match="prefix window"):
            time_domain_reference(X, np.ones((1, 1)), [tau], 15e3, 10e-6, 1.0)


def test_prefix_length_values():
    assert FrameConfig(m=5, p=2).prefix_len == 5
    assert FrameConfig(m=6, p=2).prefix_len == 10
    assert FrameConfig(m=6, p=2, tau_max=0.0).prefix_len == 0
