"""Geometry and channel model tests: the closed-form neighbor and
interference expressions against numerical integrals and frozen values, the
frame sampler's draw conventions, and the slot synthesis paths."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc

from oracles import bit_table, bits_value, einsum_synthesis, segment_pair, time_domain_reference
from rmaccess.access_pipeline import FrameConfig, draw_messages, transmissions, tree_encode
from rmaccess.geometry_channel import (
    GeometryConfig,
    Population,
    _ramp,
    classify_neighbors,
    expected_neighbors,
    frame_observations,
    interference_power,
    sample_frame,
    synthesize_slot,
)
from rmaccess.rm_codec import bits_to_pair_batch, rm_samples, rm_samples_batch
from rmaccess.sim_cli import ExperimentSpec

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


_FRAME = FrameConfig(m=6, p=6)
_BASELINE = dict(K=1000, r=16, m=6, p=6, d=0)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: dataclasses.replace(GEO_R1, alpha=math.nan), "alpha"),
        (lambda: dataclasses.replace(GEO_R1, theta=math.nan), "theta"),
        (lambda: dataclasses.replace(GEO_R1, gamma=math.nan), "gamma"),
        (lambda: dataclasses.replace(GEO_R1, density=math.nan), "density"),
        (lambda: dataclasses.replace(GEO_R1, density=math.inf), "density"),
        (lambda: dataclasses.replace(GEO_R1, area=math.inf), "area"),
        (lambda: dataclasses.replace(_FRAME, delta_f=math.nan), "delta_f"),
        (lambda: dataclasses.replace(_FRAME, tau_max=math.nan), "tau_max"),
        (lambda: dataclasses.replace(_FRAME, tau_max=math.inf), "tau_max"),
        (lambda: ExperimentSpec(gamma_db=math.nan).geometry_for(_BASELINE), "gamma"),
    ],
    ids=[
        "alpha-nan", "theta-nan", "gamma-nan", "density-nan", "density-inf", "area-inf",
        "delta_f-nan", "tau_max-nan", "tau_max-inf", "spec-gamma_db-nan",
    ],
)
def test_configs_reject_non_finite_physics(build, name):
    """NaN passes every ordered comparison's negation, so each bound check
    alone would let it through to a NaN closed form or a failing draw."""
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build()


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
    assert k > 0 and pop.h.shape == pop.gains.shape == (k, geo.r)
    assert pop.info.shape == (k, frame.message_bits)
    # exactly what sample_frame draws; segments and slots derive from info
    assert [f.name for f in dataclasses.fields(Population)] == [
        "distance", "gains", "h", "delta", "info"
    ]
    # the fading phases live only in h, so its power carries the check
    expect = pop.distance[:, None] ** (-geo.alpha) * pop.gains
    np.testing.assert_allclose(np.abs(pop.h) ** 2, expect, rtol=1e-12)
    assert (pop.distance <= geo.side / math.sqrt(2.0) + 1e-9).all()
    with pytest.raises(ValueError):
        pop.h[0, 0] = 0.0  # the population is read-only


def test_delay_conventions():
    """Normalized delays are uniform on [-pi, pi), and zero synchronously."""
    frame = FrameConfig(m=4, p=2, delta_f=15e3, tau_max=10e-6)
    geo = GeometryConfig(density=2e-3, area=62_500.0, alpha=4.0, theta=1e-6, gamma=1e6, r=1)
    pop = sample_frame(geo, frame, np.random.default_rng(37))
    assert pop.delta.min() >= -math.pi and pop.delta.max() < math.pi
    assert (pop.delta < 0).any() and (pop.delta > 0).any()

    sync = FrameConfig(m=4, p=2, tau_max=0.0)
    pop = sample_frame(geo, sync, np.random.default_rng(38))
    assert len(pop) and not pop.delta.any()


def _population(h, delta, info):
    """Devices at distance 1 with channels h (k, r), delays (k,) and the
    message bits info (k, B) of draw_messages."""
    h = np.asarray(h, dtype=np.complex128)
    k = h.shape[0]
    return Population(np.ones(k), np.abs(h) ** 2, h, delta, info)


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
        np.full(3, d), gains, d ** (-2.0) * np.sqrt(gains), np.zeros(3),
        draw_messages(frame, np.random.default_rng(39), 3),
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


def test_population_rejects_mismatched_channel_shapes():
    pop = _random_population(FrameConfig(m=4, p=2, d=1), np.random.default_rng(50), 5, 2)
    _rejects(pop, gains=pop.gains[:, 0])  # not 2-D
    _rejects(pop, h=pop.h[:, :1])  # another antenna count
    _rejects(pop, gains=np.zeros((5, 3)))
    _rejects(pop, distance=np.ones((5, 1)))


def test_population_rejects_flat_info():
    pop = _random_population(FrameConfig(m=4, p=2, d=1), np.random.default_rng(51), 5, 2)
    _rejects(pop, info=pop.info[:, 0])
    _rejects(pop, info=pop.info[:, :, None])
    assert len(dataclasses.replace(pop)) == 5


def test_frame_observations_rejects_mismatched_plan():
    frame = FrameConfig(m=4, p=2, d=1)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1.0, r=2)
    pop = _random_population(frame, np.random.default_rng(52), 5, 2)
    frame_observations(pop, frame, geo)
    # messages drawn for another frame: sub-block count, copy count, segment
    # size each change the message width, which the tree encoder checks
    for other in [
        FrameConfig(m=4, p=2, d=0),
        FrameConfig(m=4, p=2, d=1, tau_max=0.0),
        FrameConfig(m=5, p=2, d=1),
    ]:
        with pytest.raises(ValueError, match=r"^expected \(k, \d+\) info bits"):
            frame_observations(pop, other, geo)
    with pytest.raises(ValueError, match="antenna count"):
        frame_observations(pop, frame, dataclasses.replace(geo, r=3))


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


@pytest.mark.parametrize("m", [6, 10])
@pytest.mark.parametrize("k", [1, 63, 64, 65, 200, 1000])
def test_synthesize_slot_matches_einsum_formula(k, m):
    """Device blocks of every fill, with random and with all-zero delays
    (where the kernel skips the ramp), against the unblocked einsum."""
    rng = np.random.default_rng(1000 * m + k)
    X = _random_codewords(rng, m, k)
    h = rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
    for delta in (rng.uniform(-math.pi, math.pi, size=k), np.zeros(k)):
        Y = synthesize_slot(X, h, delta, gamma=2.5)
        expected = einsum_synthesis(X, h, delta, gamma=2.5)
        assert Y.shape == expected.shape == (4, 2**m)
        assert np.abs(Y - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("m", range(1, 15))
def test_two_level_ramp_is_within_its_bound(m):
    """The product of coarse and fine phasors errs from the direct
    np.exp(-1j delta n) by at most (|delta| n + 1) 2**-51 at every sample,
    and a zero delay gives exactly 1.  The bound grows with delta n because
    the direct form itself rounds the angle delta n before its exp."""
    n = 1 << m
    rng = np.random.default_rng(2000 + m)
    edges = [0.0, math.pi, -math.pi, np.nextafter(math.pi, 0.0), -0.0]
    delta = np.concatenate([edges, rng.uniform(-math.pi, math.pi, 2000)])
    samples = np.arange(1, n + 1)
    worst = 0.0
    for s in range(0, delta.size, max(1, (1 << 16) // n)):
        d = delta[s : s + max(1, (1 << 16) // n)]
        got = _ramp(d, n)
        assert got.shape == (d.size, n)
        err = np.abs(got - np.exp(-1j * np.outer(d, samples)))
        worst = max(worst, float((err / ((np.abs(d)[:, None] * samples + 1.0) * 2.0**-51)).max()))
        assert np.all(got[d == 0.0] == 1.0)
    assert worst <= 1.0


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
        Y = frame_observations(pop, frame, geo, rng)
        assert isinstance(Y, np.ndarray) and Y.dtype == np.complex128
        assert Y.shape == (frame.n_subblocks, frame.n_slots, geo.r, frame.seq_len)
        with pytest.raises(ValueError):
            Y[0, 0, 0, 0] = 1.0


def _oracle_slots(segment, frame):
    """Landed slot of each copy of one segment: the first p bits, then
    asynchronously that slot XOR the next p (the translate)."""
    primary = bits_value(segment[: frame.p])
    if frame.synchronous:
        return [primary]
    return [primary, primary ^ bits_value(segment[frame.p : 2 * frame.p])]


def test_frame_observations_matches_manual_superposition():
    """The batched grid builder agrees with a per-device, per-copy loop
    through the field-by-field encoder."""
    frame = FrameConfig(m=4, p=2, d=1)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=3.0, r=2)
    pop = _random_population(frame, np.random.default_rng(42), 4, geo.r)
    got = frame_observations(pop, frame, geo)
    n = frame.seq_len
    ramp_base = np.arange(1, n + 1)
    expected = np.zeros((frame.n_subblocks, frame.n_slots, geo.r, n), dtype=complex)
    segments = tree_encode(pop.info, frame)
    for k in range(len(pop)):
        ramp = np.exp(-1j * pop.delta[k] * ramp_base)
        for j in range(frame.n_subblocks):
            seg = segments[k, j]
            for c, slot in enumerate(_oracle_slots(seg, frame)):
                X = rm_samples(*segment_pair(seg, frame, c == 1))
                expected[j, slot] += math.sqrt(geo.gamma) * np.outer(pop.h[k], X * ramp)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_frame_observations_noise_is_additive_and_seeded():
    frame = FrameConfig(m=4, p=2)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1.0, r=2)
    rng = np.random.default_rng(43)
    pop = _population([[1.0 + 0.3j, -0.2j]], [0.5], draw_messages(frame, rng, 1))
    empty = _population(np.zeros((0, 2)), [], draw_messages(frame, rng, 0))
    total = frame_observations(pop, frame, geo, np.random.default_rng(7))
    noise = frame_observations(empty, frame, geo, np.random.default_rng(7))
    signal = frame_observations(pop, frame, geo)
    np.testing.assert_allclose(total, noise + signal, rtol=1e-12, atol=1e-12)


def mask_loop_observations(pop, frame, cfg, rng):
    # whole-population codewords, then one boolean mask per landed slot,
    # each through synthesize_slot: the grouping frame_observations replaced
    r, n = cfg.r, frame.seq_len
    n_sub, n_slots = frame.n_subblocks, frame.n_slots
    shape = (n_sub, n_slots, r, n)
    Y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    k = len(pop)
    if k:
        segments = tree_encode(pop.info, frame).reshape(k * n_sub, frame.segment_bits)
        slots = np.array([_oracle_slots(seg, frame) for seg in segments])
        slots = slots.reshape(k, n_sub, frame.copies)
        for c in range(frame.copies):
            pairs = [segment_pair(seg, frame, c == 1) for seg in segments]
            Ps, bs = np.stack([P for P, _ in pairs]), np.stack([b for _, b in pairs])
            X = rm_samples_batch(Ps, bs).reshape(k, n_sub, n)
            for j in range(n_sub):
                landed = slots[:, j, c]
                for i in np.unique(landed):
                    sel = landed == i
                    Y[j, i] += synthesize_slot(X[sel, j], pop.h[sel], pop.delta[sel], cfg.gamma)
    return Y


def _assert_matches_mask_loop(pop, frame, geo, seed=5):
    got = frame_observations(pop, frame, geo, np.random.default_rng(seed))
    expected = mask_loop_observations(pop, frame, geo, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, expected)


def _population_in_groups(frame, sizes, r, rng, delayed):
    """sum(sizes) devices of a d = 0 frame, shuffled, sizes[i] of whose
    messages land in slot i, with random channels and either zero or random
    delays."""
    k = sum(sizes)
    info = draw_messages(frame, rng, k)
    landed = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    info[:, : frame.p] = bit_table(frame.p)[landed]
    h = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
    delta = rng.uniform(-math.pi, math.pi, size=k) if delayed else np.zeros(k)
    pop = _population(h, delta, info)
    slots = transmissions(tree_encode(pop.info, frame), frame)[2]
    assert np.bincount(slots[:, 0, 0]).tolist() == list(sizes)
    return pop


@pytest.mark.parametrize(
    "frame, sizes",
    [
        (FrameConfig(m=4, p=2, d=0), None),
        (FrameConfig(m=5, p=2, d=1), None),
        (FrameConfig(m=6, p=3, d=2), None),
        (FrameConfig(m=5, p=2, tau_max=0.0), None),
        (FrameConfig(m=5, p=2, tau_max=0.0), (64, 65, 130, 1)),
        (FrameConfig(m=10, p=1, tau_max=0.0), (129, 64)),
    ],
    ids=["async-d0", "async-d1", "async-d2", "sync", "sync-blocks", "sync-blocks-m10"],
)
def test_frame_observations_equals_mask_loop_exactly(frame, sizes):
    """Slot-group synthesis performs the same floating-point operations as
    the whole-population mask loop, so every observation is bit-identical.
    The block cases fill synchronous slot groups of exactly one 64-device
    block, one past it, and over two, with zero and with random delays."""
    geo = GeometryConfig(density=2e-3, area=20_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=3)
    if sizes is None:
        pop = sample_frame(geo, frame, np.random.default_rng(46))
        assert len(pop) > 2 * frame.n_slots
        _assert_matches_mask_loop(pop, frame, geo)
        return
    for delayed in (False, True):
        rng = np.random.default_rng(48)
        _assert_matches_mask_loop(_population_in_groups(frame, sizes, geo.r, rng, delayed), frame, geo)


def test_frame_observations_exact_with_empty_slots():
    frame = FrameConfig(m=4, p=4, d=1)
    geo = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=3.0, r=2)
    rng = np.random.default_rng(47)
    pop = _random_population(frame, rng, 3, geo.r)
    slots = transmissions(tree_encode(pop.info, frame), frame)[2]
    assert len(np.unique(slots[:, 0, :])) < frame.n_slots  # some slot stays empty
    _assert_matches_mask_loop(pop, frame, geo)
    _assert_matches_mask_loop(sample_frame(geo, frame, rng), frame, geo)  # no devices


def _traced_peak(build):
    """Peak bytes tracemalloc sees numpy allocate while build() runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_case(frame):
    geo = GeometryConfig(density=8e-3, area=250_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=16)
    pop = sample_frame(geo, frame, np.random.default_rng(3))
    assert 1800 < len(pop) < 2200
    table = len(pop) * frame.seq_len * 16  # one (K, 2**m) complex array
    return pop, geo, table


def test_synchronous_frame_memory_holds_no_table():
    """A synchronous frame builds each slot group's uint8 exponents (at most
    4 bytes a sample while the layer recursion runs) and looks its codewords
    up one 64-device block at a time into one reused buffer.  Beyond the
    observation array and the encoder's outputs, nothing else may be alive:
    a slot group's complex codewords (16 bytes a sample) would not fit."""
    frame = FrameConfig(m=10, p=2, tau_max=0.0)
    pop, geo, _ = _memory_case(frame)
    segments = tree_encode(pop.info, frame)
    slots = transmissions(segments, frame)[2]
    encoder = _traced_peak(lambda: transmissions(segments, frame))
    observations = frame.n_subblocks * frame.n_slots * geo.r * frame.seq_len * 16
    group = max(np.bincount(slots[:, j, 0]).max() for j in range(frame.n_subblocks))
    bound = group * frame.seq_len * 4 + 64 * frame.seq_len * 16 + observations + encoder
    assert _traced_peak(lambda: frame_observations(pop, frame, geo)) <= bound


def test_two_copy_frame_memory_is_one_table():
    """A two-copy frame holds one (K, 2**m) table of ramped codewords.
    Beyond it, the uint8 exponents it is built from (at most 4 bytes a
    sample), the observation array and the encoder's outputs, only
    slot-group transients (at most 8 of the most crowded group) may be
    alive at once: a whole-population ramp or a second table would not fit."""
    frame = FrameConfig(m=6, p=6)
    pop, geo, table = _memory_case(frame)
    segments = tree_encode(pop.info, frame)
    slots = transmissions(segments, frame)[2]
    encoder = _traced_peak(lambda: transmissions(segments, frame))
    observations = frame.n_subblocks * frame.n_slots * geo.r * frame.seq_len * 16
    group = max(np.bincount(slots[:, 0, c]).max() for c in range(2)) * frame.seq_len * 16
    bound = table * 5 // 4 + observations + encoder + 8 * group
    assert _traced_peak(lambda: frame_observations(pop, frame, geo)) <= bound


_BLAS_PROBE = """
import hashlib
import numpy as np
from rmaccess.access_pipeline import FrameConfig, transmissions, tree_encode
from rmaccess.geometry_channel import GeometryConfig, frame_observations, sample_frame

geo = GeometryConfig(density=8e-3, area=100_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=16)
for frame in (FrameConfig(m=10, p=2, tau_max=0.0), FrameConfig(m=6, p=2)):
    rng = np.random.default_rng(59)
    pop = sample_frame(geo, frame, rng)
    slots = transmissions(tree_encode(pop.info, frame), frame)[2]
    for c in range(frame.copies):
        assert np.bincount(slots[:, 0, c], minlength=frame.n_slots).min() > 130
    Y = frame_observations(pop, frame, geo, rng)
    print(frame.m, hashlib.sha256(Y.tobytes()).hexdigest())
"""


def test_frame_observations_independent_of_blas_threads(blas_thread_outputs):
    """Slot groups over 130 devices are long enough for OpenBLAS to block a
    product's device sum by thread count; the observations must not depend
    on that."""
    outputs = blas_thread_outputs(_BLAS_PROBE)
    assert len(outputs[0].split()) == 4
    assert outputs[0] == outputs[1]


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
