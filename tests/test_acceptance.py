"""Acceptance suite: one test per gating criterion, each printing a PASS or
FAIL line with the measured numbers (collected again in the terminal summary).

Criteria, in order: geometry closed forms with a Monte Carlo check, frequency
versus time domain slot synthesis, codec properties, the noiseless detector
round trip, fold-layer noise halving, error rates at the standard operating
point, the antenna trend, the tree code, and decoder wall-time scaling.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    async_layout,
    bit_table,
    bits_value,
    pair_from_bits,
    segment_pair,
    time_domain_reference,
)
from rmaccess.access_pipeline import FrameConfig, transmissions, tree_decode, tree_encode
from rmaccess.geometry_channel import (
    GeometryConfig,
    classify_neighbors,
    expected_neighbors,
    sample_frame,
    synthesize_slot,
)
from rmaccess.rm_codec import (
    rm_samples,
    unpack_bits,
    walsh_factor,
    wht,
)
from rmaccess.sim_cli import ExperimentSpec, run_single_trial, scaling_bench
from rmaccess.slot_detector import DetectorConfig, detect_slot, fold_layer


def wrap(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def test_criterion_1_geometry_closed_forms(criterion_report):
    """Expected neighbor count: closed form versus the rounded references and
    a 1000-frame Monte Carlo count per antenna setting, within 5 percent."""
    targets = {1: 11.1, 16: 12.5}
    frame = FrameConfig(m=2, p=0, tau_max=0.0)
    details, ok = [], True
    for r, rounded in targets.items():
        geo = GeometryConfig(density=0.004, area=62_500.0, alpha=4.0, theta=1e-6, gamma=1e6, r=r)
        k_star = expected_neighbors(geo)
        ok &= abs(k_star - rounded) < 0.05
        rng = np.random.default_rng(2024 + r)
        counts = [classify_neighbors(sample_frame(geo, frame, rng), geo).sum() for _ in range(1000)]
        mc = float(np.mean(counts))
        ok &= abs(mc - k_star) <= 0.05 * k_star
        details.append(f"r={r}: K*={k_star:.4f} MC={mc:.4f}")
    line = f"criterion 1 (geometry closed forms): {'PASS' if ok else 'FAIL'} " + "; ".join(details)
    criterion_report(line)
    assert ok, line


def test_criterion_2_frequency_vs_time_domain(criterion_report):
    """100 noise-free scenes: synthesize_slot, the kernel frame_observations
    builds every slot with, matches the waveform, prefix-discard, projection
    path to 1e-9 relative."""
    rng = np.random.default_rng(2024)
    delta_f, tau_max = 15e3, 10e-6
    worst = 0.0
    for scene in range(100):
        m = 5 if scene % 2 == 0 else 6
        r = (1, 2, 4)[scene % 3]
        gamma = (0.5, 1.0, 2.0, 4.0)[scene % 4]
        X, h, tau = [], [], []
        for _ in range(int(rng.integers(1, 7))):
            pair = pair_from_bits(rng.integers(0, 2, size=m * (m + 3) // 2, dtype=np.uint8))
            X.append(rm_samples(*pair))
            h.append(rng.standard_normal(r) + 1j * rng.standard_normal(r))
            tau.append(rng.uniform(0.0, tau_max))
        X, h, tau = np.stack(X), np.stack(h), np.array(tau)
        ref = time_domain_reference(X, h, tau, delta_f, tau_max, gamma)
        fast = synthesize_slot(X, h, 2.0 * math.pi * delta_f * tau, gamma)
        worst = max(worst, np.linalg.norm(ref - fast) / np.linalg.norm(fast))
    # the discarded prefix is ceil(0.15 * 2^m) samples at these parameters
    prefix_ok = FrameConfig(m=5, p=2).prefix_len == 5 and FrameConfig(m=6, p=2).prefix_len == 10
    ok = worst <= 1e-9 and prefix_ok
    line = (
        f"criterion 2 (frequency vs time domain): {'PASS' if ok else 'FAIL'} "
        f"worst relative error {worst:.2e} over 100 scenes (tol 1e-9)"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_3_codec_properties(criterion_report):
    rng = np.random.default_rng(2024)
    # layer recursion identity on 10^4 random pairs, exact
    identity_ok = True
    for _ in range(10_000):
        m = int(rng.integers(2, 9))
        P = np.triu(rng.integers(0, 2, size=(m, m), dtype=np.uint8))
        P = np.maximum(P, P.T)
        b = rng.integers(0, 2, size=m, dtype=np.uint8)
        s = int(rng.integers(2, m + 1))
        X = rm_samples(P[:s, :s], b[:s])
        X_half = rm_samples(P[: s - 1, : s - 1], b[: s - 1])
        V = walsh_factor(bits_value(P[: s - 1, s - 1]), s - 1, b[s - 1], P[s - 1, s - 1])
        identity_ok &= np.array_equal(X[0::2], X_half) and np.array_equal(X[1::2], V * X_half)

    # transform involution to 1e-12 relative
    invol_ok = True
    for n in (2, 4, 16, 64, 256, 1024):
        for _ in range(30):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            invol_ok &= np.linalg.norm(wht(wht(x)) / n - x) <= 1e-12 * np.linalg.norm(x)

    # pack/unpack bijectivity through the batch encoder, exhaustive at m=4
    # for both variants: every segment tail (the bits after the slot index)
    # and copy flag
    packing_ok = True
    total = 4 * 7 // 2
    for frame in (FrameConfig(4, 2), FrameConfig(4, 2, tau_max=0.0)):
        n_tail = frame.segment_bits - frame.p
        tails = bit_table(n_tail).astype(np.uint8)
        segments = np.concatenate([np.zeros((len(tails), frame.p), np.uint8), tails], axis=1)
        keys = set()
        Ps, bs, _ = transmissions(segments, frame)
        for c in range(frame.copies):
            for tail, P, b in zip(tails, Ps[:, c], bs[:, c]):
                keys.add(P.tobytes() + b.tobytes())
                packing_ok &= np.array_equal(unpack_bits(P, b, frame.pair_positions), tail)
                packing_ok &= frame.synchronous or b[frame.check_pos] == c
        if frame.synchronous:
            packing_ok &= len(keys) == 1 << total
            continue
        # the image is exactly the set of pairs whose reserved bits are zero
        reserved = list(async_layout(4, 2)[1])
        expect_keys = {
            b"".join(arr.tobytes() for arr in pair_from_bits(bits))
            for bits in bit_table(total)
            if not bits[reserved].any()
        }
        packing_ok &= keys == expect_keys and len(keys) == 1 << (total - 2)

    ok = identity_ok and invol_ok and packing_ok
    line = (
        f"criterion 3 (codec properties): {'PASS' if ok else 'FAIL'} "
        f"layer identity {'exact' if identity_ok else 'BROKEN'} on 10^4 pairs, "
        f"involution {'<=1e-12' if invol_ok else 'BROKEN'}, "
        f"m=4 packing {'bijective' if packing_ok else 'BROKEN'}"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_4_noiseless_round_trip(criterion_report):
    rng = np.random.default_rng(2024)
    bits_ok = True
    worst_delta, worst_h = 0.0, 0.0
    cfg = DetectorConfig(k_max=1, eps=1e-9)
    gamma = 2.0
    for m in range(4, 11):
        frame = FrameConfig(m, 1)
        for k in range(64):
            delta = -math.pi + (k + 0.5) * 2.0 * math.pi / 64.0
            payload = rng.integers(0, 2, size=frame.segment_bits - 2, dtype=np.uint8)
            pair = segment_pair(np.concatenate([[0, 1], payload]), frame)
            h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            Y = synthesize_slot(rm_samples(*pair)[None], h[None], [delta], gamma)
            det = detect_slot(Y, cfg)[0]
            bits_ok &= np.array_equal(det.P, pair[0]) and np.array_equal(det.b, pair[1])
            worst_delta = max(worst_delta, abs(float(wrap(det.delta_hat - delta))))
            scaled = math.sqrt(gamma) * h
            worst_h = max(worst_h, np.linalg.norm(det.h_hat - scaled) / np.linalg.norm(scaled))
    ok = bits_ok and worst_delta <= 1e-3 and worst_h <= 1e-2
    line = (
        f"criterion 4 (noiseless detector round trip): {'PASS' if ok else 'FAIL'} "
        f"bits {'exact' if bits_ok else 'WRONG'}, worst |delay error| {worst_delta:.2e} "
        f"(tol 1e-3), worst channel error {worst_h:.2e} (tol 1e-2), m=4..10 x 64 delays"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_5_fold_noise_halving(criterion_report):
    """Folding unit-variance noise j times leaves variance 2^-j per entry,
    within 10 percent over 10^4 draws."""
    rng = np.random.default_rng(2024)
    n = 64
    Y = (rng.standard_normal((10_000, n)) + 1j * rng.standard_normal((10_000, n))) / math.sqrt(2)
    ok = True
    ratios = []
    for j in range(1, 6):
        half = Y.shape[1] // 2
        width = int(math.log2(half)) if half > 1 else 0
        V = walsh_factor(
            bits_value(rng.integers(0, 2, size=width, dtype=np.int64)),
            width,
            int(rng.integers(0, 2)),
            int(rng.integers(0, 2)),
        )
        Y = fold_layer(Y, V, float(rng.uniform(-math.pi, math.pi)))
        var = float(np.mean(np.abs(Y) ** 2))
        ratios.append(var * 2.0**j)
        ok &= abs(var - 2.0**-j) <= 0.1 * 2.0**-j
    line = (
        f"criterion 5 (fold noise halving): {'PASS' if ok else 'FAIL'} "
        f"variance/2^-j over j=1..5: {', '.join(f'{x:.3f}' for x in ratios)} (tol 0.90..1.10)"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_6_operating_point(criterion_report):
    """20 seeded frames at m=6, p=6, d=0, r=16, K=1000: mean miss and false
    alarm at or below 0.05."""
    spec = ExperimentSpec()
    point = spec.points()[0]
    frame = spec.frame_for(point)
    assert frame.message_bits == 30 and frame.codelength == 4736
    records = [run_single_trial(spec, point, t) for t in range(20)]
    miss = np.array([rec["miss"] for rec in records], dtype=float)
    fa = np.array([rec["fa"] for rec in records], dtype=float)
    miss_mean, miss_se = miss.mean(), miss.std(ddof=1) / math.sqrt(miss.size)
    fa_mean, fa_se = fa.mean(), fa.std(ddof=1) / math.sqrt(fa.size)
    ok = miss_mean <= 0.05 and fa_mean <= 0.05
    line = (
        f"criterion 6 (operating point, B=30 C=4736): {'PASS' if ok else 'FAIL'} "
        f"miss {miss_mean:.4f} +- {miss_se:.4f}, false alarm {fa_mean:.4f} +- {fa_se:.4f} "
        f"over 20 trials (bound 0.05)"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_7_antenna_trend(criterion_report):
    """At K=2000, going from 1 antenna to 16 strictly improves both rates."""
    spec = ExperimentSpec(devices=2000)
    means = {}
    for r in (1, 16):
        point = dict(spec.points()[0])
        point["r"] = r
        records = [run_single_trial(spec, point, t) for t in range(20)]
        means[r] = (
            float(np.mean([rec["miss"] for rec in records])),
            float(np.mean([rec["fa"] for rec in records])),
        )
    ok = means[1][0] > means[16][0] and means[1][1] > means[16][1]
    line = (
        f"criterion 7 (antenna trend at K=2000): {'PASS' if ok else 'FAIL'} "
        f"r=1 miss {means[1][0]:.4f} fa {means[1][1]:.4f} vs "
        f"r=16 miss {means[16][0]:.4f} fa {means[16][1]:.4f} over 20 trials each"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_8_tree_code(criterion_report):
    rng = np.random.default_rng(2024)
    round_trip_ok = True
    for d in (1, 2):
        cfg = FrameConfig(m=6, p=6, d=d)
        infos = rng.integers(0, 2, size=(8, cfg.message_bits), dtype=np.uint8)
        segs = tree_encode(infos, cfg)
        candidates = [
            [segs[k, j] for k in rng.permutation(8)] for j in range(cfg.n_subblocks)
        ]
        result = tree_decode(candidates, cfg)
        got = {m.tobytes() for m in result.messages}
        round_trip_ok &= got == {info.tobytes() for info in infos} and not result.overflow

    # two candidates at the first level, only one consistent completion
    cfg = FrameConfig(m=6, p=6, d=1)
    info = rng.integers(0, 2, size=cfg.message_bits, dtype=np.uint8)
    rival = info.copy()
    rival[3] ^= 1
    seg_true, seg_rival = tree_encode(np.stack([info, rival]), cfg)
    assert not np.array_equal(seg_true[1], seg_rival[1])
    resolved = tree_decode([[seg_rival[0], seg_true[0]], [seg_true[1]]], cfg)
    ambiguity_ok = len(resolved.messages) == 1 and np.array_equal(resolved.messages[0], info)

    ok = round_trip_ok and ambiguity_ok
    line = (
        f"criterion 8 (tree code): {'PASS' if ok else 'FAIL'} "
        f"d=1,2 round trips {'exact' if round_trip_ok else 'BROKEN'}, "
        f"ambiguity resolves to {'one message' if ambiguity_ok else 'WRONG SET'}"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_9_wall_time_scaling(criterion_report):
    """Measured decode times across m, normalized by the per-iteration work
    model 2^m (4r + m + 2), stay inside a factor-1.5 band around a shared
    fitted constant.  The model counts the entries one SIC iteration
    touches, N = 2^m: correlations, folds, cancellation and residual norm
    each pass over r rows of about N entries (4rN), the layers' WHTs take
    (m - 2) N + 2 butterflies, and the peak magnitudes, Walsh factors,
    sequence recursion and delay ramp about N each (4N).  Wall-clock
    measurements wobble with scheduler load, so one retry of the whole
    benchmark is allowed."""
    lo, hi = 1.0 / 1.5, 1.5
    values = []
    attempts = 2
    for attempt in range(1, attempts + 1):
        results = scaling_bench(reps=9)
        values = [rec["normalized"] for rec in results]
        if all(lo <= v <= hi for v in values):
            break
        time.sleep(0.5)
    ok = all(lo <= v <= hi for v in values)
    pairs = ", ".join(
        f"m={rec['m']}: {v:.3f} ({1e3 * rec['seconds']:.2f} ms)" for rec, v in zip(results, values)
    )
    line = (
        f"criterion 9 (wall-time scaling): {'PASS' if ok else 'FAIL'} "
        f"on attempt {attempt} of {attempts}, "
        f"normalized times (best decode) {pairs} (band {lo:.3f}..{hi:.3f})"
    )
    criterion_report(line)
    assert ok, line
