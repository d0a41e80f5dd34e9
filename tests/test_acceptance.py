"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The RS sweep additionally writes ``artifacts/rs_sweep.csv`` for
visual inspection.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from baseline_oracle import baseline_extract
from block_oracle import _block_stack

from lbpstego import synth
from lbpstego.analysis import (
    emit_csv,
    histogram,
    MetricRow,
    pd_histogram,
    psnr,
    quality_index,
    rs_analysis,
)
from lbpstego.baselines import BaselineMethod, baseline_embed
from lbpstego.codec import (
    HEADER_BYTES,
    StegoParams,
    capacity,
    clamp_cover,
    embed,
    extract,
    lbp_codes,
    max_payload_shape,
    sync_neighbor,
)
from lbpstego.image import GrayImage
from lbpstego.sweep import embed_at_rate, pdh_correlation

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


def report(criterion, text):
    print(f"[acceptance {criterion}] PASS — {text}")


# ---------------------------------------------------------------------------
# Independent scalar oracle: re-derives the stego image pixel by pixel from
# the definitional rules (clamp, block pattern, masking, pair shuffle, low-bit
# substitution, order restore). Deliberately shares no code with the codec.
# ---------------------------------------------------------------------------

_ORACLE_OFFSETS = [(0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1)]


def _oracle_pair_swap(x):
    y = 0
    for pair in range(4):
        y |= ((x >> (2 * pair)) & 1) << (2 * pair + 1)
        y |= ((x >> (2 * pair + 1)) & 1) << (2 * pair)
    return y


def oracle_stego(cover: np.ndarray, payload: np.ndarray, mu: int) -> np.ndarray:
    rows, cols = payload.shape
    stream = bytearray(
        rows.to_bytes(2, "big") + cols.to_bytes(2, "big") + payload.tobytes()
    )
    used = (len(stream) + mu - 1) // mu
    stream.extend(b"\x00" * (used * mu - len(stream)))
    out = cover.astype(int).copy()
    lo, hi = 1 << mu, 255 - (1 << mu)
    block_cols = cover.shape[1] // 3
    for b in range(used):
        k, l = divmod(b, block_cols)
        r, c = 3 * k + 1, 3 * l + 1
        center = out[r, c]
        ring = []
        for dr, dc in _ORACLE_OFFSETS:
            v = min(max(out[r + dr, c + dc], lo), hi)
            out[r + dr, c + dc] = v
            ring.append(v)
        code = 0
        for q, v in enumerate(ring):
            if center >= v:
                code |= 1 << (7 - q)
        shuffled = [_oracle_pair_swap(code ^ stream[b * mu + t]) for t in range(mu)]
        for q, (dr, dc) in enumerate(_ORACLE_OFFSETS):
            v = ring[q]
            inserted = 0
            for t in range(mu):
                inserted |= ((shuffled[t] >> (7 - q)) & 1) << (mu - 1 - t)
            s = (v & ~((1 << mu) - 1)) | inserted
            if center >= v and center < s:
                s -= 1 << mu
            elif center < v and center >= s:
                s += 1 << mu
            out[r + dr, c + dc] = s
    return out


def _max_payload(rng, cover, params):
    rows, cols = max_payload_shape(cover, params)
    return GrayImage(rng.integers(0, 256, (rows, cols), dtype=np.uint8))


@pytest.fixture(scope="module")
def roundtrip_trials():
    """100 randomized trials shared by criteria 1 and 2."""
    rng = np.random.default_rng(20240001)
    trials = []
    for i in range(100):
        mu = 1 + i % 4
        params = StegoParams(mu)
        h = int(rng.integers(64, 257))
        w = int(rng.integers(64, 257))
        cover = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
        payload = _max_payload(rng, cover, params)
        stego = embed(cover, payload, params)
        trials.append((cover, payload, stego, params))
    return trials


def test_criterion_1_round_trip_exactness(roundtrip_trials):
    failures = 0
    for cover, payload, stego, params in roundtrip_trials:
        if extract(stego, params) != payload:
            failures += 1
    assert failures == 0
    report(1, f"round-trip exact in 100/100 randomized trials (mu 1..4, covers 64..256)")


def test_criterion_2_lbp_preservation(roundtrip_trials):
    checked = 0
    for cover, payload, stego, params in roundtrip_trials:
        stream_len = HEADER_BYTES + payload.width * payload.height
        used = -(-stream_len // params.mu)
        clamped = clamp_cover(cover, used, params)
        for image in (clamped, stego):
            assert image.pixels.shape == cover.pixels.shape
        cl = _block_stack(clamped.pixels, used)[:used].astype(np.int32)
        st = _block_stack(stego.pixels, used)[:used].astype(np.int32)
        ring_idx = (np.array([1, 0, 0, 0, 1, 2, 2, 2]), np.array([2, 2, 1, 0, 0, 0, 1, 2]))
        codes_cl = lbp_codes(cl[:, 1, 1], cl[:, ring_idx[0], ring_idx[1]])
        codes_st = lbp_codes(st[:, 1, 1], st[:, ring_idx[0], ring_idx[1]])
        assert np.array_equal(codes_cl, codes_st), "pattern violated in a data block"
        assert np.array_equal(cl[:, 1, 1], st[:, 1, 1]), "reference pixel modified"
        checked += used
    report(2, f"patterns identical on all {checked} data-carrying blocks, zero violations")


def test_criterion_3_sync_safety_exhaustive():
    total = 0
    for mu in (1, 2, 3, 4):
        lo, hi = 1 << mu, 255 - (1 << mu)
        centers = np.arange(256)
        neighbors = np.arange(lo, hi + 1)
        patterns = np.arange(1 << mu)
        c, v, p = np.meshgrid(centers, neighbors, patterns, indexing="ij")
        candidate = (v & ~((1 << mu) - 1)) | p
        synced = sync_neighbor(c, v, candidate, mu)
        assert synced.min() >= 0 and synced.max() <= 255
        assert np.array_equal(synced & ((1 << mu) - 1), p)
        assert np.array_equal(c >= synced, c >= v), "original order not restored"
        total += c.size
    report(3, f"sync safe on all {total} (center, neighbor, pattern, mu) cases")


def test_criterion_4_capacity_and_bit_rate():
    cover = GrayImage(np.zeros((512, 512), dtype=np.uint8))
    cap_bits = capacity(cover, StegoParams(4)) * 8
    assert cap_bits == 924800
    br = cap_bits / (512 * 512)
    assert abs(br - 3.53) < 0.01
    assert 3.37 <= br <= 3.99  # same order as the published bit-rate column
    report(4, f"stream capacity 924800 bits at mu=4, bit rate {br:.2f} bpp")


def test_criterion_5_psnr_oracle_and_bounds(corpus10):
    rng = np.random.default_rng(20240005)
    # (a) measured PSNR matches the scalar oracle within 0.1 dB at mu 1 and 4
    worst_gap = 0.0
    for name, cover in corpus10:
        for mu in (1, 4):
            params = StegoParams(mu)
            payload = _max_payload(rng, cover, params)
            stego = embed(cover, payload, params)
            measured = psnr(cover, stego)
            simulated = oracle_stego(cover.pixels, payload.pixels, mu)
            diff = simulated - cover.pixels.astype(int)
            mse = float((diff * diff).sum()) / diff.size
            expected = 10.0 * math.log10(255.0**2 / mse)
            gap = abs(measured - expected)
            worst_gap = max(worst_gap, gap)
            assert gap < 0.1, f"{name} mu={mu}: measured {measured}, oracle {expected}"
    # (b) PSNR strictly decreases in mu on every corpus image
    floors = []
    for name, cover in corpus10:
        series = []
        for mu in (1, 2, 3, 4):
            params = StegoParams(mu)
            payload = _max_payload(rng, cover, params)
            series.append(psnr(cover, embed(cover, payload, params)))
        assert all(series[i] > series[i + 1] for i in range(3)), f"{name}: {series}"
        floors.append(series[0])
    # (c) full-capacity mu=1 stays above the 44 dB floor
    assert min(floors) >= 44.0
    report(
        5,
        f"oracle gap <= {worst_gap:.2e} dB, PSNR monotone in mu, "
        f"mu=1 floor {min(floors):.2f} dB >= 44",
    )


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(20240006)
    base = rng.integers(0, 255, (64, 64), dtype=np.uint8)
    a = GrayImage(base)
    assert abs(psnr(a, GrayImage(base + 1)) - 48.13) < 0.01
    capped = np.minimum(base, 239)
    assert abs(psnr(GrayImage(capped), GrayImage(capped + 16)) - 24.05) < 0.01
    assert quality_index(a, a) == 1.0
    for _ in range(1000):
        h = int(rng.integers(1, 25))
        w = int(rng.integers(2, 25))
        img = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
        assert int(histogram(img).sum()) == h * w
        assert pd_histogram(img).sum() == h * (w - 1)
    report(6, "PSNR closed forms within 0.01 dB, Q(a,a)=1, counting identities on 1000 images")


def test_criterion_7_rs_stays_flat(corpus10):
    rng = np.random.default_rng(20240007)
    payload = GrayImage(rng.integers(0, 256, (220, 220), dtype=np.uint8))
    rates = (0, 10, 20, 30, 40, 50)
    rows = []
    worst = 0.0
    for name, cover in corpus10:
        diffs_m, diffs_neg = [], []
        for rate in rates:
            stego, _ = embed_at_rate(cover, payload, "proposed", rate, mu=1)
            rs = rs_analysis(stego)
            diffs_m.append(abs(rs["rs_r_m"] - rs["rs_s_m"]))
            diffs_neg.append(abs(rs["rs_r_neg_m"] - rs["rs_s_neg_m"]))
            rows.append(MetricRow(name, "proposed", rate, "rs_diff_m", diffs_m[-1]))
            rows.append(MetricRow(name, "proposed", rate, "rs_diff_neg_m", diffs_neg[-1]))
        variation_m = max(diffs_m) - min(diffs_m)
        variation_neg = max(diffs_neg) - min(diffs_neg)
        worst = max(worst, variation_m, variation_neg)
        assert variation_m < 0.10, f"{name}: |R_m - S_m| varies by {variation_m:.3f}"
        assert variation_neg < 0.10, f"{name}: |R_-m - S_-m| varies by {variation_neg:.3f}"
    ARTIFACTS.mkdir(exist_ok=True)
    (ARTIFACTS / "rs_sweep.csv").write_text(emit_csv(rows))
    report(7, f"RS difference varies by at most {worst:.3f} (< 0.10) across rates 0..50%; CSV written")


def test_criterion_8_pdh_similarity(corpus10):
    rng = np.random.default_rng(20240008)
    payload = GrayImage(rng.integers(0, 256, (220, 220), dtype=np.uint8))
    correlations = {}
    for name, cover in corpus10:
        stego, _ = embed_at_rate(cover, payload, "proposed", 50, mu=1)
        correlations[name] = pdh_correlation(cover, stego)
        assert correlations[name] >= 0.99, f"{name}: {correlations[name]:.4f}"
    lowest = min(correlations.values())
    detail = ", ".join(f"{n}={v:.4f}" for n, v in correlations.items())
    report(8, f"PDH correlation >= {lowest:.4f} at 50% embedding ({detail})")


def test_criterion_9_linear_scaling():
    rng = np.random.default_rng(20240009)
    params = StegoParams(1)

    def best_time(size):
        cover = synth.smooth_cover((size, size), seed=size)
        payload = _max_payload(rng, cover, params)
        best = math.inf
        for _ in range(7):
            start = time.perf_counter()
            embed(cover, payload, params)
            best = min(best, time.perf_counter() - start)
        return best

    best_time(128)  # warmup
    sizes = (256, 512, 1024)
    times = np.array([best_time(s) for s in sizes])
    pixels = np.array([s * s for s in sizes], dtype=float)
    design = np.vstack([pixels, np.ones_like(pixels)]).T
    coef, *_ = np.linalg.lstsq(design, times, rcond=None)
    predicted = design @ coef
    ss_res = float(((times - predicted) ** 2).sum())
    ss_tot = float(((times - times.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot
    assert r_squared >= 0.95, f"R^2 = {r_squared:.4f}, times {times}"
    detail = ", ".join(f"{s}^2: {t * 1000:.1f} ms" for s, t in zip(sizes, times))
    report(9, f"embedding time linear in pixels, R^2 = {r_squared:.4f} ({detail})")


def test_criterion_10_baseline_round_trips():
    rng = np.random.default_rng(20240010)
    methods = {
        "lsb_replace": lambda seed: BaselineMethod("lsb", 1 + seed % 4, seed=seed),
        "lsb_match": lambda seed: BaselineMethod("lsbm", seed=seed),
        "lsbmr": lambda seed: BaselineMethod("lsbmr", seed=seed),
    }
    for label, make in methods.items():
        for trial in range(100):
            method = make(trial)
            h = int(rng.integers(2, 20))
            w = int(rng.integers(2, 20))
            cover = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
            count = int(rng.integers(1, method.capacity_bits(cover) + 1))
            bits = rng.integers(0, 2, count, dtype=np.uint8)
            stego = baseline_embed(cover, bits, method)
            assert np.array_equal(baseline_extract(stego, count, method), bits), label
            if label == "lsbmr":
                deviation = np.abs(stego.pixels.astype(int) - cover.pixels.astype(int)).max()
                assert deviation <= 1
    report(10, "100/100 round trips per baseline; LSBMR per-pixel deviation <= 1")
