"""Rate sweeps comparing the LBP-preserving codec against LSB baselines.

One sweep produces CSV-ready :class:`~lbpstego.analysis.MetricRow` records,
one per (image, method, rate, metric), covering distortion (PSNR, quality
index), payload (bit rate, embedded bits) and detectability (histogram L1,
RS fractions, pixel-difference-histogram correlation).
"""

from __future__ import annotations

import numpy as np

from . import analysis, baselines, codec
from .image import GrayImage

PROPOSED = "proposed"
METHOD_NAMES = (PROPOSED, "lsb1", "lsb2", "lsb3", "lsb4", "lsbm", "lsbmr")


def pdh_correlation(a: GrayImage, b: GrayImage) -> float:
    """Pearson correlation between the two pixel-difference histograms."""
    x = analysis.pd_histogram(a).counts.astype(np.float64)
    y = analysis.pd_histogram(b).counts.astype(np.float64)
    xc, yc = x - x.mean(), y - y.mean()
    denom = float(np.sqrt((xc * xc).sum() * (yc * yc).sum()))
    if denom == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    return float((xc * yc).sum() / denom)


def crop_payload_to_rate(
    payload: GrayImage, cover: GrayImage, params: codec.StegoParams, rate: float
) -> GrayImage:
    """Trim payload rows so header+body is about ``rate`` percent of stream capacity.

    Cropping is row-granular, so the realized rate can sit slightly off the
    request; at least one payload row is always kept.
    """
    if not 0.0 < rate <= 100.0:
        raise ValueError(f"rate must be in (0, 100], got {rate}")
    cap = codec.capacity(cover, params)
    target_body = int(cap * rate / 100.0) - codec.HEADER_BYTES
    rows = min(payload.height, max(1, target_body // payload.width))
    return GrayImage(payload.pixels[:rows, :])


def payload_bits(payload: GrayImage, count: int) -> np.ndarray:
    """First ``count`` bits of the payload raster (MSB-first, tiled if short)."""
    raw = np.unpackbits(payload.pixels.reshape(-1))
    if raw.size == 0:
        raise ValueError("payload has no pixels")
    if raw.size < count:
        raw = np.resize(raw, count)
    return raw[:count]


def embed_at_rate(
    cover: GrayImage,
    payload: GrayImage,
    method: str,
    rate: float,
    mu: int = 1,
    seed: int = 0,
) -> tuple[GrayImage, int]:
    """Embed with one named method at ``rate`` percent of its own capacity.

    Returns (stego, embedded stream bits). Rate 0 is the untouched cover.
    """
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}, expected one of {METHOD_NAMES}")
    if rate == 0:
        return cover, 0
    if method == PROPOSED:
        params = codec.StegoParams(mu)
        cropped = crop_payload_to_rate(payload, cover, params, rate)
        stego = codec.embed(cover, cropped, params)
        return stego, 8 * (codec.HEADER_BYTES + cropped.width * cropped.height)
    if method.startswith("lsb") and method[3:].isdigit():
        base = baselines.BaselineMethod.lsb_replace(int(method[3:]), seed=seed)
    elif method == "lsbm":
        base = baselines.BaselineMethod.lsb_match(seed=seed)
    else:
        base = baselines.BaselineMethod.lsbmr(seed=seed)
    n_bits = int(base.capacity_bits(cover) * rate / 100.0)
    bits = payload_bits(payload, n_bits)
    return baselines.baseline_embed(cover, bits, base), n_bits


def metric_rows(
    name: str,
    method: str,
    rate: float,
    cover: GrayImage,
    stego: GrayImage,
    embedded_bits: int,
    rs_mask=analysis.DEFAULT_RS_MASK,
) -> list[analysis.MetricRow]:
    """All sweep metrics for one (image, method, rate) cell, in fixed order."""
    rs = analysis.rs_analysis(stego, rs_mask)
    values = {
        "psnr": analysis.psnr(cover, stego),
        "q_index": analysis.quality_index(cover, stego),
        "bit_rate": analysis.bit_rate(embedded_bits, cover),
        "embedded_bits": embedded_bits,
        "hist_l1": analysis.histogram_l1(cover, stego),
        "rs_r_m": rs.r_m,
        "rs_s_m": rs.s_m,
        "rs_r_neg_m": rs.r_neg_m,
        "rs_s_neg_m": rs.s_neg_m,
        "rs_diff_m": abs(rs.r_m - rs.s_m),
        "rs_diff_neg_m": abs(rs.r_neg_m - rs.s_neg_m),
        "pdh_corr": pdh_correlation(cover, stego),
    }
    return [analysis.MetricRow(name, method, rate, m, v) for m, v in values.items()]


def run_sweep(
    covers,
    payload: GrayImage,
    methods,
    rates,
    mu: int = 1,
    seed: int = 0,
    rs_mask=analysis.DEFAULT_RS_MASK,
) -> list[analysis.MetricRow]:
    """Fixed-order sweep: rows sorted by image name, then method, then rate.

    ``covers`` is an iterable of (name, GrayImage) pairs; rates are percent
    of each method's own capacity.
    """
    rows = []
    for name, cover in sorted(covers, key=lambda nc: nc[0]):
        for method in sorted(methods):
            for rate in sorted(rates):
                stego, bits = embed_at_rate(cover, payload, method, rate, mu=mu, seed=seed)
                rows.extend(metric_rows(name, method, rate, cover, stego, bits, rs_mask))
    return rows
