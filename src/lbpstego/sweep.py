"""Rate sweeps comparing the LBP-preserving codec against LSB baselines.

A sweep embeds each (image, method, rate) cell and returns one CSV-ready
:class:`~lbpstego.analysis.MetricRow` per ``analysis`` metric: distortion
(PSNR, quality index), payload (bit rate, embedded bits) and detectability
(histogram L1, RS fractions and differences, PDH correlation).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import analysis, baselines, codec
from .analysis import pdh_correlation  # metric_rows looks it up here, where the bench traces it
from .image import GrayImage

# Method name to baseline, or None for the LBP codec; a baseline's seed is set per call.
METHODS = {
    "proposed": None,
    **{f"lsb{k}": baselines.BaselineMethod("lsb", k) for k in range(1, 5)},
    "lsbm": baselines.BaselineMethod("lsbm"),
    "lsbmr": baselines.BaselineMethod("lsbmr"),
}
METHOD_NAMES = tuple(METHODS)


def check_method(name: str) -> str:
    """``name``, if it is one of :data:`METHOD_NAMES`; ValueError otherwise."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}, expected one of {METHOD_NAMES}")
    return name


def check_rate(rate: float) -> float:
    """``rate``, a percent of capacity, if it lies in (0, 100]; ValueError otherwise."""
    if not 0.0 < rate <= 100.0:
        raise ValueError(f"rates must lie in (0, 100], got {rate!r}")
    return rate


def crop_payload_to_rate(
    payload: GrayImage, cover: GrayImage, params: codec.StegoParams, rate: float
) -> GrayImage:
    """Trim payload rows so header+body is about ``rate`` percent of stream capacity.

    Cropping is row-granular, so the realized rate can sit slightly off the
    request; at least one payload row is always kept.
    """
    cap = codec.capacity(cover, params)
    body = codec.payload_budget(int(cap * check_rate(rate) / 100.0))
    rows = min(payload.height, max(1, body // payload.width))
    return GrayImage(payload.pixels[:rows, :])


def payload_bits(payload: GrayImage, count: int) -> np.ndarray:
    """First ``count`` bits of the payload raster (MSB-first, tiled if short)."""
    raw = np.unpackbits(payload.pixels.reshape(-1))
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
    check_method(method)
    if rate == 0:
        return cover, 0
    if METHODS[method] is None:
        params = codec.StegoParams(mu)
        cropped = crop_payload_to_rate(payload, cover, params, rate)
        stego = codec.embed(cover, cropped, params)
        return stego, 8 * codec.stream_bytes(cropped)
    base = replace(METHODS[method], seed=seed)
    n_bits = int(base.capacity_bits(cover) * check_rate(rate) / 100.0)
    bits = payload_bits(payload, n_bits)
    return baselines.baseline_embed(cover, bits, base), n_bits


def metric_rows(
    name: str,
    method: str,
    rate: float,
    ref: analysis.Reference,
    stego: GrayImage,
    embedded_bits: int,
) -> list[analysis.MetricRow]:
    """All sweep metrics for one (image, method, rate) cell, in fixed order,
    against ``ref``, the cover's :class:`analysis.Reference` that its cells share."""
    values = {
        "psnr": analysis.psnr(ref, stego),
        "q_index": analysis.quality_index(ref, stego),
        "bit_rate": analysis.bit_rate(embedded_bits, ref.image),
        "embedded_bits": embedded_bits,
        "hist_l1": analysis.histogram_l1(ref, stego),
        **analysis.rs_analysis(stego, reference=ref),
        "pdh_corr": pdh_correlation(ref, stego),
    }
    return analysis.metric_rows(name, method, rate, values)


def run_sweep(
    covers,
    payload: GrayImage,
    methods,
    rates,
    mu: int = 1,
    seed: int = 0,
) -> list[analysis.MetricRow]:
    """Fixed-order sweep: rows sorted by image name, then method, then rate.

    ``covers`` is an iterable of (name, GrayImage) pairs; rates are percent
    of each method's own capacity. Each cover's statistics are computed
    once, for all of its cells, and dropped before the next cover.
    """
    rows = []
    for name, cover in sorted(covers, key=lambda nc: nc[0]):
        ref = analysis.Reference(cover)
        for method in sorted(methods):
            for rate in sorted(rates):
                stego, bits = embed_at_rate(cover, payload, method, rate, mu=mu, seed=seed)
                rows.extend(metric_rows(name, method, rate, ref, stego, bits))
    return rows
