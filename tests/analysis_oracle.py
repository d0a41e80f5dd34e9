"""Whole-image references for the metrics that ``analysis`` and ``sweep``
compute on the changed rows only: every pixel of both images goes into each
value, with the library's arithmetic, so the band path must match them exactly."""

import math

import numpy as np

from lbpstego.analysis import MAX_DIFF, Q_WINDOW
from lbpstego.image import GrayImage


def window_sums(values: np.ndarray, size: int) -> np.ndarray:
    """Sliding size x size window sums, one axis at a time from shifted slices."""
    h, w = values.shape
    rows = values[: h - size + 1].copy()
    for k in range(1, size):
        rows += values[k : h - size + 1 + k]
    out = rows[:, : w - size + 1].copy()
    for k in range(1, size):
        out += rows[:, k : w - size + 1 + k]
    return out


def psnr(a: GrayImage, b: GrayImage) -> float:
    diff = a.pixels.astype(np.int32) - b.pixels
    mse = int((diff * diff).sum(dtype=np.int64)) / diff.size
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0**2 / mse)


def quality_index(a: GrayImage, b: GrayImage) -> float:
    """8x8 universal quality index from every window of both images."""
    pa, pb = a.pixels.astype(np.int32), b.pixels.astype(np.int32)
    n = Q_WINDOW * Q_WINDOW
    sa, sb = window_sums(pa, Q_WINDOW), window_sums(pb, Q_WINDOW)
    saa, sbb = window_sums(pa * pa, Q_WINDOW), window_sums(pb * pb, Q_WINDOW)
    sab = window_sums(pa * pb, Q_WINDOW)
    # Every n-scaled term is exact in int32 for 8-bit pixels; float64 rounds
    # each product of two such terms once.
    num = np.multiply(n * sab - sa * sb, 4 * sa * sb, dtype=np.float64)
    den = np.multiply((n * saa - sa * sa) + (n * sbb - sb * sb), sa * sa + sb * sb,
                      dtype=np.float64)
    degenerate = den == 0
    if degenerate.any():
        keep = ~degenerate | (sa == sb)
        if not keep.any():
            return float("nan")
        q = np.divide(num, den, out=np.ones_like(num), where=~degenerate)[keep]
    else:
        q = np.divide(num, den)
    return float(q.mean())


def histogram_l1(a: GrayImage, b: GrayImage) -> float:
    ha = np.bincount(a.pixels.reshape(-1), minlength=256)
    hb = np.bincount(b.pixels.reshape(-1), minlength=256)
    return int(np.abs(ha - hb).sum()) / (2 * b.width * b.height)


def pd_counts(img: GrayImage) -> np.ndarray:
    """Right-neighbour difference counts, index d + 255."""
    px = img.pixels.astype(np.int16)
    d = (px[:, 1:] - px[:, :-1]).reshape(-1)
    return np.bincount(d + MAX_DIFF, minlength=2 * MAX_DIFF + 1).astype(np.int64)


def pdh_correlation(a: GrayImage, b: GrayImage) -> float:
    x, y = pd_counts(a).astype(np.float64), pd_counts(b).astype(np.float64)
    xc, yc = x - x.mean(), y - y.mean()
    denom = float(np.sqrt((xc * xc).sum() * (yc * yc).sum()))
    if denom == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    return float((xc * yc).sum() / denom)
