"""Stego quality and detectability metrics: PSNR, universal quality index,
bit rate, intensity and pixel-difference histograms, RS analysis, and a
deterministic CSV emitter for plotting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import GrayImage

Q_WINDOW = 8
MAX_DIFF = 255
DEFAULT_RS_MASK = (0, 1, 1, 0)


def _check_same_size(a: GrayImage, b: GrayImage) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(
            f"image sizes differ: {a.height}x{a.width} vs {b.height}x{b.width}"
        )


def mean_squared_error(a: GrayImage, b: GrayImage) -> float:
    """Mean squared pixel difference, accumulated exactly in integers."""
    _check_same_size(a, b)
    diff = a.pixels.astype(np.int32)
    diff -= b.pixels
    diff *= diff
    return int(diff.sum(dtype=np.int64)) / diff.size


def psnr(a: GrayImage, b: GrayImage) -> float:
    """10*log10(255^2 / MSE) in decibels; identical images give ``math.inf``."""
    mse = mean_squared_error(a, b)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def _window_sums(values: np.ndarray, size: int) -> np.ndarray:
    """Sliding size x size window sums, one axis at a time from shifted slices."""
    h, w = values.shape
    rows = values[: h - size + 1].copy()
    for k in range(1, size):
        rows += values[k : h - size + 1 + k]
    out = rows[:, : w - size + 1].copy()
    for k in range(1, size):
        out += rows[:, k : w - size + 1 + k]
    return out


def quality_index(a: GrayImage, b: GrayImage) -> float:
    """Universal image quality index averaged over 8x8 sliding windows.

    Per window: 4*cov*mean_a*mean_b / ((var_a + var_b) * (mean_a^2 + mean_b^2)).
    Windows with a zero denominator count as 1 when the two windows are
    pixel-identical and are dropped otherwise; nan if no window qualifies.
    """
    _check_same_size(a, b)
    if a.height < Q_WINDOW or a.width < Q_WINDOW:
        raise ValueError(f"images must be at least {Q_WINDOW}x{Q_WINDOW}")
    pa = a.pixels.astype(np.int32)
    pb = b.pixels.astype(np.int32)
    n = Q_WINDOW * Q_WINDOW
    sa, sb = _window_sums(pa, Q_WINDOW), _window_sums(pb, Q_WINDOW)
    saa, sbb = _window_sums(pa * pa, Q_WINDOW), _window_sums(pb * pb, Q_WINDOW)
    sab = _window_sums(pa * pb, Q_WINDOW)

    # For 8-bit pixels every n-scaled moment below, and 4*sa*sb, is under
    # 2**31, so it is exact in int32; numerator and denominator, scaled by
    # n**4, stay below 2**58 in int64. Both variances are >= 0, so the
    # denominator is 0 exactly when both are 0 or both means are 0.
    num = (n * sab - sa * sb).astype(np.int64)
    num *= 4 * sa * sb
    den = (n * saa - sa * sa + n * sbb - sb * sb).astype(np.int64)
    den *= sa * sa + sb * sb
    degenerate = den == 0
    den[degenerate] = 1
    q = num / den
    q[degenerate] = 1.0
    keep = ~degenerate | (sa == sb)
    if not keep.any():
        return float("nan")
    return float(q[keep].mean())


def bit_rate(embedded_bits: int, cover: GrayImage) -> float:
    """Embedded bits per cover pixel."""
    return embedded_bits / (cover.width * cover.height)


def histogram(img: GrayImage) -> np.ndarray:
    """256-bin intensity counts; sums to width*height."""
    return np.bincount(img.pixels.reshape(-1), minlength=256).astype(np.int64)


def histogram_l1(a: GrayImage, b: GrayImage) -> float:
    """L1 distance between intensity histograms, normalized to [0, 1]."""
    _check_same_size(a, b)
    dist = int(np.abs(histogram(a) - histogram(b)).sum())
    return dist / (2 * a.width * a.height)


@dataclass(frozen=True, eq=False)
class PdHistogram:
    """Counts of horizontal neighbor differences, indexed by d in [-255, 255]."""

    counts: np.ndarray  # (511,) int64, index d + 255

    def count(self, d: int) -> int:
        if not -MAX_DIFF <= d <= MAX_DIFF:
            raise ValueError(f"difference {d} out of [-255, 255]")
        return int(self.counts[d + MAX_DIFF])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def differences(self) -> np.ndarray:
        return np.arange(-MAX_DIFF, MAX_DIFF + 1)


def pd_histogram(img: GrayImage) -> PdHistogram:
    """Histogram of right-neighbor differences pixel(r, c+1) - pixel(r, c)."""
    if img.width < 2:
        raise ValueError("pixel-difference histogram needs width >= 2")
    px = img.pixels.astype(np.int16)
    d = (px[:, 1:] - px[:, :-1]).reshape(-1)
    counts = np.bincount(d + MAX_DIFF, minlength=2 * MAX_DIFF + 1).astype(np.int64)
    return PdHistogram(counts)


@dataclass(frozen=True)
class RsStatistics:
    """Fractions of regular/singular pixel groups under a flip mask and its negation."""

    r_m: float
    s_m: float
    r_neg_m: float
    s_neg_m: float


def rs_analysis(img: GrayImage, mask=DEFAULT_RS_MASK) -> RsStatistics:
    """RS statistics over row-wise non-overlapping groups of ``len(mask)`` pixels.

    A group is regular when flipping per the mask raises the smoothness
    measure sum(|x[i+1] - x[i]|), singular when it lowers it; groups that
    tie count for neither. Fractions are reported for the mask and its
    negation; leftover columns that do not fill a group are ignored.
    """
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size < 2:
        raise ValueError("mask needs at least 2 entries")
    if not np.isin(mask, (-1, 0, 1)).all():
        raise ValueError("mask entries must be -1, 0, or 1")
    n = int(mask.size)
    if img.width < n:
        raise ValueError(f"image width {img.width} is smaller than the group size {n}")
    per_row = img.width // n
    groups = img.pixels[:, : per_row * n].astype(np.int16).reshape(img.height, per_row, n)
    base = np.abs(np.diff(groups, axis=-1)).sum(axis=-1)
    fractions = []
    for m in (mask, -mask):
        # F1(x) = x ^ 1 and F-1(x) = F1(x + 1) - 1 (Fridrich, Goljan & Du 2001),
        # saturating at 0/255; columns with mask 0 come through unchanged.
        neg, flip = (m < 0).astype(np.int16), np.abs(m).astype(np.int16)
        flipped = np.clip(((groups + neg) ^ flip) - neg, 0, 255)
        after = np.abs(np.diff(flipped, axis=-1)).sum(axis=-1)
        fractions += [float(np.count_nonzero(c) / base.size) for c in (after > base, after < base)]
    return RsStatistics(*fractions)


@dataclass(frozen=True)
class MetricRow:
    """One CSV record: a single metric for (image, method, rate)."""

    image: str
    method: str
    rate: float | str
    metric: str
    value: float | int | str


CSV_HEADER = "image,method,rate,metric,value"


def _csv_value(v) -> str:
    if isinstance(v, str):
        out = v
    elif isinstance(v, (int, np.integer)):
        out = str(int(v))
    else:
        out = format(float(v), ".10g")  # spells out inf, -inf and nan
    if "," in out or "\n" in out or '"' in out:
        raise ValueError(f"CSV field {out!r} needs quoting, which this emitter avoids")
    return out


def emit_csv(rows) -> str:
    """Deterministic comma-separated report: header plus one line per row, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{_csv_value(r.image)},{_csv_value(r.method)},"
            f"{_csv_value(r.rate)},{_csv_value(r.metric)},{_csv_value(r.value)}"
        )
    return "\n".join(lines) + "\n"
