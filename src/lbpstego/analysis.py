"""Stego quality and detectability metrics: PSNR, universal quality index,
bit rate, intensity and pixel-difference histograms, PDH correlation, RS
analysis, each metric's size floor, and a deterministic CSV emitter."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .image import GrayImage, PgmFile

Q_WINDOW = 8
MAX_DIFF = 255
DEFAULT_RS_MASK = (0, 1, 1, 0)


class ImageTooSmallError(ValueError):
    """An image is smaller than the least size a metric is defined for."""


def fits_window(height: int, width: int) -> bool:
    return min(height, width) >= Q_WINDOW


def check_window(img: GrayImage | PgmFile, name="image") -> None:
    """Raise ImageTooSmallError, naming ``img`` as ``name``, if it is under the 8x8 window."""
    if not fits_window(img.height, img.width):
        size, floor = f"{img.height}x{img.width}", f"{Q_WINDOW}x{Q_WINDOW}"
        raise ImageTooSmallError(f"{name} is {size}, under {floor}: images must be at least {floor}")


def check_same_size(a: GrayImage | PgmFile, b: GrayImage | PgmFile) -> None:
    """Raise ValueError if ``a`` and ``b`` differ in height or width."""
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(f"image sizes differ: {a.height}x{a.width} vs {b.height}x{b.width}")


def check_rs_width(img: GrayImage | PgmFile, mask: np.ndarray) -> None:
    """Raise ImageTooSmallError if ``img`` is narrower than one group of the :func:`rs_mask` ``mask``."""
    if img.width < mask.size:
        raise ImageTooSmallError(f"image width {img.width} is smaller than the group size {mask.size}")


def check_pdh_width(img: GrayImage | PgmFile) -> None:
    """Raise ImageTooSmallError if ``img`` has no horizontal pixel pair."""
    if img.width < 2:
        raise ImageTooSmallError("pixel-difference histogram needs width >= 2")


def psnr(a: GrayImage | Reference, b: GrayImage) -> float:
    """10*log10(255^2 / MSE) in decibels, the mean squared pixel difference
    summed exactly in integers; identical images give ``math.inf``. ``a`` may be
    a :class:`Reference`, whose int32 pixels and band for ``b`` are then reused."""
    ref = Reference.of(a)
    lo, hi = ref.band(b)
    diff = np.subtract(ref.pixels32[lo:hi], b.pixels[lo:hi])
    diff *= diff
    mse = int(diff.sum(dtype=np.int64)) / b.pixels.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def _window_sums(values: np.ndarray) -> np.ndarray:
    """Sliding 8x8 window sums, by doubling: sums of 2, 4, then 8 consecutive
    rows, then the same along columns."""
    out = values
    for span in (1, 2, 4):
        out = out[:-span] + out[span:]
    for span in (1, 2, 4):
        out = out[:, :-span] + out[:, span:]
    return out


def _pd_counts(pixels: np.ndarray) -> np.ndarray:
    """Right-neighbour difference counts of a pixel array, index d + 255."""
    px = pixels.astype(np.int16)
    d = (px[:, 1:] - px[:, :-1]).reshape(-1)
    return np.bincount(d + MAX_DIFF, minlength=2 * MAX_DIFF + 1).astype(np.int64)


class Reference:
    """A reference image, such as a cover, with the statistics that every
    comparison against it shares.

    It keeps its int32 pixels, the quality index's 8x8 window terms, its
    pixel-difference histogram and, per RS mask, running per-row counts of
    regular and singular groups. Each is computed on first use and then kept.
    ``psnr``, ``quality_index``, ``histogram_l1`` and ``pdh_correlation``
    take a Reference in place of a ``GrayImage`` as their first argument, and
    ``rs_analysis`` takes one as ``reference=``.

    Each of them then computes the other image's side only on its
    :meth:`band`, the rows where it differs from this one. Every metric is
    row-local or window-local, so outside the band the other image has this
    one's statistics: each total is this image's total, minus its band term,
    plus the other image's band term, and the result is exact. A sweep cell
    thus costs in proportion to the rows its embed changed.
    """

    def __init__(self, image: GrayImage):
        self.image = image
        self._last_band = (image, (0, 0))  # an image equals itself everywhere
        self._rs_rows: dict[tuple, np.ndarray] = {}

    @classmethod
    def of(cls, image: GrayImage | Reference) -> Reference:
        return image if isinstance(image, Reference) else cls(image)

    def band(self, other: GrayImage) -> tuple[int, int]:
        """Rows ``[lo, hi)`` outside which ``other`` equals this image, (0, 0) if
        it equals it everywhere; the result for the last image asked about is
        kept. Raises ValueError if the sizes differ."""
        check_same_size(self.image, other)
        last, band = self._last_band
        if last is not other:
            rows = np.flatnonzero((self.image.pixels != other.pixels).any(axis=1))
            band = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
            self._last_band = (other, band)
        return band

    @cached_property
    def pixels32(self) -> np.ndarray:
        return self.image.pixels.astype(np.int32)

    @cached_property
    def window_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sa, n * saa - sa * sa, sa * sa) over every 8x8 window, in int32:
        sa and saa sum the pixels and their squares, and n = 64."""
        check_window(self.image)
        pa = self.pixels32
        sa, saa = _window_sums(pa), _window_sums(pa * pa)
        sa2 = sa * sa
        return sa, Q_WINDOW * Q_WINDOW * saa - sa2, sa2

    @cached_property
    def pd_counts(self) -> np.ndarray:
        return pd_histogram(self.image)

    def pd_counts_of(self, other: GrayImage) -> np.ndarray:
        """The pixel-difference counts of ``other``, from its band rows only."""
        lo, hi = self.band(other)
        if lo == hi:
            return self.pd_counts
        band = pd_histogram(GrayImage(other.pixels[lo:hi]))
        return self.pd_counts - _pd_counts(self.image.pixels[lo:hi]) + band

    def rs_rows(self, mask: np.ndarray) -> np.ndarray:
        """(height + 1, 4) running counts, over rows [0, r), of the groups that
        :func:`rs_analysis` counts as regular and singular under ``mask`` and
        its negation."""
        key = tuple(mask.tolist())
        if key not in self._rs_rows:
            flags = _rs_flags(self.image.pixels, mask)
            per_row = np.stack([f.reshape(self.image.height, -1).sum(axis=1) for f in flags], 1)
            self._rs_rows[key] = np.concatenate((np.zeros((1, 4), np.int64), per_row.cumsum(0)))
        return self._rs_rows[key]


def quality_index(a: GrayImage | Reference, b: GrayImage) -> float:
    """Universal image quality index averaged over 8x8 sliding windows.

    Per window: 4*cov*mean_a*mean_b / ((var_a + var_b) * (mean_a^2 + mean_b^2)).
    Windows with a zero denominator count as 1 when the two windows are
    pixel-identical and are dropped otherwise; nan if no window qualifies.
    ``a`` may be a :class:`Reference`, whose window terms are then reused.
    """
    ref = Reference.of(a)
    lo, hi = ref.band(b)
    sa, var_a, sa2 = ref.window_terms
    n = Q_WINDOW * Q_WINDOW
    # A window wholly outside the band has b's terms equal to a's, so its
    # numerator and denominator are the same float and it scores exactly 1
    # (a zero-variance one is degenerate and kept, also as 1): equal images,
    # whose band is empty, score 1.0. Only window rows [wlo, whi) overlap the
    # band, and they read pixel rows [wlo, whi + 7).
    q = np.ones(sa.shape)
    wlo, whi = max(0, lo - Q_WINDOW + 1), min(sa.shape[0], hi)
    sa, var_a, sa2 = sa[wlo:whi], var_a[wlo:whi], sa2[wlo:whi]
    pb = b.pixels[wlo : whi + Q_WINDOW - 1]
    # One int32 buffer holds pb, then pa * pb, then pb * pb, and is freed
    # before the float64 stage.
    prod = pb.astype(np.int32)
    sb = _window_sums(prod)
    prod *= ref.pixels32[wlo : whi + Q_WINDOW - 1]
    sab = _window_sums(prod)
    np.multiply(pb, pb, out=prod, dtype=np.int32)
    sbb = _window_sums(prod)
    del prod

    # For 8-bit pixels every n-scaled moment below, and 4*sa*sb, is under
    # 2**31, so it is exact in int32; numerator and denominator, scaled by
    # n**4, stay below 2**58, and float64 multiplication rounds their exact
    # products once, as an int64 product converted to float64 would. Both
    # variances are >= 0, so the denominator is 0 exactly when both are 0
    # or both means are 0. Each int32 term is updated in place and dropped
    # once its float64 product exists.
    sa_sb = sa * sb
    sab *= n
    sab -= sa_sb
    sa_sb *= 4
    num = np.multiply(sab, sa_sb, dtype=np.float64)
    del sab, sa_sb
    sb2 = sb * sb
    sbb *= n
    sbb += var_a
    sbb -= sb2
    sb2 += sa2
    den = np.multiply(sbb, sb2, dtype=np.float64)
    del sbb, sb2
    degenerate = den == 0
    np.divide(num, den, out=q[wlo:whi], where=~degenerate)
    # Windows outside the band are always kept, so only a degenerate band
    # window calls for the mask; with none dropped, q and q[keep] have the
    # same mean, summed in the same order.
    if degenerate.any():
        keep = np.ones(q.shape, dtype=bool)
        keep[wlo:whi] = ~degenerate | (sa == sb)
        if not keep.any():
            return float("nan")
        q = q[keep]
    return float(q.mean())


def bit_rate(embedded_bits: int, cover: GrayImage) -> float:
    """Embedded bits per cover pixel."""
    return embedded_bits / (cover.width * cover.height)


def histogram(img: GrayImage) -> np.ndarray:
    """256-bin intensity counts; sums to width*height."""
    return np.bincount(img.pixels.reshape(-1), minlength=256).astype(np.int64)


def histogram_l1(a: GrayImage | Reference, b: GrayImage) -> float:
    """L1 distance between intensity histograms, normalized to [0, 1]."""
    ref = Reference.of(a)
    lo, hi = ref.band(b)
    # Outside the band both images count the same pixels, so the histograms
    # differ exactly as the two bands' counts do.
    band_a = np.bincount(ref.image.pixels[lo:hi].reshape(-1), minlength=256)
    band_b = np.bincount(b.pixels[lo:hi].reshape(-1), minlength=256)
    return int(np.abs(band_a - band_b).sum()) / (2 * b.width * b.height)


def pd_histogram(img: GrayImage) -> np.ndarray:
    """(511,) int64 counts of right-neighbor differences d = pixel(r, c+1) - pixel(r, c), index d + 255."""
    check_pdh_width(img)
    return _pd_counts(img.pixels)


def pdh_correlation(a: GrayImage | Reference, b: GrayImage) -> float:
    """Pearson correlation between the two pixel-difference histograms."""
    ref = Reference.of(a)
    x = ref.pd_counts.astype(np.float64)
    y = ref.pd_counts_of(b).astype(np.float64)
    xc, yc = x - x.mean(), y - y.mean()
    denom = float(np.sqrt((xc * xc).sum() * (yc * yc).sum()))
    if denom == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    return float((xc * yc).sum() / denom)


# F1(x) = x ^ 1 and F-1(x) = F1(x + 1) - 1 (Fridrich, Goljan & Du 2001),
# saturating at 0/255, as tables indexed by the pixel value.
_FLIPS = {
    1: np.arange(256, dtype=np.int16) ^ 1,
    -1: np.clip((np.arange(1, 257, dtype=np.int16) ^ 1) - 1, 0, 255),
}


def _smoothness(rows, dtype) -> np.ndarray:
    """sum(|rows[j+1] - rows[j]|) for every column, summed row pair by row pair."""
    total = np.zeros(rows[0].shape, dtype)
    for prev, cur in zip(rows, rows[1:]):
        step = np.subtract(cur, prev)
        np.abs(step, out=step)
        total += step
    return total


def _rs_flags(pixels: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """Regular and singular flags of every group in raster order, under the
    mask and then under its negation."""
    n = int(mask.size)
    # One contiguous row per mask position: cols[j] is pixel j of every group.
    cols = pixels[:, : pixels.shape[1] // n * n].reshape(-1, n).T.copy()
    rows = cols.astype(np.int16)
    dtype = np.min_scalar_type(-MAX_DIFF * (n - 1))  # holds any group's smoothness
    base = _smoothness(rows, dtype)
    flags = []
    for m in (mask, -mask):
        flipped = [_FLIPS[e].take(c) if e else r for e, c, r in zip(m.tolist(), cols, rows)]
        after = _smoothness(flipped, dtype)
        flags += [after > base, after < base]
    return flags


def rs_mask(mask) -> np.ndarray:
    """``mask`` as int64, if it is >= 2 entries from {-1, 0, 1}; ValueError otherwise."""
    out = np.asarray(mask, dtype=np.int64)
    if out.size < 2 or np.abs(out).max() > 1:
        raise ValueError(f"mask must be >=2 entries from {{-1,0,1}}, got {out.tolist()}")
    return out


def rs_analysis(
    img: GrayImage, mask=DEFAULT_RS_MASK, *, reference: Reference | None = None
) -> dict[str, float]:
    """RS statistics over row-wise non-overlapping groups of ``len(mask)`` pixels.

    A group is regular when flipping per the mask raises the smoothness
    measure sum(|x[i+1] - x[i]|), singular when it lowers it; groups that
    tie count for neither. Returns, named as CSV metrics and in this order,
    the fractions of regular and singular groups under the mask and its
    negation, then |R - S| for each; leftover columns that do not fill a
    group are ignored.
    With a :class:`Reference` of the same size, only the rows of ``img``
    that differ from it are grouped; the fractions are the same.
    """
    mask = rs_mask(mask)
    check_rs_width(img, mask)
    ref = Reference(img) if reference is None else reference
    lo, hi = ref.band(img)
    running = ref.rs_rows(mask)
    band = [np.count_nonzero(f) for f in _rs_flags(img.pixels[lo:hi], mask)]
    counts = (running[-1] - running[hi] + running[lo] + band).tolist()
    groups = img.height * (img.width // mask.size)
    r_m, s_m, r_neg_m, s_neg_m = (c / groups for c in counts)
    return {"rs_r_m": r_m, "rs_s_m": s_m, "rs_r_neg_m": r_neg_m, "rs_s_neg_m": s_neg_m,
            "rs_diff_m": abs(r_m - s_m), "rs_diff_neg_m": abs(r_neg_m - s_neg_m)}


@dataclass(frozen=True)
class MetricRow:
    """One CSV record: a single metric for (image, method, rate)."""

    image: str
    method: str
    rate: float | str
    metric: str
    value: float | int | str


def metric_rows(image: str, method: str, rate: float | str, values: dict) -> list[MetricRow]:
    """One row per ``values`` entry (metric name to value), in dict order."""
    return [MetricRow(image, method, rate, metric, value) for metric, value in values.items()]


CSV_HEADER = "image,method,rate,metric,value"


def csv_field(v) -> str:
    """``v`` as one field of :func:`emit_csv`; ValueError if it would need quoting."""
    if isinstance(v, str):
        out = v
    elif isinstance(v, (int, np.integer)):
        out = str(int(v))
    else:
        out = format(float(v), ".10g")  # spells out inf, -inf and nan
    if any(ch in out for ch in ',"\n\r'):
        raise ValueError(f"CSV field {out!r} needs quoting, which this emitter avoids")
    return out


def emit_csv(rows) -> str:
    """Deterministic comma-separated report: header plus one line per row, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{csv_field(r.image)},{csv_field(r.method)},"
            f"{csv_field(r.rate)},{csv_field(r.metric)},{csv_field(r.value)}"
        )
    return "\n".join(lines) + "\n"
