"""The stego-side metrics computed on the changed rows only, against
whole-image oracles: every value must be the same float, nan or inf."""

import math

import analysis_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from rs_oracle import rs_closed_form

from lbpstego import analysis
from lbpstego.analysis import (
    DEFAULT_RS_MASK,
    Reference,
    histogram_l1,
    psnr,
    quality_index,
    rs_analysis,
)
from lbpstego.image import GrayImage
from lbpstego.sweep import pdh_correlation

RS_MASKS = (DEFAULT_RS_MASK, (1, -1), (-1, 1, 0, -1, 1))
BANDS = ("none", "first", "one", "last", "middle", "all")


def same(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def _cover(draw, rng, shape) -> np.ndarray:
    kind = draw(st.sampled_from(("random", "flat", "saturated")))
    if kind == "flat":
        return np.full(shape, draw(st.sampled_from((0, 255, 77))), dtype=np.uint8)
    px = rng.integers(0, 256, shape, dtype=np.uint8)
    if kind == "saturated":
        # 8x8-or-larger regions of 0, 255 or one mid value: zero-variance windows
        for _ in range(draw(st.integers(1, 4))):
            r, c = rng.integers(0, shape[0] - 7), rng.integers(0, shape[1] - 7)
            px[r : r + 8 + rng.integers(0, 6), c : c + 8 + rng.integers(0, 6)] = rng.choice([0, 255, 130])
    return px


@st.composite
def band_cases(draw):
    """A cover from 8x8 up (flat, saturated regions or random) and a stego that
    differs from it only on a row range that is empty, one row, the last row,
    a middle band or every row."""
    shape = (draw(st.integers(8, 40)), draw(st.integers(8, 41)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cover = _cover(draw, rng, shape)
    h = shape[0]
    where = draw(st.sampled_from(BANDS))
    lo, hi = {"none": (0, 0), "first": (0, 1), "last": (h - 1, h), "all": (0, h)}.get(where, (0, 0))
    if where == "one":
        lo = draw(st.integers(0, h - 1))
        hi = lo + 1
    elif where == "middle":
        lo = draw(st.integers(1, h - 2))
        hi = draw(st.integers(lo + 1, h - 1))
    stego = cover.copy()
    change = draw(st.sampled_from(("random", "plus_minus_one", "flat")))
    band = stego[lo:hi]
    if change == "random":
        band[...] = rng.integers(0, 256, band.shape)
    elif change == "plus_minus_one":
        band[...] = np.clip(band.astype(np.int16) + rng.integers(-1, 2, band.shape), 0, 255)
    else:
        band[...] = draw(st.sampled_from((0, 5, 255)))
    return GrayImage(cover), GrayImage(stego)


METRICS = (
    (psnr, oracle.psnr),
    (quality_index, oracle.quality_index),
    (histogram_l1, oracle.histogram_l1),
    (pdh_correlation, oracle.pdh_correlation),
)


@settings(max_examples=300, deadline=None)
@given(band_cases(), st.sampled_from(RS_MASKS))
def test_band_metrics_equal_whole_image_oracles(case, mask):
    cover, stego = case
    ref = Reference(cover)
    for metric, whole in METRICS:
        expect = whole(cover, stego)
        assert same(metric(ref, stego), expect), metric.__name__
        assert same(metric(cover, stego), expect), metric.__name__
    assert np.array_equal(ref.pd_counts_of(stego), oracle.pd_counts(stego))
    assert repr(rs_analysis(stego, mask, reference=ref)) == repr(rs_closed_form(stego, mask))
    # The band kept for one stego is not reused for another.
    assert ref.band(cover) == (0, 0)
    assert same(quality_index(ref, stego), oracle.quality_index(cover, stego))


def test_all_degenerate_windows_give_nan():
    """Both images flat at different levels: every window has zero variance
    and differs, so no window qualifies, in the band path as in the oracle."""
    cover = GrayImage(np.zeros((9, 11), dtype=np.uint8))
    stego = GrayImage(np.full((9, 11), 5, dtype=np.uint8))
    assert math.isnan(oracle.quality_index(cover, stego))
    assert math.isnan(quality_index(Reference(cover), stego))


def test_unchanged_stego_gives_the_covers_own_values(smooth512):
    """An empty band (the cover itself, or an equal copy) returns the values of
    the cover compared with itself, for every metric."""
    cover = GrayImage(smooth512.pixels[:64, :75])
    ref = Reference(cover)
    for stego in (cover, GrayImage(cover.pixels.copy())):
        assert ref.band(stego) == (0, 0)
        assert psnr(ref, stego) == math.inf
        assert quality_index(ref, stego) == 1.0
        assert histogram_l1(ref, stego) == 0.0
        assert pdh_correlation(ref, stego) == 1.0
        assert ref.pd_counts_of(stego) is ref.pd_counts
        for mask in RS_MASKS:
            assert rs_analysis(stego, mask, reference=ref) == rs_analysis(cover, mask)


def test_rs_reference_of_another_size_is_rejected():
    ref = Reference(GrayImage(np.zeros((8, 8), dtype=np.uint8)))
    other = GrayImage(np.zeros((8, 9), dtype=np.uint8))
    with pytest.raises(ValueError) as from_psnr:
        psnr(ref, other)
    with pytest.raises(ValueError) as from_rs:
        rs_analysis(other, DEFAULT_RS_MASK, reference=ref)
    assert type(from_rs.value) is type(from_psnr.value) is ValueError
    assert str(from_rs.value) == str(from_psnr.value)


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        np.int32,
        st.tuples(st.integers(8, 40), st.integers(8, 41)),
        elements=st.integers(0, 255 * 255 * 64),
    )
)
def test_window_sums_by_doubling_equal_shifted_adds(values):
    assert np.array_equal(analysis._window_sums(values), oracle.window_sums(values, 8))
