import ast
import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from rs_oracle import rs_closed_form

from lbpstego import analysis
from lbpstego.analysis import (
    MAX_DIFF,
    ImageTooSmallError,
    MetricRow,
    Reference,
    bit_rate,
    emit_csv,
    histogram,
    histogram_l1,
    pd_histogram,
    psnr,
    quality_index,
    rs_analysis,
)
from lbpstego.image import GrayImage


def gray(rows):
    return GrayImage(np.array(rows, dtype=np.int64))


class TestPsnr:
    def test_identical_images_are_infinite(self):
        img = gray([[1, 2], [3, 4]])
        assert psnr(img, img) == math.inf

    def test_mse_one_closed_form(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 255, (40, 40), dtype=np.uint8)
        assert abs(psnr(GrayImage(a), GrayImage(a + 1)) - 48.13) < 0.01

    def test_mse_256_closed_form(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 240, (40, 40), dtype=np.uint8)
        assert abs(psnr(GrayImage(a), GrayImage(a + 16)) - 24.05) < 0.01

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = GrayImage(rng.integers(0, 256, (10, 10), dtype=np.uint8))
        b = GrayImage(rng.integers(0, 256, (10, 10), dtype=np.uint8))
        assert psnr(a, b) == psnr(b, a)

    def test_decreases_with_mse(self):
        base = np.full((20, 20), 100, dtype=np.uint8)
        a = GrayImage(base)
        previous = math.inf
        for delta in (1, 2, 5, 11):
            value = psnr(a, GrayImage(base + delta))
            assert value < previous
            previous = value

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(gray([[0]]), gray([[0, 0]]))


class TestQualityIndex:
    def test_self_comparison_is_exactly_one(self):
        rng = np.random.default_rng(3)
        a = GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        assert quality_index(a, a) == 1.0

    def test_constant_self_comparison(self):
        a = GrayImage(np.full((16, 16), 77, dtype=np.uint8))
        assert quality_index(a, a) == 1.0

    def test_inverted_image_scores_negative(self):
        ramp = np.tile(np.arange(64, dtype=np.uint8) * 4, (64, 1))
        a = GrayImage(ramp)
        b = GrayImage(255 - ramp)
        assert quality_index(a, b) < 0

    def test_too_small_rejected(self):
        a = GrayImage(np.zeros((7, 12), dtype=np.uint8))
        with pytest.raises(ValueError):
            quality_index(a, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quality_index(
                GrayImage(np.zeros((8, 8), dtype=np.uint8)),
                GrayImage(np.zeros((8, 9), dtype=np.uint8)),
            )

    def test_reference_gives_the_same_values_as_the_image(self, smooth512):
        """One Reference, reused against several images, matches each fresh call."""
        rng = np.random.default_rng(11)
        cover = GrayImage(smooth512.pixels[:40, :57])
        ref = Reference(cover)
        others = [
            GrayImage(rng.integers(0, 256, (40, 57), dtype=np.uint8)),
            cover,
            GrayImage(255 - cover.pixels),
            GrayImage(cover.pixels ^ 1),
        ]
        for b in others:
            assert repr(quality_index(ref, b)) == repr(quality_index(cover, b))
            assert repr(histogram_l1(ref, b)) == repr(histogram_l1(cover, b))
        assert Reference.of(ref) is ref and Reference.of(cover).image is cover

    def test_full_mu4_embed_on_textured_cover_scores_high(self, textured512):
        """A full-capacity mu=4 embed keeps Q >= 0.99 on a high-variance cover.

        Only strongly textured content supports this: replacing 4 low bits
        costs ~43 MSE, so flat regions drag window scores far below 0.99
        (smooth covers measure ~0.3-0.4 here).
        """
        from lbpstego.codec import StegoParams, embed, max_payload_shape

        params = StegoParams(4)
        rng = np.random.default_rng(9)
        rows, cols = max_payload_shape(textured512, params)
        payload = GrayImage(rng.integers(0, 256, (rows, cols), dtype=np.uint8))
        stego = embed(textured512, payload, params)
        q = quality_index(textured512, stego)
        print(f"q_index(mu=4 full embed, textured cover) = {q:.5f}")
        assert q >= 0.99


class TestBitRate:
    def test_one_bpp(self):
        img = GrayImage(np.zeros((512, 512), dtype=np.uint8))
        assert bit_rate(262144, img) == 1.0

    def test_mu4_stream(self):
        img = GrayImage(np.zeros((512, 512), dtype=np.uint8))
        assert abs(bit_rate(924800, img) - 3.53) < 0.01

    def test_zero(self):
        assert bit_rate(0, gray([[0]])) == 0.0


class TestHistogram:
    def test_constant_image(self):
        img = GrayImage(np.full((4, 4), 7, dtype=np.uint8))
        h = histogram(img)
        assert h[7] == 16 and h.sum() == 16

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        px = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        shuffled = rng.permutation(px.reshape(-1)).reshape(12, 12)
        assert np.array_equal(histogram(GrayImage(px)), histogram(GrayImage(shuffled)))

    def test_l1_bounds(self):
        a = GrayImage(np.zeros((8, 8), dtype=np.uint8))
        b = GrayImage(np.full((8, 8), 255, dtype=np.uint8))
        assert histogram_l1(a, a) == 0.0
        assert histogram_l1(a, b) == 1.0

    def test_half_capacity_embed_barely_moves_histogram(self, smooth512):
        """Report-style check: 50% embedding leaves the histogram nearly intact."""
        from lbpstego.sweep import embed_at_rate

        rng = np.random.default_rng(8)
        payload = GrayImage(rng.integers(0, 256, (200, 200), dtype=np.uint8))
        stego, _ = embed_at_rate(smooth512, payload, "proposed", 50, mu=1)
        distance = histogram_l1(smooth512, stego)
        print(f"histogram_l1(cover, 50% stego) = {distance:.5f}")
        assert 0.0 <= distance <= 1.0  # reported, no published bound to pin


class TestPdHistogram:
    def test_constant_image_spikes_at_zero(self):
        img = GrayImage(np.full((5, 9), 42, dtype=np.uint8))
        h = pd_histogram(img)
        assert h[MAX_DIFF] == 5 * 8
        assert h.sum() == 5 * 8

    def test_enumerated_row(self):
        h = pd_histogram(gray([[10, 12, 11]]))
        assert h[MAX_DIFF + 2] == 1
        assert h[MAX_DIFF - 1] == 1
        assert h.sum() == 2

    def test_total_identity(self):
        rng = np.random.default_rng(5)
        img = GrayImage(rng.integers(0, 256, (13, 17), dtype=np.uint8))
        assert pd_histogram(img).sum() == 13 * 16

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            pd_histogram(gray([[1], [2]]))


class TestRsAnalysis:
    def test_constant_even_image_all_regular(self):
        img = GrayImage(np.full((12, 12), 100, dtype=np.uint8))
        rs = rs_analysis(img)
        assert rs["rs_r_m"] == 1.0 and rs["rs_s_m"] == 0.0

    def test_zero_mask_everything_unusable(self):
        rng = np.random.default_rng(6)
        img = GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
        rs = rs_analysis(img, (0, 0, 0, 0))
        assert [rs["rs_r_m"], rs["rs_s_m"], rs["rs_r_neg_m"], rs["rs_s_neg_m"]] == [0.0, 0.0, 0.0, 0.0]

    def test_fractions_in_range(self):
        rng = np.random.default_rng(7)
        img = GrayImage(rng.integers(0, 256, (24, 33), dtype=np.uint8))
        rs = rs_analysis(img)
        for value in (rs["rs_r_m"], rs["rs_s_m"], rs["rs_r_neg_m"], rs["rs_s_neg_m"]):
            assert 0.0 <= value <= 1.0
        assert rs["rs_r_m"] + rs["rs_s_m"] <= 1.0
        assert rs["rs_r_neg_m"] + rs["rs_s_neg_m"] <= 1.0

    def test_bad_mask_rejected(self):
        img = GrayImage(np.zeros((4, 8), dtype=np.uint8))
        with pytest.raises(ValueError):
            rs_analysis(img, (0, 2, 1, 0))
        with pytest.raises(ValueError):
            rs_analysis(img, (1,))

    def test_narrow_image_rejected(self):
        with pytest.raises(ValueError):
            rs_analysis(GrayImage(np.zeros((4, 3), dtype=np.uint8)), (0, 1, 1, 0))

    @pytest.mark.parametrize("mask", [(0, 1, 1, 0), (0, -1, -1, 0), (1, 0), (1, -1), (-1, 1, 0, -1, 1)])
    @pytest.mark.parametrize("levels", [None, (0, 1, 254, 255)])
    def test_matches_per_group_count(self, mask, levels):
        """Every fraction equals a group-by-group count under the flip definitions."""
        rng = np.random.default_rng(8)
        px = rng.integers(0, 256, (9, 23)) if levels is None else rng.choice(levels, (9, 23))

        def flip(v, m):
            if m == 0:
                return v
            if m == 1:
                return v ^ 1
            return min(255, max(0, v + 1 if v & 1 else v - 1))

        def smoothness(g):
            return sum(abs(b - a) for a, b in zip(g, g[1:]))

        expect = []
        for m in (mask, tuple(-e for e in mask)):
            regular = singular = total = 0
            for row in px.tolist():
                for j in range(0, len(row) - len(m) + 1, len(m)):
                    group = row[j : j + len(m)]
                    before = smoothness(group)
                    after = smoothness([flip(v, e) for v, e in zip(group, m)])
                    regular += after > before
                    singular += after < before
                    total += 1
            expect += [regular / total, singular / total]
        rs = rs_analysis(GrayImage(px), mask)
        assert [rs["rs_r_m"], rs["rs_s_m"], rs["rs_r_neg_m"], rs["rs_s_neg_m"]] == expect

    @pytest.mark.parametrize("size", [129, 130, 200])
    def test_long_masks_sum_smoothness_past_int16(self, size):
        """A group of 130 or more 0/255 pixels can be smoother than int16 holds."""
        rng = np.random.default_rng(10)
        img = GrayImage(rng.choice(np.array([0, 1, 254, 255], dtype=np.uint8), (6, 2 * size + 3)))
        mask = tuple(rng.choice([-1, 0, 1], size).tolist())
        assert repr(rs_analysis(img, mask)) == repr(rs_closed_form(img, mask))
        stripes = GrayImage(np.tile(np.array([0, 255], dtype=np.uint8), (3, size)))
        assert rs_analysis(stripes, (1,) * size) == rs_closed_form(stripes, (1,) * size)

    def test_null_hypothesis_on_natural_covers(self, corpus10):
        """Unmodified covers keep the mask and its negation in agreement."""
        for _, cover in corpus10:
            rs = rs_analysis(cover)
            assert abs(rs["rs_r_m"] - rs["rs_r_neg_m"]) < 0.05
            assert abs(rs["rs_s_m"] - rs["rs_s_neg_m"]) < 0.05


@pytest.mark.parametrize(
    "metric, shape",
    [
        pytest.param(lambda img: quality_index(img, img), (7, 12), id="quality_index"),
        pytest.param(lambda img: quality_index(Reference(img), img), (12, 7), id="reference"),
        pytest.param(pd_histogram, (5, 1), id="pd_histogram"),
        pytest.param(rs_analysis, (5, 3), id="rs_analysis"),
    ],
)
def test_too_small_images_raise_image_too_small(metric, shape):
    with pytest.raises(ImageTooSmallError):
        metric(GrayImage(np.zeros(shape, dtype=np.uint8)))


def _too_small_raises(tree):
    """Line numbers of every ``raise ImageTooSmallError(...)`` in ``tree``."""
    for node in ast.walk(tree):
        exc = node.exc.func if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) else None
        if getattr(exc, "id", getattr(exc, "attr", None)) == "ImageTooSmallError":
            yield node.lineno


def test_only_analysis_raises_image_too_small():
    """Each metric's size floor, the 8x8 window included, is refused in
    ``analysis`` alone: other modules ask it, as the CLI asks ``check_window``."""
    src = Path(analysis.__file__).parent
    raises = {p.name: list(_too_small_raises(ast.parse(p.read_text()))) for p in sorted(src.glob("*.py"))}
    assert raises["analysis.py"]  # the pin finds the raises it guards
    assert {name: lines for name, lines in raises.items() if lines and name != "analysis.py"} == {}


@pytest.mark.parametrize(
    "shape, kwargs, message",
    [
        ((7, 12), {}, "image is 7x12, under 8x8: images must be at least 8x8"),
        ((12, 7), {"name": "cover.pgm"}, "cover.pgm is 12x7, under 8x8: images must be at least 8x8"),
    ],
    ids=["default-name", "named"],
)
def test_check_window_names_the_image_and_the_floor(shape, kwargs, message):
    with pytest.raises(ImageTooSmallError) as exc:
        analysis.check_window(GrayImage(np.zeros(shape, dtype=np.uint8)), **kwargs)
    assert str(exc.value) == message
    analysis.check_window(GrayImage(np.zeros((8, 8), dtype=np.uint8)))


@st.composite
def rs_cases(draw):
    """A mask of 2..9 entries and an image at least as wide: random, 0/1/254/255 or flat."""
    mask = tuple(draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=2, max_size=9)))
    shape = (draw(st.integers(1, 12)), draw(st.integers(len(mask), len(mask) + 40)))
    kind = draw(st.sampled_from(("random", "edges", "flat")))
    if kind == "flat":
        return GrayImage(np.full(shape, draw(st.integers(0, 255)), dtype=np.uint8)), mask
    elements = st.integers(0, 255) if kind == "random" else st.sampled_from((0, 1, 254, 255))
    return GrayImage(draw(hnp.arrays(np.uint8, shape, elements=elements))), mask


@settings(max_examples=300)
@given(rs_cases())
def test_rs_analysis_equals_closed_form_oracle(case):
    img, mask = case
    assert repr(rs_analysis(img, mask)) == repr(rs_closed_form(img, mask))


class TestEmitCsv:
    def test_empty_rows_header_only(self):
        assert emit_csv([]) == "image,method,rate,metric,value\n"

    def test_single_row(self):
        row = MetricRow("lena.pgm", "proposed", 50, "psnr", 51.5)
        assert emit_csv([row]) == "image,method,rate,metric,value\nlena.pgm,proposed,50,psnr,51.5\n"

    def test_deterministic(self):
        rows = [
            MetricRow("a", "m", 10.0, "psnr", math.inf),
            MetricRow("a", "m", 10.0, "q_index", 0.123456789012345),
        ]
        assert emit_csv(rows) == emit_csv(list(rows))

    def test_infinity_spelled_out(self):
        values = [math.inf, -math.inf, math.nan, np.float64("inf")]
        out = emit_csv([MetricRow("a", "m", 1, "psnr", v) for v in values])
        assert out.splitlines()[1:] == [f"a,m,1,psnr,{t}" for t in ("inf", "-inf", "nan", "inf")]

    def test_round_trips_through_csv_reader(self):
        rows = [
            MetricRow("img.pgm", "lsbm", 25.0, "hist_l1", 0.002),
            MetricRow("img.pgm", "lsbm", 25.0, "bits", 12345),
        ]
        parsed = list(csv.reader(io.StringIO(emit_csv(rows))))
        assert parsed[0] == ["image", "method", "rate", "metric", "value"]
        assert parsed[1] == ["img.pgm", "lsbm", "25", "hist_l1", "0.002"]
        assert parsed[2] == ["img.pgm", "lsbm", "25", "bits", "12345"]

    def test_fields_needing_quotes_rejected(self):
        # A CSV reader ends a row at a bare CR as at LF.
        for name in ("a,b", 'a"b', "a\nb", "a\rb"):
            with pytest.raises(ValueError, match="needs quoting"):
                emit_csv([MetricRow(name, "m", 1, "x", 0)])


@settings(max_examples=40)
@given(
    hnp.arrays(
        np.uint8,
        st.tuples(st.integers(1, 20), st.integers(2, 20)),
        elements=st.integers(0, 255),
    )
)
def test_counting_identities(pixels):
    img = GrayImage(pixels)
    assert int(histogram(img).sum()) == img.width * img.height
    assert pd_histogram(img).sum() == img.height * (img.width - 1)
