import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lbpstego.image import (
    GrayImage,
    PgmDepthError,
    PgmFormatError,
    PgmTruncatedError,
    read_pgm,
    write_pgm,
)


class TestGrayImage:
    def test_accepts_int_arrays_in_range(self):
        img = GrayImage(np.array([[0, 128], [255, 7]], dtype=np.int64))
        assert img.pixels.dtype == np.uint8
        assert img.width == 2 and img.height == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0, 256]]))
        with pytest.raises(ValueError):
            GrayImage(np.array([[-1, 0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 3), dtype=np.uint8))

    def test_transposed_int_array_writes_like_its_c_ordered_copy(self):
        px = np.arange(12, dtype=np.int64).reshape(3, 4).T
        img = GrayImage(px)
        assert img.pixels.flags.c_contiguous
        assert write_pgm(img) == write_pgm(GrayImage(np.ascontiguousarray(px)))
        assert read_pgm(write_pgm(img)) == img

    def test_read_pgm_wraps_the_raster_without_a_copy(self):
        data = write_pgm(GrayImage(np.arange(12, dtype=np.uint8).reshape(3, 4)))
        img = read_pgm(data)
        assert np.shares_memory(img.pixels, np.frombuffer(data, dtype=np.uint8))
        assert img.pixels.flags.c_contiguous
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1
        with pytest.raises(ValueError):
            img.pixels.setflags(write=True)

    def test_pixels_are_read_only(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    def test_equality_is_pixel_exact(self):
        a = GrayImage(np.array([[1, 2]], dtype=np.uint8))
        b = GrayImage(np.array([[1, 2]], dtype=np.uint8))
        c = GrayImage(np.array([[1, 3]], dtype=np.uint8))
        assert a == b and a != c
        assert a != GrayImage(np.array([[1], [2]], dtype=np.uint8))


class TestReadPgm:
    def test_minimal_legal_pgm(self):
        img = read_pgm(b"P5\n1 1\n255\n\x00")
        assert (img.width, img.height) == (1, 1)
        assert img.pixels[0, 0] == 0

    def test_two_pixels(self):
        img = read_pgm(b"P5\n2 1\n255\n\x00\xff")
        assert img.width == 2 and img.height == 1
        assert list(img.pixels[0]) == [0, 255]

    def test_sixteen_bit_rejected(self):
        with pytest.raises(PgmDepthError):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_bad_magic(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P6\n1 1\n255\n\x00")
        with pytest.raises(PgmFormatError):
            read_pgm(b"hello world")

    def test_truncated_raster(self):
        with pytest.raises(PgmTruncatedError):
            read_pgm(b"P5\n2 2\n255\n\x00\x01")

    def test_incomplete_header(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P5\n2 2\n")

    def test_comments_and_whitespace(self):
        data = b"P5 # magic\n# a comment line\n  2\t1 # dims\n255\n\x05\x06"
        img = read_pgm(data)
        assert list(img.pixels[0]) == [5, 6]

    @pytest.mark.parametrize(
        "header",
        [b"P5 1_0 1 255\n", b"P5 +10 1 255\n", b"P5 10 1 2_55\n", b"P5 " + b"1" * 5000 + b" 1 255\n"],
        ids=["underscore-width", "signed-width", "underscore-maxval", "5000-digit-width"],
    )
    def test_header_fields_must_be_ascii_decimal(self, header):
        with pytest.raises(PgmFormatError):
            read_pgm(header + bytes(10))

    def test_zero_dimension_rejected(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P5\n0 1\n255\n")

    def test_trailing_bytes_ignored(self):
        img = read_pgm(b"P5\n1 1\n255\n\x09extra")
        assert img.pixels[0, 0] == 9


class TestWritePgm:
    def test_canonical_form(self):
        img = GrayImage(np.array([[7]], dtype=np.uint8))
        assert write_pgm(img) == b"P5\n1 1\n255\n\x07"

    def test_3x2_header(self):
        img = GrayImage(np.arange(6, dtype=np.uint8).reshape(2, 3))
        out = write_pgm(img)
        assert out.startswith(b"P5\n3 2\n255\n")
        assert len(out) == len(b"P5\n3 2\n255\n") + 6

    def test_deterministic(self):
        img = GrayImage(np.arange(12, dtype=np.uint8).reshape(3, 4))
        assert write_pgm(img) == write_pgm(GrayImage(img.pixels))


@settings(max_examples=60)
@given(
    hnp.arrays(
        np.uint8,
        st.tuples(st.integers(1, 24), st.integers(1, 24)),
        elements=st.integers(0, 255),
    )
)
def test_pgm_round_trip(pixels):
    img = GrayImage(pixels)
    assert read_pgm(write_pgm(img)) == img
