import ast
import errno
import io
import os
import tempfile
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from pgm_oracle import header_tokens

from lbpstego import image
from lbpstego.image import (
    GrayImage,
    PgmDepthError,
    PgmError,
    PgmFile,
    PgmFormatError,
    PgmTruncatedError,
    load_pgm,
    load_raster,
    pgm_chunks,
    read_pgm,
    save_pgm,
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

    def test_bad_magic_is_quoted_to_eight_bytes(self):
        with pytest.raises(PgmFormatError, match=r"^not a binary PGM stream \(magic b'P6xxxxxx'\)$"):
            read_pgm(b"P6" + b"x" * 5000 + b" 1 1 255 \x00")

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

    def test_save_pgm_writes_the_write_pgm_bytes(self, tmp_path):
        img = GrayImage(np.arange(12, dtype=np.uint8).reshape(3, 4))
        save_pgm(tmp_path / "a.pgm", img)
        assert (tmp_path / "a.pgm").read_bytes() == write_pgm(img)

    def test_save_pgm_failing_after_its_first_chunk_keeps_the_old_file(self, tmp_path, monkeypatch):
        img = GrayImage(np.arange(12, dtype=np.uint8).reshape(3, 4))
        path = tmp_path / "a.pgm"
        path.write_bytes(b"old bytes")

        header, _ = pgm_chunks(img)

        def header_then_fail(img):
            yield header
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(image, "pgm_chunks", header_then_fail)
        with pytest.raises(OSError):
            save_pgm(path, img)
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["a.pgm"]  # no .*.tmp file


class TestLoadPgm:
    IMG = GrayImage(np.arange(20, dtype=np.uint8).reshape(4, 5))

    def test_loaded_image_is_read_only(self, tmp_path):
        save_pgm(tmp_path / "a.pgm", self.IMG)
        img = load_pgm(tmp_path / "a.pgm")
        assert img == self.IMG
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1
        with pytest.raises(ValueError):
            img.pixels.setflags(write=True)

    def test_loaded_raster_is_writable_and_private(self, tmp_path):
        save_pgm(tmp_path / "a.pgm", self.IMG)
        raster = load_raster(tmp_path / "a.pgm")
        assert np.array_equal(raster, self.IMG.pixels) and raster.flags.c_contiguous
        raster[0, 0] = 99
        assert load_raster(tmp_path / "a.pgm")[0, 0] == 0

    def test_file_that_shrinks_while_read_is_truncated(self, tmp_path, monkeypatch):
        path = tmp_path / "a.pgm"
        save_pgm(path, self.IMG)

        def fstat_then_shrink(fd):
            st = os.fstat(fd)
            os.truncate(path, st.st_size - 3)
            return st

        monkeypatch.setattr(image, "os", SimpleNamespace(fstat=fstat_then_shrink))
        with pytest.raises(PgmTruncatedError):
            load_pgm(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_a_pipe(self):
        r, w = os.pipe()
        try:
            os.write(w, write_pgm(self.IMG))
            os.close(w)
            assert load_pgm(f"/dev/fd/{r}") == self.IMG
        finally:
            os.close(r)


class TestPgmFile:
    # 64 KB of raster, well past the 8 KB a buffered reader would read ahead.
    IMG = GrayImage(np.random.default_rng(7).integers(0, 256, (64, 1024), dtype=np.uint8))

    @pytest.fixture
    def path(self, tmp_path):
        save_pgm(tmp_path / "a.pgm", self.IMG)
        return tmp_path / "a.pgm"

    def test_rows_on_demand_are_the_image_rows_and_read_only(self, path):
        with PgmFile(path) as f:
            assert (f.height, f.width) == (64, 1024)
            for stop in (3, 2, 40, 64, 99):
                top = f.rows(stop)
                assert np.array_equal(top, self.IMG.pixels[:stop])
                with pytest.raises(ValueError):
                    top.setflags(write=True)

    def test_file_truncated_after_open_raises_from_rows(self, path):
        header = len(pgm_chunks(self.IMG)[0])
        with PgmFile(path) as f:
            assert np.array_equal(f.rows(2), self.IMG.pixels[:2])
            os.truncate(path, header + 40 * 1024 + 5)
            with pytest.raises(PgmTruncatedError, match="raster holds 40965 bytes, need 65536"):
                f.rows(64)
            with pytest.raises(PgmTruncatedError):
                f.rows(41)
            # The rows still on disk read back exactly; no unread byte is handed out.
            assert np.array_equal(f.rows(40), self.IMG.pixels[:40])
            with pytest.raises(PgmTruncatedError):
                f.rows(64)

    @pytest.mark.parametrize("most", [1, 1000, 4096])
    def test_short_reads_are_read_on_until_the_rows_are_full(self, path, most):
        """The file is read unbuffered, and one read may return fewer bytes
        than asked: rows() reads on until its buffer is full, and a file
        that shrank after open still fails with the same message."""
        header = len(pgm_chunks(self.IMG)[0])

        class ShortReads:
            def __init__(self, raw):
                self.raw, self.calls = raw, 0

            def readinto(self, buf):
                self.calls += 1
                return self.raw.readinto(memoryview(buf)[:most])

            def __getattr__(self, name):
                return getattr(self.raw, name)

        with PgmFile(path) as f:
            assert isinstance(f._file, io.FileIO)
            f._file = short = ShortReads(f._file)
            assert np.array_equal(f.rows(64), self.IMG.pixels)
            assert short.calls >= -(-64 * 1024 // most)
            os.truncate(path, header + 40 * 1024 + 5)
            with pytest.raises(PgmTruncatedError, match="raster holds 40965 bytes, need 65536"):
                f.rows(64)
            assert np.array_equal(f.rows(40), self.IMG.pixels[:40])

    def test_short_file_fails_at_open_whatever_rows_are_asked(self, path):
        data = path.read_bytes()[:-1024]
        path.write_bytes(data)
        with pytest.raises(PgmTruncatedError) as from_bytes:
            read_pgm(data)
        with pytest.raises(PgmTruncatedError) as from_file:
            PgmFile(path)
        assert str(from_file.value) == str(from_bytes.value) == "raster holds 64512 bytes, need 65536"

    @pytest.mark.parametrize("comment", [0, image._HEAD_READ - 12, image._HEAD_READ, 5 * image._HEAD_READ])
    def test_header_comment_longer_than_the_first_read(self, tmp_path, comment):
        header, raster = pgm_chunks(self.IMG)
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n#" + b"c" * comment + header[2:] + raster)
        assert load_pgm(path) == self.IMG
        with PgmFile(path) as f:
            assert np.array_equal(f.rows(5), self.IMG.pixels[:5])

    def test_reader_keeps_no_rows(self, path):
        with PgmFile(path) as f:
            top = f.rows(3)
            view = f.rows(64)
            owner = view.base.obj
            while owner.base is not None:
                owner = owner.base
            rows_read = weakref.ref(owner)
            del view, owner
            assert rows_read() is None
            assert np.array_equal(top, self.IMG.pixels[:3])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_whole_at_open(self):
        r, w = os.pipe()
        small = GrayImage(self.IMG.pixels[:8, :64])
        try:
            os.write(w, write_pgm(small))
            os.close(w)
            with PgmFile(f"/dev/fd/{r}") as f:
                assert np.array_equal(f.rows(3), small.pixels[:3])
                assert np.array_equal(f.rows(8), small.pixels)
        finally:
            os.close(r)


class TestHeaderLimit:
    IMG = GrayImage(np.arange(12, dtype=np.uint8).reshape(3, 4))

    def pgm(self, header_bytes):
        """IMG's PGM with a comment line after the magic that makes its header,
        raster separator included, ``header_bytes`` long."""
        header, raster = pgm_chunks(self.IMG)
        return b"P5\n#" + b"c" * (header_bytes - len(header) - 2) + b"\n" + header[3:] + raster

    @pytest.mark.parametrize("first_read", [image._HEAD_READ, 3])
    def test_header_of_the_limit_loads(self, tmp_path, first_read):
        data = self.pgm(image._MAX_HEADER)
        (tmp_path / "a.pgm").write_bytes(data)
        assert read_pgm(data) == self.IMG
        with mock.patch.object(image, "_HEAD_READ", first_read):
            assert load_pgm(tmp_path / "a.pgm") == self.IMG

    @pytest.mark.parametrize("first_read", [image._HEAD_READ, 3])
    @pytest.mark.parametrize(
        "over, message",
        [(1, "missing whitespace between maxval and raster"), (64, "incomplete PGM header")],
        ids=["separator-past-the-limit", "comment-past-the-limit"],
    )
    def test_header_past_the_limit_is_refused(self, tmp_path, first_read, over, message):
        data = self.pgm(image._MAX_HEADER + over)
        (tmp_path / "a.pgm").write_bytes(data)
        with pytest.raises(PgmFormatError) as from_bytes:
            read_pgm(data)
        with mock.patch.object(image, "_HEAD_READ", first_read), pytest.raises(PgmFormatError) as from_file:
            load_pgm(tmp_path / "a.pgm")
        assert str(from_file.value) == str(from_bytes.value) == message


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


# Bytes a PGM header is made of, so mutations reach past the magic-number check.
_HEADER_BYTES = st.sampled_from(list(b"P5 \t\n\r#0123456789+-_.e") + [0, 0xB2, 0xFF])


@st.composite
def pgm_like_bytes(draw):
    """Random bytes, or a valid PGM truncated, with bytes overwritten, or with bytes inserted."""
    kind = draw(st.sampled_from(("random", "truncated", "overwritten", "inserted")))
    if kind == "random":
        return draw(st.binary(max_size=80))
    shape = st.tuples(st.integers(1, 6), st.integers(1, 6))
    data = bytearray(write_pgm(GrayImage(draw(hnp.arrays(np.uint8, shape)))))
    if kind == "truncated":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    edits = draw(st.lists(st.tuples(st.integers(0, len(data)), _HEADER_BYTES), min_size=1, max_size=4))
    for at, byte in edits:
        if kind == "overwritten":
            data[min(at, len(data) - 1)] = byte
        else:
            data.insert(at, byte)
    return bytes(data)


@settings(max_examples=400)
@given(pgm_like_bytes())
def test_read_pgm_returns_an_image_or_raises_pgm_error(data):
    try:
        img = read_pgm(data)
    except PgmError:
        return
    assert isinstance(img, GrayImage)
    assert len(data) >= img.width * img.height


def _scan(tokens):
    """Every ``(token, end)`` pair a header scanner yields, then the message
    of the error that ends it (each ends in one where the data runs out)."""
    pairs = []
    try:
        for pair in tokens:
            pairs.append(pair)
    except PgmFormatError as exc:
        return pairs, str(exc)


@settings(max_examples=1000)
@given(st.lists(st.one_of(_HEADER_BYTES, st.sampled_from([0x0B, 0x0C])), max_size=30).map(bytes))
def test_header_scanner_is_the_byte_loop(data):
    expect = _scan(header_tokens(data))
    for form in (data, memoryview(data), memoryview(b"P" + data)[1:]):
        assert _scan(image._header_tokens(form)) == expect


def _outcome(load, source):
    """The image ``load(source)`` gives, or the PgmError it raises."""
    try:
        return load(source)
    except PgmError as exc:
        return exc


def _assert_same_outcome(got, expect):
    if isinstance(expect, PgmError):
        assert type(got) is type(expect) and str(got) == str(expect)
    else:
        assert got == expect


@settings(max_examples=300)
@given(pgm_like_bytes(), st.integers(1, 24))
def test_load_pgm_of_a_file_is_read_pgm_of_its_bytes(data, first_read):
    """Whatever the first read cuts the header at, the file gives the image or
    the error, message included, that its bytes give."""
    expect = _outcome(read_pgm, data)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(image, "_HEAD_READ", first_read):
        path = Path(tmp) / "a.pgm"
        path.write_bytes(data)
        for load in (load_pgm, lambda p: GrayImage(load_raster(p))):
            _assert_same_outcome(_outcome(load, path), expect)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@settings(max_examples=60)
@given(pgm_like_bytes())
def test_load_pgm_of_a_pipe_is_read_pgm_of_its_bytes(data):
    """A pipe, read whole and then like a file, gives what its bytes give
    wherever the first read cuts the header."""
    expect = _outcome(read_pgm, data)
    for first_read in range(1, 25):
        r, w = os.pipe()
        try:
            os.write(w, data)  # at most a few hundred bytes, inside the pipe's buffer
            os.close(w)
            with mock.patch.object(image, "_HEAD_READ", first_read):
                _assert_same_outcome(_outcome(load_pgm, f"/dev/fd/{r}"), expect)
        finally:
            os.close(r)


def _file_writes(tree):
    """Line numbers of the calls in ``tree`` that write files: ``open`` with a
    ``w``, ``x`` or ``a`` mode (or a mode not spelled out), ``os.replace`` and
    ``os.fchmod``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wxa"):
                yield node.lineno
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and (
            func.value.id == "os" and name in ("replace", "fchmod")
        ):
            yield node.lineno


def test_only_image_writes_files():
    """``image.save_chunks`` is the package's one file writer: no other module
    opens a file to write, renames one into place or sets a mode."""
    src = Path(image.__file__).parent
    writes = {p.name: list(_file_writes(ast.parse(p.read_text()))) for p in sorted(src.glob("*.py"))}
    assert writes["image.py"]  # the pin finds the writer it guards
    assert {name: lines for name, lines in writes.items() if lines and name != "image.py"} == {}
