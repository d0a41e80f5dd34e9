"""8-bit grayscale image value type and binary PGM (P5) codec."""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass

import numpy as np


class PgmError(ValueError):
    """Malformed or unsupported PGM data."""


class PgmFormatError(PgmError):
    """Bad magic number or unparsable header."""


class PgmDepthError(PgmError):
    """Sample depth other than 8-bit (maxval 255)."""


class PgmTruncatedError(PgmError):
    """Header promises more pixel data than the stream contains."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 8-bit single-channel raster.

    ``pixels`` is stored as a read-only, C-ordered ``(height, width)`` uint8 array;
    instances compare equal iff dimensions and every pixel match.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise ValueError(f"expected a non-empty 2-D pixel array, got shape {px.shape}")
        if px.dtype != np.uint8:
            if not np.issubdtype(px.dtype, np.integer):
                raise ValueError(f"pixel dtype must be integral, got {px.dtype}")
            if px.min() < 0 or px.max() > 255:
                raise ValueError("pixel intensities must lie in [0, 255]")
        px = px.astype(np.uint8, order="C")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    def rows(self, stop: int) -> np.ndarray:
        """The first ``stop`` rows, a read-only view, as :meth:`PgmFile.rows`
        reads them from a file."""
        return self.pixels[:stop]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


def _adopt(px: np.ndarray) -> GrayImage:
    """Wrap a non-empty, C-ordered 2-D uint8 array without copying it.

    Only for arrays no other code can write: a view of immutable ``bytes`` or
    of a read-only view of a private buffer, or a fresh array whose creator
    drops every other reference to it.
    """
    px.setflags(write=False)
    img = object.__new__(GrayImage)
    object.__setattr__(img, "pixels", px)
    return img


# The bytes ``bytes.isspace`` accepts; tested by value so the header parser
# also reads a memoryview, which has no ``isspace``.
_WHITESPACE = b" \t\n\r\x0b\x0c"


def _header_tokens(data):
    """Yield (token, end_offset) for whitespace-separated header fields.

    ``#`` starts a comment running to end of line; tokens may be separated
    by any amount of whitespace.
    """
    i, n = 0, len(data)
    while True:
        while i < n and data[i] in _WHITESPACE:
            i += 1
        if i < n and data[i] == 0x23:  # '#'
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        start = i
        while i < n and data[i] not in _WHITESPACE and data[i] != 0x23:
            i += 1
        if start == i:
            raise PgmFormatError("incomplete PGM header")
        yield bytes(data[start:i]), i


def _header(data) -> tuple[int, int, int]:
    """``(height, width, offset)`` of the PGM header at the start of ``data``,
    a bytes-like object; the raster starts at byte ``offset``."""
    tokens = _header_tokens(data)
    magic, _ = next(tokens)
    if magic != b"P5":
        raise PgmFormatError(f"not a binary PGM stream (magic {magic!r})")
    (w_tok, _), (h_tok, _), (max_tok, end) = next(tokens), next(tokens), next(tokens)
    fields = (w_tok, h_tok, max_tok)
    if not all(tok.isdigit() for tok in fields):  # int() would also take "+1", "1_0"
        raise PgmFormatError("non-numeric PGM header field")
    try:
        width, height, maxval = map(int, fields)
    except ValueError:  # more digits than int() converts
        raise PgmFormatError("oversized PGM header field") from None
    if width <= 0 or height <= 0:
        raise PgmFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PgmDepthError(f"unsupported maxval {maxval} (only 8-bit, maxval 255)")
    if end >= len(data) or data[end] not in _WHITESPACE:
        raise PgmFormatError("missing whitespace between maxval and raster")
    return height, width, end + 1


def _check_raster(raster_bytes: int, height: int, width: int) -> None:
    if raster_bytes < width * height:
        raise PgmTruncatedError(f"raster holds {raster_bytes} bytes, need {width * height}")


def _raster(data) -> np.ndarray:
    """The ``(height, width)`` uint8 view of the raster inside PGM ``data``,
    a bytes-like object; the view is writable exactly when ``data`` is."""
    height, width, offset = _header(data)
    _check_raster(len(data) - offset, height, width)
    px = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=offset)
    return px.reshape(height, width)


def read_pgm(data: bytes) -> GrayImage:
    """Decode binary 8-bit PGM (``P5``) bytes into a :class:`GrayImage`.

    The reader is liberal about header whitespace and ``#`` comments but
    requires maxval 255, a single whitespace byte before the raster, and a
    raster of at least width*height bytes.
    """
    return _adopt(_raster(data))


def pgm_chunks(img: GrayImage) -> tuple[bytes, memoryview]:
    """The canonical ``P5`` encoding as two chunks: the header
    ``P5\\n<w> <h>\\n255\\n`` and a view of the raw raster."""
    return f"P5\n{img.width} {img.height}\n255\n".encode("ascii"), img.pixels.data


def write_pgm(img: GrayImage) -> bytes:
    """Encode to canonical ``P5`` bytes, the two :func:`pgm_chunks` joined.

    The output is byte-identical for equal images and round-trips through
    :func:`read_pgm` exactly.
    """
    return b"".join(pgm_chunks(img))


# The first read of a file; a longer header (long ``#`` comments) reads more.
_HEAD_READ = 256


class PgmFile:
    """An open PGM file whose raster is read on demand, a row block at a time.

    Use it as a context manager. Opening reads and checks the header, and
    checks that the file is long enough for the raster it announces, so
    ``height`` and ``width`` are known before any pixel is read.
    :meth:`rows` reads only the rows no earlier call read. A pipe or device
    reports no size, so one is read whole at open.
    """

    def __init__(self, path):
        self._file = open(path, "rb")
        try:
            self._open()
        except BaseException:
            self._file.close()
            raise

    def _open(self) -> None:
        f = self._file
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            self._px = _raster(memoryview(bytearray(f.read())))
            self.height, self.width = self._px.shape
            return
        head = f.read(_HEAD_READ)
        while True:
            try:
                self.height, self.width, offset = _header(head)
                break
            except PgmError:  # perhaps only the cut (maxval "25" of "255"): read more
                more = f.read(len(head))
                if not more:  # the error is the whole file's own
                    raise
                head += more
        _check_raster(st.st_size - offset, self.height, self.width)
        self._offset = offset
        self._px = np.empty((0, self.width), dtype=np.uint8)  # the rows read so far

    def _read(self, stop: int) -> np.ndarray:
        """The first ``stop`` rows as a writable view of a buffer only this
        reader holds, which grows to ``stop`` rows and no further."""
        stop = min(stop, self.height)
        have = len(self._px)
        if stop > have:
            px = np.empty((stop, self.width), dtype=np.uint8)  # not zeroed: the read fills it
            px[:have] = self._px
            self._file.seek(self._offset + have * self.width)
            got = self._file.readinto(px[have:])
            if got < (stop - have) * self.width:  # the file shrank since it was opened
                raise PgmTruncatedError(
                    f"raster holds {have * self.width + got} bytes, need {self.width * self.height}"
                )
            self._px = px
        return self._px[:stop]

    def rows(self, stop: int) -> np.ndarray:
        """The first ``stop`` rows, a ``(stop, width)`` view that no one can
        make writable."""
        return np.asarray(memoryview(self._read(stop)).toreadonly())

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_pgm(path) -> GrayImage:
    """Read a PGM file into a read-only :class:`GrayImage` over the buffer
    its rows were read into."""
    with PgmFile(path) as f:
        return _adopt(f.rows(f.height))


def load_raster(path) -> np.ndarray:
    """Read a PGM file into a writable ``(height, width)`` uint8 array that
    views the buffer its rows were read into; the caller owns it."""
    with PgmFile(path) as f:
        return f._read(f.height)


def save_pgm(path, img: GrayImage) -> None:
    with open(path, "wb") as f:
        f.writelines(pgm_chunks(img))
