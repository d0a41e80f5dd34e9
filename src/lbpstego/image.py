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


def _raster(data) -> np.ndarray:
    """The ``(height, width)`` uint8 view of the raster inside PGM ``data``,
    a bytes-like object; the view is writable exactly when ``data`` is."""
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
    raster_bytes = len(data) - end - 1
    if raster_bytes < width * height:
        raise PgmTruncatedError(f"raster holds {raster_bytes} bytes, need {width * height}")
    px = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=end + 1)
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


def _read_file(path) -> memoryview:
    """A writable view of the file's bytes, read once into a buffer no other
    code holds."""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            return memoryview(bytearray(f.read()))  # a pipe or device reports no size
        buf = np.empty(st.st_size, dtype=np.uint8)  # not zeroed: the read fills it
        return memoryview(buf)[: f.readinto(buf)]  # short if the file shrank since fstat


def load_pgm(path) -> GrayImage:
    """Read a PGM file into a read-only :class:`GrayImage` over the file's buffer."""
    return _adopt(_raster(_read_file(path).toreadonly()))


def load_raster(path) -> np.ndarray:
    """Read a PGM file into a writable ``(height, width)`` uint8 array that
    views the buffer the file was read into; the caller owns it."""
    return _raster(_read_file(path))


def save_pgm(path, img: GrayImage) -> None:
    with open(path, "wb") as f:
        f.writelines(pgm_chunks(img))
