"""8-bit grayscale image value type and binary PGM (P5) codec."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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

    Only for arrays no other code can write: a view of immutable ``bytes``,
    or a fresh array whose creator drops every other reference to it.
    """
    px.setflags(write=False)
    img = object.__new__(GrayImage)
    object.__setattr__(img, "pixels", px)
    return img


def _header_tokens(data: bytes):
    """Yield (token, end_offset) for whitespace-separated header fields.

    ``#`` starts a comment running to end of line; tokens may be separated
    by any amount of whitespace.
    """
    i, n = 0, len(data)
    while True:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == 0x23:  # '#'
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i] != 0x23:
            i += 1
        if start == i:
            raise PgmFormatError("incomplete PGM header")
        yield data[start:i], i


def read_pgm(data: bytes) -> GrayImage:
    """Decode binary 8-bit PGM (``P5``) bytes into a :class:`GrayImage`.

    The reader is liberal about header whitespace and ``#`` comments but
    requires maxval 255, a single whitespace byte before the raster, and a
    raster of at least width*height bytes.
    """
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
    if end >= len(data) or not data[end : end + 1].isspace():
        raise PgmFormatError("missing whitespace between maxval and raster")
    raster_bytes = len(data) - end - 1
    if raster_bytes < width * height:
        raise PgmTruncatedError(f"raster holds {raster_bytes} bytes, need {width * height}")
    px = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=end + 1)
    return _adopt(px.reshape(height, width))


def write_pgm(img: GrayImage) -> bytes:
    """Encode to canonical ``P5`` bytes: ``P5\\n<w> <h>\\n255\\n`` + raw raster.

    The output is byte-identical for equal images and round-trips through
    :func:`read_pgm` exactly.
    """
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return b"".join((header, img.pixels.data))


def load_pgm(path) -> GrayImage:
    return read_pgm(Path(path).read_bytes())


def save_pgm(path, img: GrayImage) -> None:
    Path(path).write_bytes(write_pgm(img))
