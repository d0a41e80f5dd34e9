"""PGM oracles: a byte-at-a-time header scanner for ``image._header_tokens``'s
compiled pattern, and a whole-buffer reader for ``image.PgmFile``."""

import numpy as np

from lbpstego import image
from lbpstego.image import GrayImage, PgmFormatError

_WHITESPACE = b" \t\n\r\x0b\x0c"


def header_tokens(data):
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


def read_pgm(data) -> GrayImage:
    """Decode binary 8-bit PGM (``P5``) bytes into a :class:`GrayImage` whose
    pixels view ``data``: the whole-buffer reader that ``image.PgmFile`` must
    agree with, message for message, however its reads are cut."""
    height, width, offset = image._header(data)
    image._check_raster(len(data) - offset, height, width)
    px = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=offset)
    return image._adopt(px.reshape(height, width))
