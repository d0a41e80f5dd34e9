"""Byte-at-a-time PGM header scanner, the oracle for ``image._header_tokens``'s
compiled pattern."""

from lbpstego.image import PgmFormatError

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
