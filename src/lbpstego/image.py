"""8-bit grayscale image value type and binary PGM (P5) codec."""

from __future__ import annotations

import io
import os
import re
import stat
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


# The bytes ``bytes.isspace`` accepts, tested by value: the header is read
# through a memoryview, which has no ``isspace``.
_WHITESPACE = b" \t\n\r\x0b\x0c"

# One header field from a field's end: whitespace and ``#`` comments (to the
# end of the line) are skipped, and the field runs to the next whitespace or
# ``#``; it is empty only where the data ends.
_FIELD = re.compile(rb"(?:[%b]|#[^\n\r]*)*([^%b#]*)" % ((re.escape(_WHITESPACE),) * 2))

# A header, up to and including the whitespace byte before the raster, must
# lie in the first this many bytes; a longer one is malformed.
_MAX_HEADER = 1 << 20


def _header_tokens(data):
    """Yield (token, end_offset) for the whitespace-separated header fields of
    ``data``, a bytes-like object."""
    end = 0
    while True:
        field = _FIELD.match(data, end)
        end = field.end()
        if field.start(1) == end:
            raise PgmFormatError("incomplete PGM header")
        yield field.group(1), end


def _header(data) -> tuple[int, int, int]:
    """``(height, width, offset)`` of the PGM header at the start of ``data``,
    a bytes-like object; the raster starts at byte ``offset``. Only the first
    ``_MAX_HEADER`` bytes are read."""
    data = memoryview(data)[:_MAX_HEADER]
    tokens = _header_tokens(data)
    magic, _ = next(tokens)
    if magic != b"P5":
        raise PgmFormatError(f"not a binary PGM stream (magic {magic[:8]!r})")
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


def read_pgm(data: bytes) -> GrayImage:
    """Decode binary 8-bit PGM (``P5``) bytes into a :class:`GrayImage`.

    The reader is liberal about header whitespace and ``#`` comments but
    requires maxval 255, a single whitespace byte before the raster, a header
    of at most ``_MAX_HEADER`` bytes, and a raster of at least width*height
    bytes.
    """
    height, width, offset = _header(data)
    _check_raster(len(data) - offset, height, width)
    px = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=offset)
    return _adopt(px.reshape(height, width))


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
    ``height`` and ``width`` are known before any pixel is read. Each
    :meth:`rows` call reads its rows from the raster start; the reader keeps
    none. A pipe or device reports no size, so one is read at open up to the
    end of the raster its header announces, and then read like a file.
    """

    def __init__(self, path):
        self._file = open(path, "rb", buffering=0)  # rows are read straight into their buffer
        try:
            self._open()
        except BaseException:
            self._file.close()
            raise

    def _open(self) -> None:
        st = os.fstat(self._file.fileno())
        f, size = self._file, st.st_size
        head = f.read(_HEAD_READ)
        while True:
            try:
                self.height, self.width, self._offset = _header(head)
                break
            except PgmError:  # perhaps only the cut (maxval "25" of "255"): read more
                more = f.read(len(head)) if len(head) < _MAX_HEADER else b""
                if not more:  # the error is the whole file's, or its first _MAX_HEADER bytes'
                    raise
                head += more
        if not stat.S_ISREG(st.st_mode):  # a pipe reports no size: read it to the raster's end
            data, need = bytearray(head), self._offset + self.width * self.height
            while len(data) < need and (more := f.read(min(need - len(data), _MAX_HEADER))):
                data += more  # a read may return fewer bytes than asked
            f.close()
            self._file, size = io.BytesIO(data), len(data)
        _check_raster(size - self._offset, self.height, self.width)

    def _read(self, stop: int) -> np.ndarray:
        """The first ``stop`` rows, read from the raster start into a new
        writable buffer that only the caller holds."""
        px = np.empty((min(stop, self.height), self.width), np.uint8)  # not zeroed: the read fills it
        view = memoryview(px.reshape(-1))
        self._file.seek(self._offset)
        got = 0
        while got < len(view):  # an unbuffered read may return fewer bytes than asked
            n = self._file.readinto(view[got:])
            if not n:  # the file shrank since it was opened
                raise PgmTruncatedError(f"raster holds {got} bytes, need {self.width * self.height}")
            got += n
        return px

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


def save_chunks(path, chunks) -> None:
    """Write the bytes-like ``chunks`` in turn beside ``path`` and rename the
    result over ``path``, so a failed write leaves no partial file. A symlink
    is written through (a dangling one creates its target); an existing target
    must be a regular file and keeps its mode. Failures raise ``OSError``
    ``cannot write <path>: <reason>``."""
    target = Path(path)
    try:
        try:
            st = os.lstat(target)
            if stat.S_ISLNK(st.st_mode):  # write through a symlink, as a plain write does
                target = Path(os.path.realpath(target))
                st = os.stat(target)  # a symlink loop raises here
        except (FileNotFoundError, NotADirectoryError):  # a new file, or a dangling link's target
            st = None
        if st is not None and not stat.S_ISREG(st.st_mode):  # never rename over a FIFO, device or directory
            raise OSError("not a regular file")
        tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
        f = open(tmp, "xb")  # a new file gets the mode a plain write gives
        try:
            with f:
                for chunk in chunks:
                    f.write(chunk)
                if st is not None:  # an overwrite keeps the target's mode
                    os.fchmod(f.fileno(), stat.S_IMODE(st.st_mode))
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except FileNotFoundError:
        raise OSError(f"cannot write {path}: no such directory") from None
    except OSError as exc:  # the reason alone: the temp file's name means nothing to the caller
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def save_pgm(path, img: GrayImage) -> None:
    """Write ``img``'s canonical ``P5`` bytes to ``path`` with :func:`save_chunks`."""
    save_chunks(path, pgm_chunks(img))
