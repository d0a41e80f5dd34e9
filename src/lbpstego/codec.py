"""Blind image-in-image steganography that preserves local binary patterns.

The cover is tiled into non-overlapping 3x3 blocks. Each block's center
(reference pixel) is never modified; the block's 8-bit pattern of
center-vs-neighbor comparisons is XORed into the payload bytes, the result
is pair-shuffled, and the bits are spread over the 8 ring neighbors' low
bits. A final +-2**mu correction restores any comparison the substitution
flipped, so the extractor can recompute the exact same pattern from the
stego image alone and undo the masking without ever seeing the cover.

A 4-byte size header (payload rows then cols, big-endian 16-bit each) is
framed in front of the payload so arbitrary payload dimensions survive
blind extraction; ``mu`` is a shared setting of four values, not a secret.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import GrayImage, PgmFile, _adopt

HEADER_BYTES = 4
MAX_PAYLOAD_SIDE = 0xFFFF
MU_VALUES = (1, 2, 3, 4)

# The block layout below is part of the stego format: extract recomputes each
# block's pattern from the stego alone, so changing any of it breaks every
# existing stego.

# Ring order around the center: right first, then counterclockwise.
NEIGHBOR_OFFSETS = ((0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1))
# (row, col) of each ring neighbor inside a 3x3 block, in NEIGHBOR_OFFSETS order.
_RING_POS = tuple((1 + dr, 1 + dc) for dr, dc in NEIGHBOR_OFFSETS)
# A block's ring, gathered into one 8-byte row, is read as one little-endian
# word whose byte q is ring neighbor q.
_WORD = np.dtype("<u8")
_ONES = np.uint64(0x0101010101010101)
# A word of eight 0/1 bytes times PACK has byte q's bit at bit 63 - q, and
# times _SWAP_PACK at bit 63 - (q ^ 1), so the top byte is the pattern, or its
# pair shuffle. The partial products are distinct powers of two: nothing carries.
PACK = np.uint64(0x8040201008040201)
_SWAP_PACK = np.uint64(0x4080102004080102)

_PAIR_LO = 0b01010101
_PAIR_HI = 0b10101010

# Most blocks the kernel handles at once. Its largest temporaries hold 8 bytes
# per block, so each slab's stay near 128 KB, well inside L2, and are reused
# from the heap rather than mapped and faulted in afresh at every step.
_SLAB_BLOCKS = 16384


class CapacityError(ValueError):
    """Payload (plus header) does not fit in the cover."""


class CoverTooSmallError(ValueError):
    """Cover has no complete 3x3 block."""


class CorruptStreamError(ValueError):
    """Stego stream does not parse as header + payload (wrong mu, or not a stego)."""


@dataclass(frozen=True)
class StegoParams:
    """Embedding strength: ``mu`` payload bits per carrier neighbor, 1..4."""

    mu: int = 1

    def __post_init__(self):
        if not isinstance(self.mu, int) or self.mu not in MU_VALUES:
            raise ValueError(f"mu must be one of {MU_VALUES}, got {self.mu!r}")

    @property
    def clamp_lo(self) -> int:
        return 1 << self.mu

    @property
    def clamp_hi(self) -> int:
        return 255 - (1 << self.mu)


def _n_blocks(height: int, width: int) -> int:
    """Complete 3x3 blocks in a ``height`` x ``width`` image, tiled row-major
    from the top left; the leftover bottom and right strips hold none."""
    return (height // 3) * (width // 3)


def shuffle_byte(value):
    """Swap the two bits inside each of the four adjacent bit pairs.

    Works on ints and uint8 arrays; applying it twice is the identity.
    """
    return ((value & _PAIR_LO) << 1) | ((value & _PAIR_HI) >> 1)


# Byte q of _SPREAD[x] is bit 7 - q of shuffle_byte(x), the bit ring neighbor q
# carries when a block's pattern XOR its payload byte is x.
_SPREAD = (
    np.unpackbits(shuffle_byte(np.arange(256, dtype=np.uint8))[:, None], axis=1)
    .view(_WORD)
    .reshape(-1)
)


def lbp_codes(centers: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """8-bit patterns of ``centers`` against ``neighbors`` (n, 8), as a
    strided uint8 view.

    ``centers`` is (n,), or (n, 8) with each center repeated along its row,
    which compares without broadcasting.

    Bit ``7 - q`` is 1 iff the center is >= neighbor column ``q`` (ties count
    as 1). Columns follow ``NEIGHBOR_OFFSETS`` order, so the right neighbor
    decides the most significant bit.
    """
    ge = np.empty(neighbors.shape, dtype=bool)
    np.greater_equal(centers[:, None] if centers.ndim == 1 else centers, neighbors, out=ge)
    words = ge.view(_WORD).reshape(-1)
    words *= PACK
    return words.view(np.uint8)[7::8]  # the top byte of each product


def sync_neighbor(center, cover_value, stego_value, mu: int):
    """Restore the cover's >=/< order between center and a substituted neighbor.

    If writing the low bits flipped the comparison, step the stego value by
    +-2**mu (which cannot disturb its ``mu`` low bits); otherwise return it
    unchanged. Works elementwise in the stego value's dtype: uint8 steps wrap
    modulo 256, which a carrier clipped into ``[2**mu, 255 - 2**mu]``, as
    embed does, never needs, and wider integer steps are exact.
    """
    dtype = np.result_type(stego_value)
    was_ge = np.greater_equal(center, cover_value)
    now_ge = np.greater_equal(center, stego_value)
    step = np.subtract(now_ge.view(np.uint8), was_ge.view(np.uint8), dtype=dtype)
    step *= dtype.type(1 << mu)
    step += stego_value
    return step


def _slabs(pixels: np.ndarray, n: int):
    """Walk the block rows holding the first ``n`` blocks, at most
    ``_SLAB_BLOCKS`` blocks (but at least one block row) at a time.

    The block grid is the image's own: ``pixels.shape[1] // 3`` blocks to a
    row, numbered row-major. Yield ``(start, stop, tiles)``: ``tiles`` is a
    (rows, block_cols, 3, 3) view of ``pixels`` whose first ``stop - start``
    blocks are blocks ``start..stop``. Only the last slab may end inside its
    last row. A walk inside the first block row takes only its ``n`` blocks,
    a (1, n, 3, 3) view.
    """
    cols = pixels.shape[1] // 3
    rows = -(-n // cols)
    span = min(n, cols)
    step = max(1, _SLAB_BLOCKS // cols)
    for top in range(0, rows, step):
        bottom = min(top + step, rows)
        tiles = pixels[3 * top : 3 * bottom, : 3 * span].reshape(bottom - top, 3, span, 3)
        yield top * cols, min(n, bottom * cols), tiles.swapaxes(1, 2)


def _rings(tiles: np.ndarray) -> np.ndarray:
    """Copy each block's ring into one contiguous row of a (rows, block_cols, 8)
    array, one strided copy per ring position; :func:`_put_rings` writes it back."""
    rings = np.empty(tiles.shape[:2] + (8,), dtype=np.uint8)
    for q, (r, c) in enumerate(_RING_POS):
        rings[:, :, q] = tiles[:, :, r, c]
    return rings


def _put_rings(tiles: np.ndarray, rings: np.ndarray) -> None:
    """Write the rows of :func:`_rings` back into the rings of ``tiles``."""
    for q, (r, c) in enumerate(_RING_POS):
        tiles[:, :, r, c] = rings[:, :, q]


def _centers(tiles: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` blocks' centers as a contiguous (n, 8) array, each
    center repeated in all eight bytes of its row, to compare against rings."""
    words = (tiles[:, :, 1, 1] * _ONES).reshape(-1)[:n]
    return words.view(np.uint8).reshape(n, 8)


def capacity(cover: GrayImage | PgmFile, params: StegoParams) -> int:
    """Total stream bytes the cover can carry (the 4-byte header included);
    an open :class:`PgmFile` answers from its header alone."""
    return _n_blocks(cover.height, cover.width) * params.mu


def max_payload_bytes(cover: GrayImage | PgmFile, params: StegoParams) -> int:
    """Usable payload bytes once the size header is paid for."""
    return payload_budget(capacity(cover, params))


def max_payload_shape(cover: GrayImage, params: StegoParams) -> tuple[int, int]:
    """Largest (rows, cols) payload shape that fits, cols capped at 65535.

    Within rows - 1 bytes of the true byte capacity (exact when divisible).
    """
    budget = max_payload_bytes(cover, params)
    if budget == 0:
        raise CapacityError("cover cannot carry any payload")
    rows = -(-budget // MAX_PAYLOAD_SIDE)
    return rows, budget // rows


def clamp_cover(cover: GrayImage, used_blocks: int, params: StegoParams) -> GrayImage:
    """Pull carrier neighbors of the first ``used_blocks`` blocks into
    ``[2**mu, 255 - 2**mu]``.

    This guarantees the later order-restoring step can never leave byte
    range. Reference pixels and unused blocks are untouched.
    """
    n_blocks = _n_blocks(cover.height, cover.width)
    if used_blocks > n_blocks:
        raise ValueError(f"{used_blocks} blocks requested, cover holds {n_blocks}")
    if used_blocks <= 0:
        return cover
    out = cover.pixels.copy()
    for start, stop, tiles in _slabs(out, used_blocks):
        rings = _rings(tiles)
        used = rings.reshape(-1, 8)[: stop - start]
        np.clip(used, params.clamp_lo, params.clamp_hi, out=used)
        _put_rings(tiles, rings)
    return GrayImage(out)


def stream_bytes(payload: GrayImage) -> int:
    """Stream bytes that carry ``payload``: the size header, then its raster."""
    return HEADER_BYTES + payload.height * payload.width


def payload_budget(stream: int) -> int:
    """Payload bytes that ``stream`` stream bytes hold once the size header is paid for."""
    return max(0, stream - HEADER_BYTES)


def check_fits(cover: GrayImage | PgmFile, payload: GrayImage, params: StegoParams) -> None:
    """Raise what :func:`embed` raises if ``payload`` does not fit ``cover``, from their
    ``height`` and ``width`` alone, so headers can be asked: first CoverTooSmallError
    (no complete block), then CapacityError (a side over 65535, or the stream)."""
    cap = capacity(cover, params)
    if cap == 0:
        raise CoverTooSmallError(f"{cover.height}x{cover.width} cover has no complete 3x3 block")
    if max(payload.height, payload.width) > MAX_PAYLOAD_SIDE:
        raise CapacityError(f"payload dimensions exceed {MAX_PAYLOAD_SIDE}")
    if (size := stream_bytes(payload)) > cap:
        raise CapacityError(f"stream needs {size} bytes, cover holds {cap} at mu={params.mu}")


def _frame(payload: GrayImage, mu: int) -> np.ndarray:
    """``payload``, which :func:`check_fits` passed, as a (blocks, mu) stream:
    rows and cols (big-endian 16-bit each), raster, zero padding."""
    size = stream_bytes(payload)
    flat = np.zeros(-(-size // mu) * mu, dtype=np.uint8)
    flat[:HEADER_BYTES] = np.array(payload.pixels.shape, dtype=">u2").view(np.uint8)
    flat[HEADER_BYTES:size] = payload.pixels.reshape(-1)
    return flat.reshape(-1, mu)


def _unframe(head: np.ndarray, cap: int) -> tuple[tuple[int, int], int]:
    """The payload (rows, cols) and stream bytes that the size header in front of
    ``head`` announces; CorruptStreamError if a side is 0 or it needs over ``cap``."""
    rows, cols = head[:HEADER_BYTES].view(">u2").tolist()
    if rows == 0 or cols == 0:
        raise CorruptStreamError(f"header announces a {rows}x{cols} payload")
    needed = HEADER_BYTES + rows * cols
    if needed > cap:
        raise CorruptStreamError(f"header announces {needed} stream bytes, image holds {cap}")
    return (rows, cols), needed


def embed(cover: GrayImage | PgmFile, payload: GrayImage, params: StegoParams) -> GrayImage:
    """Hide ``payload`` inside ``cover``, returning the stego image; the cover
    is left as it was.

    The fit is checked first, so from an open :class:`PgmFile` a payload that
    does not fit is refused on the header alone; then its raster is read once,
    into the buffer that becomes the stego's pixels.

    Blocks beyond the consumed stream are byte-identical to the cover;
    :func:`extract` with the same ``params`` recovers the payload exactly.
    """
    check_fits(cover, payload, params)
    out = cover.pixels.copy() if isinstance(cover, GrayImage) else cover.raster()
    data = _frame(payload, params.mu)

    for start, stop, tiles in _slabs(out, len(data)):
        _embed_slab(tiles, data[start:stop], params)
    return _adopt(out)


def _embed_slab(tiles: np.ndarray, data: np.ndarray, params: StegoParams) -> None:
    """Write the (blocks, mu) stream bytes ``data`` into the first blocks of
    ``tiles``, in place; the rest of ``tiles`` is left as it was."""
    n, mu = data.shape
    rings = _rings(tiles)
    ring = rings.reshape(-1, 8)[:n]
    np.clip(ring, params.clamp_lo, params.clamp_hi, out=ring)
    centers = _centers(tiles, n)
    codes = lbp_codes(centers, ring)

    # Byte t of the block lands at bit mu - 1 - t of every ring neighbor;
    # each ring byte takes at most 4 bits, so the shifts never carry.
    inserted = _SPREAD.take(codes ^ data[:, 0])
    for t in range(1, mu):
        inserted <<= 1
        inserted |= _SPREAD.take(codes ^ data[:, t])
    # Keep each ring byte's bits above the low mu.
    words = ring.view(_WORD).reshape(-1)
    inserted |= words & ~(_ONES * ((1 << mu) - 1))
    ring[:] = sync_neighbor(centers, ring, inserted.view(np.uint8).reshape(n, 8), mu)
    _put_rings(tiles, rings)


def _decode_stream(pixels: np.ndarray, n: int, mu: int) -> np.ndarray:
    """Recover the stream bytes carried by the first ``n`` blocks."""
    out = np.empty((n, mu), dtype=np.uint8)
    for start, stop, tiles in _slabs(pixels, n):
        ring = _rings(tiles).reshape(-1, 8)[: stop - start]
        codes = lbp_codes(_centers(tiles, stop - start), ring)
        # Bit mu - 1 - t of every ring neighbor belongs to byte t. Packing
        # those bits with _SWAP_PACK also undoes the embed's pair shuffle.
        words = ring.view(_WORD).reshape(-1)
        bits = np.empty_like(words)
        packed = bits.view(np.uint8)[7::8]  # the top byte of each word
        for t in range(mu):
            shift = mu - 1 - t
            if shift:
                np.right_shift(words, shift, out=bits)
                bits &= _ONES
            else:
                np.bitwise_and(words, _ONES, out=bits)
            bits *= _SWAP_PACK
            np.bitwise_xor(packed, codes, out=out[start:stop, t])
    return out.reshape(-1)


def _read_stream(stego: GrayImage | PgmFile, size: int, mu: int) -> np.ndarray:
    """The stream bytes carried by the blocks that hold its first ``size``
    bytes, decoded from only the pixel rows of ``stego`` that hold them."""
    n = -(-size // mu)
    return _decode_stream(stego.rows(3 * -(-n // (stego.width // 3))), n, mu)


def extract(stego: GrayImage | PgmFile, params: StegoParams) -> GrayImage:
    """Blindly recover the embedded payload; needs only the stego and ``mu``.

    Only the rows that hold the size header, then the rows that hold the
    stream, are taken from ``stego``; from an open :class:`PgmFile` the rows
    below them are never read.
    """
    cap = capacity(stego, params)
    if cap < HEADER_BYTES:  # also spares _read_stream an image with no block column
        raise CorruptStreamError(
            f"image holds only {cap} stream bytes, no room for a size header"
        )
    shape, needed = _unframe(_read_stream(stego, HEADER_BYTES, params.mu), cap)
    stream = _read_stream(stego, needed, params.mu)
    return _adopt(stream[HEADER_BYTES:needed].reshape(shape))
