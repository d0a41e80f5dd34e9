"""References for the codec's word-at-a-time paths: the per-pixel pattern,
block coordinates, the per-block embedder, and the block-stack decoder."""

import numpy as np

from lbpstego.codec import StegoParams, shuffle_byte, sync_neighbor
from lbpstego.image import GrayImage
from lbpstego.lbp import NEIGHBOR_OFFSETS, lbp_codes

# Positions of the ring neighbors inside a 3x3 block, in NEIGHBOR_OFFSETS order.
_RING_ROWS, _RING_COLS = 1 + np.array(NEIGHBOR_OFFSETS).T


def lbp_code(image: GrayImage, row: int, col: int) -> int:
    """8-bit pattern comparing pixel ``(row, col)`` against its 8 neighbors.

    Bit ``7 - q`` is 1 iff the center is >= the ``q``-th neighbor of
    ``NEIGHBOR_OFFSETS`` (ties count as 1), so the right neighbor decides
    the most significant bit. The center must be at least one pixel away
    from every image border.
    """
    if not (1 <= row <= image.height - 2 and 1 <= col <= image.width - 2):
        raise IndexError(
            f"center ({row}, {col}) has neighbors outside a {image.height}x{image.width} image"
        )
    px = image.pixels
    center = int(px[row, col])
    code = 0
    for q, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        if center >= px[row + dr, col + dc]:
            code |= 1 << (7 - q)
    return code


def block_center(k: int, l: int) -> tuple[int, int]:
    """Image coordinates of block (k, l)'s reference (center) pixel."""
    return 3 * k + 1, 3 * l + 1


def lsb_mask(params: StegoParams) -> int:
    """The ``mu`` low bits a carrier neighbor gives to the payload."""
    return (1 << params.mu) - 1


def sync_step(params: StegoParams) -> int:
    """The order-restoring correction, which leaves the low ``mu`` bits alone."""
    return 1 << params.mu


def embed_block(block, payload_bytes, params: StegoParams) -> np.ndarray:
    """Embed ``mu`` stream bytes into one pre-clamped 3x3 block.

    Reference implementation for a single block: the center is copied
    through; each byte is XOR-masked with the block's pattern and
    pair-shuffled, then ring neighbor ``q`` receives bit ``7 - q`` of every
    shuffled byte in its low bits (first byte highest) and is order-synced
    against the center. Returns the 3x3 stego block as uint8.
    """
    mu = params.mu
    b = np.asarray(block, dtype=np.int64)
    if b.shape != (3, 3):
        raise ValueError(f"block must be 3x3, got shape {b.shape}")
    data = [int(v) for v in payload_bytes]
    if len(data) != mu:
        raise ValueError(f"mu={mu} blocks carry exactly {mu} bytes, got {len(data)}")
    if any(not 0 <= v <= 255 for v in data):
        raise ValueError("payload bytes must lie in [0, 255]")
    ring = b[_RING_ROWS, _RING_COLS]
    if ring.min() < params.clamp_lo or ring.max() > params.clamp_hi:
        raise ValueError("block neighbors must be clamped before embedding")
    center = int(b[1, 1])
    code = int(lbp_codes(np.array([center]), ring[None, :])[0])
    shuffled = [shuffle_byte(code ^ v) for v in data]
    out = b.copy()
    for q in range(8):
        inserted = 0
        for t, y in enumerate(shuffled):
            inserted |= ((y >> (7 - q)) & 1) << (mu - 1 - t)
        candidate = (int(ring[q]) & ~lsb_mask(params)) | inserted
        out[_RING_ROWS[q], _RING_COLS[q]] = sync_neighbor(center, int(ring[q]), candidate, mu)
    return out.astype(np.uint8)


# Ring neighbor q carries bit 7 - q of every shuffled byte.
_RING_SHIFTS = np.arange(7, -1, -1, dtype=np.uint8)


def _block_stack(pixels: np.ndarray, n: int) -> np.ndarray:
    """Gather the block rows holding the first ``n`` blocks into a row-major
    (rows * block_cols, 3, 3) stack, ``pixels.shape[1] // 3`` blocks to a row.

    The stack may be a view of ``pixels`` (one block row or one block
    column).
    """
    cols = pixels.shape[1] // 3
    rows = -(-n // cols)
    tiles = pixels[: 3 * rows, : 3 * cols].reshape(rows, 3, cols, 3)
    return tiles.swapaxes(1, 2).reshape(-1, 3, 3)


def _decode_stream(pixels: np.ndarray, n: int, mu: int) -> np.ndarray:
    """Recover the stream bytes carried by the first ``n`` blocks, one
    (n, mu, 8) bit tensor at a time."""
    blocks = _block_stack(pixels, n)[:n]
    centers = blocks[:, 1, 1]
    ring = blocks[:, _RING_ROWS, _RING_COLS]
    codes = lbp_codes(centers, ring)
    low = ring & ((1 << mu) - 1)
    # (n, mu, 8) bits: bit mu - 1 - t of each neighbor belongs to byte t.
    byte_shifts = (mu - 1 - np.arange(mu, dtype=np.uint8))[:, None]
    bits = (low[:, None, :] >> byte_shifts) & 1
    shuffled = (bits << _RING_SHIFTS).sum(axis=2, dtype=np.uint8)
    return (shuffle_byte(shuffled) ^ codes[:, None]).reshape(-1)
