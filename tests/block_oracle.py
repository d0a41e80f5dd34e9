"""Per-block reference embedder, the oracle for the codec's vectorized path."""

import numpy as np

from lbpstego.codec import _RING_COLS, _RING_ROWS, StegoParams, shuffle_byte, sync_neighbor
from lbpstego.lbp import lbp_codes


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
        candidate = (int(ring[q]) & ~params.lsb_mask) | inserted
        out[_RING_ROWS[q], _RING_COLS[q]] = sync_neighbor(center, int(ring[q]), candidate, mu)
    return out.astype(np.uint8)
