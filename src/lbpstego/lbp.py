"""Local binary pattern of a 3x3 pixel neighborhood."""

from __future__ import annotations

import numpy as np

# Ring order around the center: right first, then counterclockwise.
NEIGHBOR_OFFSETS = ((0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1))

# A little-endian word of eight 0/1 bytes times PACK has byte q's bit at bit
# 63 - q. The partial products are distinct powers of two, so nothing carries.
PACK = np.uint64(0x8040201008040201)


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
    words = ge.view("<u8").reshape(-1)
    words *= PACK
    return words.view(np.uint8)[7::8]  # the top byte of each product
