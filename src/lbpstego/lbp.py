"""Local binary pattern of a 3x3 pixel neighborhood."""

from __future__ import annotations

import numpy as np

# Ring order around the center: right first, then counterclockwise.
NEIGHBOR_OFFSETS = ((0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1))


def lbp_codes(centers: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """8-bit patterns of ``centers`` (n,) against ``neighbors`` (n, 8), as uint8.

    Bit ``7 - q`` is 1 iff the center is >= neighbor column ``q`` (ties count
    as 1). Columns follow ``NEIGHBOR_OFFSETS`` order, so the right neighbor
    decides the most significant bit.
    """
    bits = (centers[:, None] >= neighbors).astype(np.uint8)
    weights = (1 << (7 - np.arange(8))).astype(np.uint8)
    return (bits * weights).sum(axis=1, dtype=np.uint8)
