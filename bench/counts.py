"""Exact codec counts worked out from a round trip's input and output files alone.

For a cover, a payload and the stego the program wrote at ``mu``:

* blocks used: ``ceil((4 + payload bytes) / mu)``, the first blocks in row-major order;
* carriers clamped: ring pixels of used blocks outside ``[2**mu, 255 - 2**mu]``;
* carriers synced: ring pixels whose stego and clamped cover differ above the low ``mu`` bits.

The same pass also checks the properties that make extraction blind: centers
and every pixel outside the used rings are unchanged, and each used block's
local binary pattern equals that of the clamped cover block.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

RING_ROWS = np.array([1, 0, 0, 0, 1, 2, 2, 2])
RING_COLS = np.array([2, 2, 1, 0, 0, 0, 1, 2])
HEADER_BYTES = 4


def read_pgm(path: Path) -> np.ndarray:
    """Canonical binary PGM, as both the generator and the program write it."""
    data = path.read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    if header is None:
        raise ValueError(f"{path} is not an 8-bit binary PGM")
    w, h = int(header[1]), int(header[2])
    return np.frombuffer(data, dtype=np.uint8, count=w * h, offset=header.end()).reshape(h, w)


def _blocks(pixels: np.ndarray) -> np.ndarray:
    br, bc = pixels.shape[0] // 3, pixels.shape[1] // 3
    tiles = pixels[: 3 * br, : 3 * bc].astype(np.int16).reshape(br, 3, bc, 3)
    return tiles.swapaxes(1, 2).reshape(br * bc, 3, 3)


def _codes(centers: np.ndarray, ring: np.ndarray) -> np.ndarray:
    return np.packbits(centers[:, None] >= ring, axis=1)[:, 0]


def round_trip_counts(cover_path: Path, payload_path: Path, stego_path: Path, mu: int) -> dict:
    cover, stego = read_pgm(cover_path), read_pgm(stego_path)
    payload = read_pgm(payload_path)
    used = -(-(HEADER_BYTES + payload.size) // mu)
    cover_blocks, stego_blocks = _blocks(cover), _blocks(stego)
    ring = cover_blocks[:used][:, RING_ROWS, RING_COLS]
    clamped = np.clip(ring, 1 << mu, 255 - (1 << mu))
    stego_ring = stego_blocks[:used][:, RING_ROWS, RING_COLS]
    centers = cover_blocks[:used, 1, 1]

    untouched = np.ones(cover.shape, dtype=bool)
    rows, cols = np.divmod(np.arange(used), cover.shape[1] // 3)
    untouched[3 * rows[:, None] + RING_ROWS, 3 * cols[:, None] + RING_COLS] = False
    ok = (
        stego.shape == cover.shape
        and np.array_equal(stego[untouched], cover[untouched])
        and np.array_equal(_codes(centers, clamped), _codes(centers, stego_ring))
    )
    return {
        "ok": bool(ok),
        "grid_blocks": len(cover_blocks),
        "blocks_used": int(used),
        "carriers_clamped": int((ring != clamped).sum()),
        "carriers_synced": int(((stego_ring >> mu) != (clamped >> mu)).sum()),
    }


def pass_counts(inputs: Path, ops: list[dict]) -> dict:
    """Sum of :func:`round_trip_counts` over the round trips of one pass."""
    total = {"ok": True, "grid_blocks": 0, "blocks_used": 0, "carriers_clamped": 0,
             "carriers_synced": 0}
    for op in ops:
        if op["kind"] != "rt":
            continue
        counts = round_trip_counts(inputs / op["cover"], inputs / op["payload"],
                                   inputs / op["stego"], op["mu"])
        total["ok"] &= counts.pop("ok")
        for key, value in counts.items():
            total[key] += value
    return total
