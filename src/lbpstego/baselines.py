"""Classic LSB-family embedders used as comparison baselines.

Three methods, all traversing pixels row-major:

* ``lsb``   - plain k-bit LSB replacement (k in 1..4), k bits per pixel,
              the first consumed bit landing in the highest replaced position.
* ``lsbm``  - LSB matching: a pixel whose LSB already equals the message bit
              is left alone, otherwise it is nudged +-1 (seeded random
              direction, forced inward at 0 and 255).
* ``lsbmr`` - LSB matching revisited: two message bits per pixel pair
              (b1 = LSB(p1), b2 = LSB(p1 // 2 + p2)); at most one unit of
              change per pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import GrayImage

KINDS = ("lsb", "lsbm", "lsbmr")


@dataclass(frozen=True)
class BaselineMethod:
    """Baseline selector: ``kind`` plus replacement depth ``k`` and RNG ``seed``."""

    kind: str
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "lsb" and not 1 <= self.k <= 4:
            raise ValueError(f"replacement depth must be in [1, 4], got {self.k}")

    def capacity_bits(self, cover: GrayImage) -> int:
        n = cover.width * cover.height
        if self.kind == "lsb":
            return self.k * n
        if self.kind == "lsbm":
            return n
        return 2 * (n // 2)  # pairs only; a trailing odd pixel stays unused


def baseline_embed(cover: GrayImage, bits, method: BaselineMethod) -> GrayImage:
    """Embed a 0/1 bit sequence; deterministic for a fixed method seed."""
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if bits.size and bits.max() > 1:
        raise ValueError("bits must be 0 or 1")
    cap = method.capacity_bits(cover)
    if bits.size > cap:
        raise ValueError(f"{bits.size} bits exceed the {cap}-bit capacity")
    flat = cover.pixels.reshape(-1).copy()
    if method.kind == "lsb":
        _embed_replace(flat, bits, method.k)
    elif method.kind == "lsbm":
        _embed_match(flat, bits, method.seed)
    else:
        _embed_pairs(flat, bits, method.seed)
    return GrayImage(flat.reshape(cover.pixels.shape))


def baseline_extract(stego: GrayImage, bit_count: int, method: BaselineMethod) -> np.ndarray:
    """Read back ``bit_count`` bits as a uint8 0/1 array."""
    if bit_count < 0 or bit_count > method.capacity_bits(stego):
        raise ValueError(f"bit_count {bit_count} exceeds capacity")
    flat = stego.pixels.reshape(-1)
    if method.kind == "lsbmr":
        return _extract_pairs(flat, bit_count)
    return _extract_replace(flat, bit_count, method.k if method.kind == "lsb" else 1)


def _bit_planes(flat: np.ndarray, count: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 (ceil(count / k), k) low bit planes of the leading pixels,
    highest replaced bit first, and the shift of each plane."""
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint8)
    return (flat[: -(-count // k), None] >> shifts) & 1, shifts


def _extract_replace(flat: np.ndarray, count: int, k: int) -> np.ndarray:
    planes, _ = _bit_planes(flat, count, k)
    return planes.reshape(-1)[:count]


def _embed_replace(flat: np.ndarray, bits: np.ndarray, k: int) -> None:
    """Overwrite the planes :func:`_extract_replace` reads; a partial chunk
    takes the highest replaced positions and keeps the rest of its pixel."""
    planes, shifts = _bit_planes(flat, bits.size, k)
    planes.reshape(-1)[: bits.size] = bits
    n = len(planes)
    flat[:n] = (flat[:n] >> k << k) | planes @ (1 << shifts)


def _embed_match(flat: np.ndarray, bits: np.ndarray, seed: int) -> None:
    """LSB matching in place on the uint8 prefix ``flat[:bits.size]``: +-1 on a
    mismatch, upward on a draw of 1 or at 0 and never upward at 255, so the
    uint8 sums cannot wrap."""
    n = bits.size
    cur = flat[:n]
    rng = np.random.default_rng(seed)
    up = rng.integers(0, 2, size=n) == 1
    up |= cur == 0
    up &= cur != 255
    change = (cur & 1) != bits
    cur += change & up
    cur -= change & ~up


def _pair_bit(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    return ((x1 >> 1) + x2) & 1  # >> floors, so x1 = -1 reads as -1 // 2


def _embed_pairs(flat: np.ndarray, bits: np.ndarray, seed: int) -> None:
    """LSB matching revisited in place on the uint8 prefix of ``flat``, with
    each pair's two pixels in int16."""
    if bits.size % 2:
        bits = np.append(bits, np.uint8(0))
    b1, b2 = bits[0::2], bits[1::2]
    pairs = flat[: bits.size].reshape(-1, 2)
    x1, x2 = pairs[:, 0].astype(np.int16), pairs[:, 1].astype(np.int16)
    down = b2 == _pair_bit(x1 - 1, x2)
    x1 = np.where(b1 == x1 & 1, x1, np.where(down, x1 - 1, x1 + 1))
    # A move off the byte range is forced back inward (-1 -> 1, 256 -> 254),
    # which breaks the pair bit; x2 then repairs it like a plain mismatch.
    x1 = np.where(x1 > 255, 254, np.abs(x1))
    need = b2 != _pair_bit(x1, x2)
    # +-1 for x2, inward at 0 and 255, otherwise one draw per such pair in order:
    # the same stream as one scalar rng.integers(0, 2) call per pair.
    step = np.where(x2 == 0, np.int16(1), np.int16(-1))
    free = need & (x2 != 0) & (x2 != 255)
    rng = np.random.default_rng(seed)
    step[free] = np.where(rng.integers(0, 2, size=int(free.sum())) == 1, 1, -1)
    step *= need
    x2 += step
    pairs[:, 0] = x1
    pairs[:, 1] = x2


def _extract_pairs(flat: np.ndarray, count: int) -> np.ndarray:
    end = count + count % 2
    x1, x2 = flat[0:end:2], flat[1:end:2]
    bits = np.empty(end, dtype=np.uint8)
    bits[0::2] = x1 & 1
    bits[1::2] = _pair_bit(x1, x2)
    return bits[:count]
