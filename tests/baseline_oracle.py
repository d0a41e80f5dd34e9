"""Test-side references for the baselines: the per-pair LSB matching revisited
embed and decode loops, the oracle for the array embed, and the baselines'
decoder, which reads back what ``baselines.baseline_embed`` hides."""

import numpy as np

from lbpstego.baselines import BaselineMethod
from lbpstego.image import GrayImage


def _inward_step(value: int, rng: np.random.Generator) -> int:
    if value == 0:
        return 1
    if value == 255:
        return -1
    return 1 if rng.integers(0, 2) == 1 else -1


def _embed_pairs(flat: np.ndarray, bits: np.ndarray, seed: int) -> np.ndarray:
    out = flat.copy()
    if bits.size == 0:
        return out
    rng = np.random.default_rng(seed)
    padded = bits if bits.size % 2 == 0 else np.append(bits, np.uint8(0))
    for i in range(padded.size // 2):
        b1, b2 = int(padded[2 * i]), int(padded[2 * i + 1])
        p = 2 * i
        x1, x2 = int(out[p]), int(out[p + 1])
        if b1 == (x1 & 1):
            if b2 != ((x1 // 2 + x2) & 1):
                x2 += _inward_step(x2, rng)
        else:
            x1n = x1 - 1 if b2 == (((x1 - 1) // 2 + x2) & 1) else x1 + 1
            if not 0 <= x1n <= 255:
                # Forced inward; repair the pair bit through x2 if that broke it.
                x1n = 1 if x1n < 0 else 254
                if b2 != ((x1n // 2 + x2) & 1):
                    x2 += _inward_step(x2, rng)
            x1 = x1n
        out[p], out[p + 1] = x1, x2
    return out


def _extract_pairs(flat: np.ndarray, count: int) -> np.ndarray:
    bits = np.empty(count, dtype=np.uint8)
    for i in range(0, count, 2):
        x1, x2 = int(flat[i]), int(flat[i + 1])
        bits[i] = x1 & 1
        if i + 1 < count:
            bits[i + 1] = (x1 // 2 + x2) & 1
    return bits


def baseline_extract(stego: GrayImage, bit_count: int, method: BaselineMethod) -> np.ndarray:
    """Read back ``bit_count`` bits as a uint8 0/1 array: the pair loop for
    ``lsbmr``, else k low bit planes per pixel (k = 1 for ``lsbm``), highest
    replaced bit first."""
    if bit_count < 0 or bit_count > method.capacity_bits(stego):
        raise ValueError(f"bit_count {bit_count} exceeds capacity")
    flat = stego.pixels.reshape(-1)
    if method.kind == "lsbmr":
        return _extract_pairs(flat, bit_count)
    k = method.k if method.kind == "lsb" else 1
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint8)
    return ((flat[: -(-bit_count // k), None] >> shifts) & 1).reshape(-1)[:bit_count]
