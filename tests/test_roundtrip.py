"""Property tests for the codec's central contracts: exact round trips,
pattern preservation, center fixity, bounded distortion, untouched tails."""

import numpy as np
import pytest
from block_oracle import _decode_stream as oracle_decode_stream
from block_oracle import block_center, embed_block, lbp_code
from hypothesis import given, settings
from hypothesis import strategies as st

from lbpstego import codec
from lbpstego.codec import (
    HEADER_BYTES,
    NEIGHBOR_OFFSETS,
    StegoParams,
    CorruptStreamError,
    capacity,
    clamp_cover,
    embed,
    extract,
    _decode_stream,
)
from lbpstego.image import GrayImage

# Values at and next to the ends of the byte range and of the clamp bounds.
EDGE_VALUES = (0, 1, 2, 127, 128, 253, 254, 255)
# One block row per slab, then the default: the covers below hold up to 7
# block rows, so the first value splits every used block run across slabs
# and usually ends it inside the last slab's row.
SLAB_SIZES = (1, codec._SLAB_BLOCKS)


@st.composite
def embed_cases(draw):
    """Covers of 3..21 px a side (random, edge-heavy or flat), so the used
    blocks can end inside a block row and leftover strips occur, with a
    payload that fits (None when the cover cannot carry one byte)."""
    mu = draw(st.integers(1, 4))
    height = draw(st.integers(3, 21))
    width = draw(st.integers(3, 21))
    kind = draw(st.sampled_from(("random", "edges", "flat")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        pixels = rng.integers(0, 256, (height, width))
    elif kind == "edges":
        pixels = rng.choice(EDGE_VALUES, (height, width))
    else:
        pixels = np.full((height, width), rng.integers(0, 256))
    cover = GrayImage(pixels.astype(np.uint8))
    cap = capacity(cover, StegoParams(mu))
    if cap <= HEADER_BYTES:
        payload_len = 0
    else:
        payload_len = draw(st.integers(1, cap - HEADER_BYTES))
    payload = (
        GrayImage(rng.integers(0, 256, (1, payload_len), dtype=np.uint8))
        if payload_len
        else None
    )
    return cover, payload, mu


@settings(max_examples=50, deadline=None)
@given(embed_cases())
def test_round_trip_is_exact(case):
    cover, payload, mu = case
    if payload is None:
        return
    params = StegoParams(mu)
    assert extract(embed(cover, payload, params), params) == payload


@settings(max_examples=50, deadline=None)
@given(embed_cases())
def test_structure_preservation(case):
    cover, payload, mu = case
    if payload is None:
        return
    params = StegoParams(mu)
    stego = embed(cover, payload, params)
    used = -(-(HEADER_BYTES + payload.width * payload.height) // mu)
    clamped = clamp_cover(cover, used, params)

    diff = np.abs(stego.pixels.astype(int) - clamped.pixels.astype(int))
    assert diff.max() <= 2 ** (mu + 1) - 1

    for b in range(used):
        k, l = divmod(b, cover.width // 3)
        r, c = block_center(k, l)
        assert stego.pixels[r, c] == clamped.pixels[r, c]
        assert lbp_code(stego, r, c) == lbp_code(clamped, r, c)

    # everything past the consumed stream is byte-identical to the cover
    touched = np.zeros(cover.pixels.shape, dtype=bool)
    for b in range(used):
        k, l = divmod(b, cover.width // 3)
        touched[3 * k : 3 * k + 3, 3 * l : 3 * l + 3] = True
    assert np.array_equal(stego.pixels[~touched], cover.pixels[~touched])


@settings(max_examples=60, deadline=None)
@given(embed_cases())
def test_vectorized_embed_matches_block_reference(case):
    """The fast path must agree with the per-block reference implementation,
    at every slab size."""
    cover, payload, mu = case
    if payload is None:
        return
    params = StegoParams(mu)
    # the size header (rows, cols; big-endian 16-bit), then the raster
    stream = payload.height.to_bytes(2, "big") + payload.width.to_bytes(2, "big") + payload.pixels.tobytes()
    used = -(-len(stream) // mu)
    stream += b"\x00" * (used * mu - len(stream))
    clamped = clamp_cover(cover, used, params)
    expect = cover.pixels.copy()
    for b in range(used):
        k, l = divmod(b, cover.width // 3)
        r, c = block_center(k, l)
        block = clamped.pixels[r - 1 : r + 2, c - 1 : c + 2]
        carried = stream[b * mu : (b + 1) * mu]
        expect[r - 1 : r + 2, c - 1 : c + 2] = embed_block(block, carried, params)
    for slab in SLAB_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, "_SLAB_BLOCKS", slab)
            assert np.array_equal(embed(cover, payload, params).pixels, expect), slab
            again = clamp_cover(cover, used, params)
            assert np.array_equal(again.pixels, clamped.pixels), slab


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_overall_distortion_bound(seed, mu):
    """|stego - original cover| <= (2**(mu+1) - 1) + 2**mu (clamp shift included)."""
    rng = np.random.default_rng(seed)
    cover = GrayImage(rng.integers(0, 256, (18, 18), dtype=np.uint8))
    params = StegoParams(mu)
    budget = capacity(cover, params) - HEADER_BYTES
    payload = GrayImage(rng.integers(0, 256, (1, budget), dtype=np.uint8))
    stego = embed(cover, payload, params)
    diff = np.abs(stego.pixels.astype(int) - cover.pixels.astype(int))
    assert diff.max() <= (2 ** (mu + 1) - 1) + 2**mu


@settings(max_examples=100, deadline=None)
@given(embed_cases(), st.data())
def test_decode_matches_block_stack_oracle(case, data):
    """Word-at-a-time decoding agrees with the (n, mu, 8) bit-tensor
    reference on any image, stego or not, for any count of leading blocks."""
    cover, payload, mu = case
    image = cover
    if payload is not None and data.draw(st.booleans()):
        image = embed(cover, payload, StegoParams(mu))
    n = data.draw(st.integers(1, capacity(cover, StegoParams(1))))
    expect = oracle_decode_stream(image.pixels, n, mu)
    for slab in SLAB_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, "_SLAB_BLOCKS", slab)
            assert np.array_equal(_decode_stream(image.pixels, n, mu), expect), slab


def assert_payload_or_corrupt(image, mu):
    """``extract`` on ``image`` either returns the payload its header
    announces, as the block-stack oracle decodes it, or raises
    ``CorruptStreamError``; no other error gets out."""
    try:
        payload = extract(image, StegoParams(mu))
    except CorruptStreamError:
        return
    needed = HEADER_BYTES + payload.height * payload.width
    stream = oracle_decode_stream(image.pixels, -(-needed // mu), mu)
    assert bytes(stream[:HEADER_BYTES]) == (
        payload.height.to_bytes(2, "big") + payload.width.to_bytes(2, "big")
    )
    assert np.array_equal(payload.pixels.reshape(-1), stream[HEADER_BYTES:needed])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 48),
    st.integers(3, 48),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("random", "edges", "small header")),
)
def test_extract_of_any_image_returns_or_raises_corrupt_stream(height, width, mu, seed, kind):
    """Hostile input: an image that was never a stego decodes to whatever its
    blocks carry, and fails only with the documented error."""
    rng = np.random.default_rng(seed)
    if kind == "edges":
        pixels = rng.choice(EDGE_VALUES, (height, width))
    else:
        pixels = rng.integers(0, 256, (height, width))
    image = GrayImage(pixels.astype(np.uint8))
    if kind == "small header" and capacity(image, StegoParams(mu)) > HEADER_BYTES:
        # Rewrite the header blocks so they announce a payload that fits.
        fits = capacity(image, StegoParams(mu)) - HEADER_BYTES
        body = rng.integers(0, 256, (1, int(rng.integers(1, fits + 1))), dtype=np.uint8)
        stego = embed(image, GrayImage(body), StegoParams(mu)).pixels
        header_blocks = -(-HEADER_BYTES // mu)
        header_rows = 3 * -(-header_blocks // (width // 3))
        pixels[:header_rows] = stego[:header_rows]
        image = GrayImage(pixels.astype(np.uint8))
    assert_payload_or_corrupt(image, mu)


@settings(max_examples=150, deadline=None)
@given(embed_cases(), st.data())
def test_extract_of_a_stego_with_one_flipped_carrier_lsb(case, data):
    """One flipped low bit in any used block's ring (header blocks included)
    gives a payload or ``CorruptStreamError``, never another error."""
    cover, payload, mu = case
    if payload is None:
        return
    stego = embed(cover, payload, StegoParams(mu)).pixels.copy()
    used = -(-(HEADER_BYTES + payload.width * payload.height) // mu)
    k, l = divmod(data.draw(st.integers(0, used - 1)), cover.width // 3)
    dr, dc = data.draw(st.sampled_from(NEIGHBOR_OFFSETS))
    r, c = block_center(k, l)
    stego[r + dr, c + dc] ^= 1
    assert_payload_or_corrupt(GrayImage(stego), mu)
