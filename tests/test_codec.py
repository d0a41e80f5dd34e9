import hashlib

import numpy as np
import pytest
from block_oracle import block_center, embed_block, lsb_mask, sync_step

from lbpstego import codec, synth
from lbpstego.codec import (
    HEADER_BYTES,
    CapacityError,
    CorruptStreamError,
    CoverTooSmallError,
    StegoParams,
    capacity,
    clamp_cover,
    embed,
    extract,
    max_payload_bytes,
    max_payload_shape,
    shuffle_byte,
    sync_neighbor,
)
from lbpstego.image import GrayImage, write_pgm
from lbpstego.lbp import PACK


def gray(rows):
    return GrayImage(np.array(rows, dtype=np.int64))


def slab_sizes(cover):
    """Values of ``codec._SLAB_BLOCKS`` that put one block row in each slab,
    two rows (2.5 rows' worth of blocks, rounded down to whole rows), and
    the default."""
    block_cols = cover.width // 3
    return 1, int(2.5 * block_cols), codec._SLAB_BLOCKS


class TestStegoParams:
    @pytest.mark.parametrize("mu", [0, 5, -1])
    def test_mu_out_of_range(self, mu):
        with pytest.raises(ValueError):
            StegoParams(mu)

    def test_derived_constants(self):
        p = StegoParams(3)
        assert (lsb_mask(p), sync_step(p), p.clamp_lo, p.clamp_hi) == (7, 8, 8, 247)


def test_every_exported_name_resolves():
    import lbpstego

    assert [name for name in lbpstego.__all__ if not hasattr(lbpstego, name)] == []


class TestBlockTiling:
    def test_reference_coordinates(self):
        img = GrayImage(np.zeros((9, 12), dtype=np.uint8))
        assert block_center(0, 0) == (1, 1)
        assert block_center(2, 3) == (7, 10)
        assert capacity(img, StegoParams(1)) == 12

    def test_leftover_strips_do_not_count(self):
        img = GrayImage(np.zeros((8, 10), dtype=np.uint8))
        assert capacity(img, StegoParams(1)) == 6


class TestByteOps:
    def test_shuffle_examples(self):
        assert shuffle_byte(0xEC) == 0xDC
        assert shuffle_byte(0x00) == 0x00
        assert shuffle_byte(0xFF) == 0xFF

    def test_unshuffle_examples(self):
        # shuffle_byte is its own inverse, so it also undoes a shuffle
        assert shuffle_byte(0xDC) == 0xEC
        assert shuffle_byte(0x00) == 0x00

    def test_shuffle_is_involution_on_all_bytes(self):
        for b in range(256):
            assert shuffle_byte(shuffle_byte(b)) == b

    def test_shuffle_works_on_arrays(self):
        vals = np.arange(256, dtype=np.uint8)
        out = shuffle_byte(vals)
        assert out.dtype == np.uint8
        assert all(int(out[b]) == shuffle_byte(b) for b in range(256))


class TestSwapPack:
    def test_every_bit_word_packs_to_the_shuffle_of_its_plain_pack(self):
        """Byte q of a 0/1-byte word lands at bit 63 - (q ^ 1) of its product
        with _SWAP_PACK: the top byte is shuffle_byte of the PACK pattern."""
        bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
        words = np.ascontiguousarray(bits).view("<u8").reshape(-1)
        swapped = (words * codec._SWAP_PACK) >> np.uint64(56)
        plain = (words * PACK) >> np.uint64(56)
        assert np.array_equal(swapped, shuffle_byte(plain))
        assert sorted(plain.tolist()) == list(range(256))


class TestSlabs:
    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_walk_inside_one_block_row_takes_only_its_blocks(self, n):
        pixels = np.arange(12 * 21, dtype=np.uint8).reshape(12, 21)  # 7 block columns
        (start, stop, tiles), *rest = codec._slabs(pixels, n)
        assert not rest and (start, stop) == (0, n)
        assert tiles.shape == (1, n, 3, 3)
        for b in range(n):
            assert np.array_equal(tiles[0, b], pixels[:3, 3 * b : 3 * b + 3])

    @pytest.mark.parametrize(
        "n, slab", [(7, 16384), (8, 16384), (20, 16384), (20, 7), (20, 14), (28, 1)]
    )
    def test_walk_past_one_block_row_yields_full_rows(self, n, slab, monkeypatch):
        pixels = np.arange(12 * 22, dtype=np.uint8).reshape(12, 22)  # 7 block columns, 1 spare column
        monkeypatch.setattr(codec, "_SLAB_BLOCKS", slab)
        step = max(1, slab // 7)
        rows = -(-n // 7)
        walked = list(codec._slabs(pixels, n))
        assert [(start, stop) for start, stop, _ in walked] == [
            (7 * top, min(n, 7 * (top + step))) for top in range(0, rows, step)
        ]
        for start, _, tiles in walked:
            top = start // 7
            bottom = top + len(tiles)
            assert tiles.shape == (min(step, rows - top), 7, 3, 3)
            assert np.array_equal(tiles[0, 0], pixels[3 * top : 3 * top + 3, :3])
            assert np.array_equal(tiles[-1, -1], pixels[3 * bottom - 3 : 3 * bottom, 18:21])


class TestSync:
    def test_restores_ge_by_stepping_down(self):
        # center 100 >= neighbor 100; inserting bit 1 gives 101 and breaks it
        assert sync_neighbor(100, 100, 101, 1) == 99

    def test_restores_lt_by_stepping_up(self):
        # center 100 < neighbor 101; inserting bit 0 gives 100 and breaks it
        assert sync_neighbor(100, 101, 100, 1) == 102

    def test_leaves_intact_relation_alone(self):
        assert sync_neighbor(100, 98, 99, 1) == 99

    def test_elementwise_on_arrays(self):
        centers = np.array([100, 100, 100])
        covers = np.array([100, 101, 98])
        stegos = np.array([101, 100, 99])
        out = sync_neighbor(centers, covers, stegos, 1)
        assert list(out) == [99, 102, 99]

    def test_uint8_in_gives_uint8_out(self):
        centers = np.array([100, 100, 100], dtype=np.uint8)
        covers = np.array([100, 101, 98], dtype=np.uint8)
        stegos = np.array([101, 100, 99], dtype=np.uint8)
        out = sync_neighbor(centers, covers, stegos, 1)
        assert out.dtype == np.uint8
        assert list(out) == [99, 102, 99]

    def test_wide_steps_do_not_wrap(self):
        # an unclamped carrier steps out of byte range instead of wrapping
        assert sync_neighbor(np.int64(0), 0, 1, 1) == -1
        assert sync_neighbor(np.int64(254), 255, 254, 1) == 256


class TestClampCover:
    def test_mu1_bounds(self):
        img = gray([[0, 255, 100], [0, 5, 0], [254, 2, 253]])
        out = clamp_cover(img, 1, StegoParams(1))
        assert list(out.pixels.reshape(-1)) == [2, 253, 100, 2, 5, 2, 253, 2, 253]

    def test_reference_pixel_untouched(self):
        img = gray([[50, 50, 50], [50, 0, 50], [50, 50, 50]])
        out = clamp_cover(img, 1, StegoParams(4))
        assert out.pixels[1, 1] == 0
        assert out.pixels[0, 0] == 50

    def test_mu4_bounds(self):
        img = gray([[5, 250, 100]] * 3)
        out = clamp_cover(img, 1, StegoParams(4))
        assert out.pixels[0, 0] == 16 and out.pixels[0, 1] == 239

    def test_identity_when_in_range(self):
        px = np.full((6, 6), 128, dtype=np.uint8)
        img = GrayImage(px)
        out = clamp_cover(img, 4, StegoParams(4))
        assert out == img

    def test_unused_blocks_untouched(self):
        px = np.zeros((3, 6), dtype=np.uint8)
        img = GrayImage(px)
        out = clamp_cover(img, 1, StegoParams(1))
        assert np.array_equal(out.pixels[:, 3:], px[:, 3:])
        assert out.pixels[0, 0] == 2

    def test_too_many_blocks_rejected(self):
        img = GrayImage(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            clamp_cover(img, 2, StegoParams(1))


class TestEmbedBlock:
    def test_tie_block_steps_all_neighbors_down(self):
        # all pixels 100: every relation >=, pattern 0xFF; byte 0x00 inserts
        # all-ones, each 101 breaks >= and syncs down to 99
        block = np.full((3, 3), 100, dtype=np.uint8)
        out = embed_block(block, b"\x00", StegoParams(1))
        expect = np.full((3, 3), 99)
        expect[1, 1] = 100
        assert np.array_equal(out, expect)

    def test_lt_block_steps_all_neighbors_up(self):
        # neighbors 101 > center 100: pattern 0x00; byte 0x00 inserts zeros,
        # each 100 breaks < and syncs up to 102
        block = np.full((3, 3), 101, dtype=np.uint8)
        block[1, 1] = 100
        out = embed_block(block, b"\x00", StegoParams(1))
        expect = np.full((3, 3), 102)
        expect[1, 1] = 100
        assert np.array_equal(out, expect)

    def test_intact_relation_not_synced(self):
        # neighbors 98 < center 100: inserting ones gives 99, relation holds
        block = np.full((3, 3), 98, dtype=np.uint8)
        block[1, 1] = 100
        out = embed_block(block, b"\x00", StegoParams(1))
        expect = np.full((3, 3), 99)
        expect[1, 1] = 100
        assert np.array_equal(out, expect)

    def test_unclamped_neighbor_rejected(self):
        block = np.full((3, 3), 100, dtype=np.uint8)
        block[0, 0] = 1  # below clamp_lo for mu=1
        with pytest.raises(ValueError):
            embed_block(block, b"\x00", StegoParams(1))

    def test_wrong_byte_count_rejected(self):
        block = np.full((3, 3), 100, dtype=np.uint8)
        with pytest.raises(ValueError):
            embed_block(block, b"\x00\x01", StegoParams(1))

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_stego_block_decodes_back_to_inserted_bytes(self, mu):
        from lbpstego.codec import _decode_stream

        rng = np.random.default_rng(mu)
        params = StegoParams(mu)
        for _ in range(25):
            block = rng.integers(params.clamp_lo, params.clamp_hi + 1, (3, 3))
            data = bytes(rng.integers(0, 256, mu, dtype=np.uint8))
            out = embed_block(block, data, params)
            decoded = _decode_stream(out, 1, mu)
            assert bytes(decoded) == data


class TestCapacity:
    def test_512_mu1(self):
        img = GrayImage(np.zeros((512, 512), dtype=np.uint8))
        assert capacity(img, StegoParams(1)) == 28900
        assert max_payload_bytes(img, StegoParams(1)) == 28896

    def test_512_mu4_bits(self):
        img = GrayImage(np.zeros((512, 512), dtype=np.uint8))
        cap = capacity(img, StegoParams(4))
        assert cap == 115600
        assert cap * 8 == 924800

    def test_no_complete_block(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        for mu in (1, 2, 3, 4):
            assert capacity(img, StegoParams(mu)) == 0

    def test_max_payload_shape_near_budget(self):
        img = GrayImage(np.zeros((512, 512), dtype=np.uint8))
        for mu in (1, 2, 3, 4):
            params = StegoParams(mu)
            rows, cols = max_payload_shape(img, params)
            assert cols <= 0xFFFF
            assert rows * cols <= max_payload_bytes(img, params)
            assert rows * cols >= max_payload_bytes(img, params) - (rows - 1)


class TestEmbedExtract:
    def test_framing_arithmetic_9x9(self):
        rng = np.random.default_rng(0)
        cover = GrayImage(rng.integers(0, 256, (9, 9), dtype=np.uint8))
        payload = GrayImage(np.array([[170]], dtype=np.uint8))
        stego = embed(cover, payload, StegoParams(1))
        # 5 stream bytes -> 5 of 9 blocks used; the last 4 blocks (second and
        # third of block-row 1, plus leftovers) are byte-identical to the cover
        touched = np.zeros((9, 9), dtype=bool)
        for b in range(5):
            k, l = divmod(b, cover.width // 3)
            touched[3 * k : 3 * k + 3, 3 * l : 3 * l + 3] = True
        assert np.array_equal(stego.pixels[~touched], cover.pixels[~touched])
        assert extract(stego, StegoParams(1)) == payload

    def test_stego_is_read_only_and_leaves_the_cover_alone(self):
        rng = np.random.default_rng(4)
        cover = GrayImage(rng.integers(0, 256, (9, 9), dtype=np.uint8))
        before = cover.pixels.copy()
        stego = embed(cover, GrayImage(np.array([[7, 9]], dtype=np.uint8)), StegoParams(2))
        assert not np.shares_memory(stego.pixels, cover.pixels)
        assert np.array_equal(cover.pixels, before)
        with pytest.raises(ValueError):
            stego.pixels[0, 0] = 1

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_cover_array_is_embedded_in_place_and_image_cover_is_not(self, mu):
        rng = np.random.default_rng(40 + mu)
        cover = GrayImage(rng.integers(0, 256, (31, 35), dtype=np.uint8))
        before = cover.pixels.copy()
        payload = GrayImage(rng.integers(0, 256, (4, 6 * mu), dtype=np.uint8))
        stego = embed(cover, payload, StegoParams(mu))
        assert np.array_equal(cover.pixels, before)

        raster = before.copy()
        in_place = embed(raster, payload, StegoParams(mu))
        assert in_place.pixels is raster and in_place == stego
        with pytest.raises(ValueError):
            raster[0, 0] = 1

    @pytest.mark.parametrize(
        "raster",
        [
            np.zeros((9, 9), dtype=np.uint8).T[:, ::2],
            np.zeros((9, 9), dtype=np.int16),
            np.zeros((9, 9, 1), dtype=np.uint8),
            GrayImage(np.zeros((9, 9), dtype=np.uint8)).pixels,
        ],
        ids=["strided", "int16", "3-d", "read-only"],
    )
    def test_cover_array_must_be_writable_c_ordered_2d_uint8(self, raster):
        with pytest.raises(ValueError, match="cover array"):
            embed(raster, GrayImage(np.array([[7]], dtype=np.uint8)), StegoParams(1))

    def test_all_zero_payload_round_trip(self):
        rng = np.random.default_rng(1)
        cover = GrayImage(rng.integers(0, 256, (30, 30), dtype=np.uint8))
        payload = GrayImage(np.zeros((5, 8), dtype=np.uint8))
        out = extract(embed(cover, payload, StegoParams(2)), StegoParams(2))
        assert out == payload

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_round_trip_max_payload_64x64(self, mu, monkeypatch):
        rng = np.random.default_rng(mu)
        cover = GrayImage(rng.integers(0, 256, (64, 64), dtype=np.uint8))
        params = StegoParams(mu)
        rows, cols = max_payload_shape(cover, params)
        payload = GrayImage(rng.integers(0, 256, (rows, cols), dtype=np.uint8))
        for slab in slab_sizes(cover):
            monkeypatch.setattr(codec, "_SLAB_BLOCKS", slab)
            assert extract(embed(cover, payload, params), params) == payload, slab

    @pytest.mark.parametrize("mu", [1, 4])
    def test_full_capacity_600x600_across_default_slabs(self, mu, monkeypatch):
        # 200 x 200 = 40,000 blocks: three slabs at the default size
        rng = np.random.default_rng(600 + mu)
        cover = GrayImage(rng.integers(0, 256, (600, 600), dtype=np.uint8))
        params = StegoParams(mu)
        payload = GrayImage(
            rng.integers(0, 256, max_payload_shape(cover, params), dtype=np.uint8)
        )
        stego = embed(cover, payload, params)
        assert extract(stego, params) == payload
        monkeypatch.setattr(codec, "_SLAB_BLOCKS", 10**9)
        assert embed(cover, payload, params) == stego

    def test_payload_too_large(self):
        cover = GrayImage(np.zeros((9, 9), dtype=np.uint8))
        payload = GrayImage(np.zeros((2, 5), dtype=np.uint8))  # 14 > 9 stream bytes
        with pytest.raises(CapacityError):
            embed(cover, payload, StegoParams(1))

    def test_cover_too_small(self):
        cover = GrayImage(np.zeros((2, 9), dtype=np.uint8))
        payload = GrayImage(np.zeros((1, 1), dtype=np.uint8))
        with pytest.raises(CoverTooSmallError):
            embed(cover, payload, StegoParams(1))

    def test_payload_dims_over_16_bits(self):
        cover = GrayImage(np.zeros((600, 600), dtype=np.uint8))
        payload = GrayImage(np.zeros((1, 65536), dtype=np.uint8))
        with pytest.raises(CapacityError):
            embed(cover, payload, StegoParams(4))

    def test_extract_all_zero_image_is_corrupt(self):
        stego = GrayImage(np.zeros((9, 9), dtype=np.uint8))
        with pytest.raises(CorruptStreamError):
            extract(stego, StegoParams(1))

    def test_extract_without_header_room_is_corrupt(self):
        stego = GrayImage(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(CorruptStreamError):
            extract(stego, StegoParams(1))

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_extract_reads_only_the_used_blocks(self, mu):
        rng = np.random.default_rng(100 + mu)
        cover = GrayImage(rng.integers(0, 256, (40, 62), dtype=np.uint8))
        payload = GrayImage(rng.integers(0, 256, (3, 11), dtype=np.uint8))
        params = StegoParams(mu)
        stego = embed(cover, payload, params).pixels.copy()
        used = -(-(HEADER_BYTES + payload.width * payload.height) // mu)
        block_cols = cover.width // 3
        touched = np.zeros(stego.shape, dtype=bool)
        for b in range(used):
            k, l = divmod(b, block_cols)
            touched[3 * k : 3 * k + 3, 3 * l : 3 * l + 3] = True
        stego[~touched] = rng.integers(0, 256, int((~touched).sum()), dtype=np.uint8)
        assert extract(GrayImage(stego), params) == payload

    def test_wrong_mu_detected_on_fixed_input(self):
        # inputs chosen so the misread header always overruns capacity
        rng = np.random.default_rng(42)
        cover = synth.smooth_cover((96, 96), seed=3)
        payload = GrayImage(rng.integers(0, 256, (20, 40), dtype=np.uint8))
        stego = embed(cover, payload, StegoParams(2))
        for wrong in (1, 3, 4):
            with pytest.raises(CorruptStreamError):
                extract(stego, StegoParams(wrong))


# SHA-256 of write_pgm(embed(...)), pinned so that any change to the stego
# bytes is deliberate. The 100x203 cover leaves a 1-row and a 2-column strip.
GOLDEN_STEGO_SHA256 = {
    ("smooth96", "full", 1): "2b43bb7189aa118a575ec0ebb921c29b7192aa4e0368ee96ebe5ce14f802f823",
    ("smooth96", "full", 2): "a1cdf82a2703876e2b526c12504305b7d2d08af0894354eb74ac1e5669909a4d",
    ("smooth96", "full", 3): "8550fbc21ff1408a637ebe5a3202d4d7873b75de500988eb464d64542c4f2057",
    ("smooth96", "full", 4): "637544345a1a40674affaf7342068344f7311104dce6827278eba024dda605f3",
    ("smooth96", "sparse", 1): "a864eaeccacd18760c7ee2b76f3f09419aaa9ba22198f7b684274d6352491440",
    ("smooth96", "sparse", 2): "57a34aa2f014d3fe640936faef09aecc118453cecee5c3815f594516beb63725",
    ("smooth96", "sparse", 3): "4311895814785edb12160c1c7676791402ee13bbee7780ab00b3cc92fa944dce",
    ("smooth96", "sparse", 4): "d1eb72096b0bbf41d0147f8ddc4f6931122cac25dd1d90b9c284a758d4b186ce",
    ("random100x203", "full", 1): "ebc28305679704f89ba7317e730a1f29071eb1fbd75ee3356cbf7359066d5553",
    ("random100x203", "full", 2): "6187f57849066188349c1713c27de5ed261180ef00f2c0877662d92e0bedda7d",
    ("random100x203", "full", 3): "700ed25e22f23f6bcde8debf4abcf4123d1ea301314db0ca93107e3041b88d54",
    ("random100x203", "full", 4): "38b53544b7791dc754223d16acfe43bb59af1123dd41aab1cb939907d373d775",
    ("random100x203", "sparse", 1): "48f658235d508132778d7a502a559724f25b3dfb44e97653c3efc221fdea6780",
    ("random100x203", "sparse", 2): "23accba4777740c2bd96a6b737656d159534f8a476e93c0b8d921525d3d3ba41",
    ("random100x203", "sparse", 3): "4b75630f4c1c8c2cf3c37caea0df8365ed06de6751be5a1b5437f13a648d3fb5",
    ("random100x203", "sparse", 4): "f5a6ddf6ec78e3a24019c431608c3522f439c28f7f2501f263487f48983fb65f",
}


def _golden_cover(name):
    if name == "smooth96":
        return synth.smooth_cover((96, 96), seed=3)
    return GrayImage(np.random.default_rng(11).integers(0, 256, (100, 203), dtype=np.uint8))


@pytest.mark.parametrize("name, fill, mu", sorted(GOLDEN_STEGO_SHA256))
def test_stego_bytes_match_golden_digest(name, fill, mu, monkeypatch):
    cover = _golden_cover(name)
    params = StegoParams(mu)
    shape = max_payload_shape(cover, params) if fill == "full" else (2, 9)
    payload = GrayImage(np.random.default_rng(mu).integers(0, 256, shape, dtype=np.uint8))
    for slab in slab_sizes(cover):
        monkeypatch.setattr(codec, "_SLAB_BLOCKS", slab)
        digest = hashlib.sha256(write_pgm(embed(cover, payload, params))).hexdigest()
        assert digest == GOLDEN_STEGO_SHA256[name, fill, mu], slab
