import hashlib
from dataclasses import replace

import numpy as np
import pytest
from baseline_oracle import _embed_pairs, _extract_pairs
from hypothesis import given, settings
from hypothesis import strategies as st

from lbpstego.baselines import BaselineMethod, baseline_embed, baseline_extract
from lbpstego.image import GrayImage, write_pgm
from lbpstego.sweep import METHODS


def rand_cover(rng, h=12, w=12):
    return GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))


class TestMethodValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BaselineMethod("pvd")

    @pytest.mark.parametrize("k", [0, 5])
    def test_replace_depth_range(self, k):
        with pytest.raises(ValueError):
            BaselineMethod("lsb", k)

    def test_capacities(self):
        img = GrayImage(np.zeros((10, 10), dtype=np.uint8))
        assert BaselineMethod("lsb", 3).capacity_bits(img) == 300
        assert BaselineMethod("lsbm").capacity_bits(img) == 100
        assert BaselineMethod("lsbmr").capacity_bits(img) == 100
        odd = GrayImage(np.zeros((3, 3), dtype=np.uint8))
        assert BaselineMethod("lsbmr").capacity_bits(odd) == 8


class TestLsbReplace:
    def test_single_bit_forced(self):
        cover = GrayImage(np.array([[100]], dtype=np.uint8))
        out = baseline_embed(cover, [1], BaselineMethod("lsb", 1))
        assert out.pixels[0, 0] == 101

    def test_extract_reads_lsb(self):
        stego = GrayImage(np.array([[101]], dtype=np.uint8))
        assert list(baseline_extract(stego, 1, BaselineMethod("lsb", 1))) == [1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_deviation_bound(self, k):
        rng = np.random.default_rng(k)
        cover = rand_cover(rng)
        bits = rng.integers(0, 2, k * cover.width * cover.height)
        out = baseline_embed(cover, bits, BaselineMethod("lsb", k))
        assert np.abs(out.pixels.astype(int) - cover.pixels.astype(int)).max() <= 2**k - 1


class TestLsbMatch:
    def test_matching_pixel_untouched(self):
        cover = GrayImage(np.array([[100, 101]], dtype=np.uint8))
        out = baseline_embed(cover, [0, 1], BaselineMethod("lsbm", seed=9))
        assert out == cover

    def test_boundary_pixels_step_inward(self):
        cover = GrayImage(np.array([[0, 255]], dtype=np.uint8))
        out = baseline_embed(cover, [1, 0], BaselineMethod("lsbm", seed=9))
        assert out.pixels[0, 0] == 1 and out.pixels[0, 1] == 254

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        cover = rand_cover(rng)
        bits = rng.integers(0, 2, cover.width * cover.height)
        method = BaselineMethod("lsbm", seed=77)
        assert baseline_embed(cover, bits, method) == baseline_embed(cover, bits, method)

    def test_deviation_at_most_one(self):
        rng = np.random.default_rng(11)
        cover = rand_cover(rng)
        bits = rng.integers(0, 2, cover.width * cover.height)
        out = baseline_embed(cover, bits, BaselineMethod("lsbm", seed=3))
        assert np.abs(out.pixels.astype(int) - cover.pixels.astype(int)).max() <= 1


class TestLsbmr:
    def test_pair_function_example(self):
        # pair (100, 50): bit1 = LSB(100) = 0, bit2 = LSB(100//2 + 50) = LSB(100) = 0
        stego = GrayImage(np.array([[100, 50]], dtype=np.uint8))
        assert list(baseline_extract(stego, 2, BaselineMethod("lsbmr"))) == [0, 0]

    def test_no_op_when_both_bits_hold(self):
        cover = GrayImage(np.array([[100, 50]], dtype=np.uint8))
        out = baseline_embed(cover, [0, 0], BaselineMethod("lsbmr", seed=1))
        assert out == cover

    def test_deviation_at_most_one_everywhere(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            cover = rand_cover(rng, 8, 8)
            bits = rng.integers(0, 2, 64)
            out = baseline_embed(cover, bits, BaselineMethod("lsbmr", seed=trial))
            assert np.abs(out.pixels.astype(int) - cover.pixels.astype(int)).max() <= 1

    def test_boundary_pixels_round_trip(self):
        # force the first-pixel adjustment against both range ends
        cover = GrayImage(np.array([[0, 7, 255, 9]], dtype=np.uint8))
        method = BaselineMethod("lsbmr", seed=5)
        for bits in ([1, 0, 0, 1], [1, 1, 0, 0]):
            out = baseline_embed(cover, bits, method)
            assert list(baseline_extract(out, 4, method)) == bits
            assert np.abs(out.pixels.astype(int) - cover.pixels.astype(int)).max() <= 1


class TestCapacityErrors:
    def test_embed_overflow(self):
        cover = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            baseline_embed(cover, [0] * 5, BaselineMethod("lsbm"))

    def test_extract_overflow(self):
        stego = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            baseline_extract(stego, 5, BaselineMethod("lsbm"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["lsb1", "lsb2", "lsb3", "lsb4", "lsbm", "lsbmr"]))
def test_round_trip_property(seed, name):
    rng = np.random.default_rng(seed)
    cover = rand_cover(rng, int(rng.integers(2, 14)), int(rng.integers(2, 14)))
    method = replace(METHODS[name], seed=seed)
    cap = method.capacity_bits(cover)
    count = int(rng.integers(1, cap + 1))
    bits = rng.integers(0, 2, count, dtype=np.uint8)
    stego = baseline_embed(cover, bits, method)
    assert np.array_equal(baseline_extract(stego, count, method), bits)


def _edge_heavy_cover(rng, h, w):
    """Mostly 0/255 pixels, so forced inward moves are common."""
    px = rng.choice(np.array([0, 1, 2, 253, 254, 255], dtype=np.uint8), (h, w))
    noisy = rng.random((h, w)) < 0.2
    px[noisy] = rng.integers(0, 256, int(noisy.sum()))
    return GrayImage(px)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_lsbmr_matches_pair_oracle(seed, edge_heavy):
    """The array path gives the per-pair loop's stego and bits, RNG stream included."""
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 16)), int(rng.integers(1, 16))
    cover = _edge_heavy_cover(rng, h, w) if edge_heavy else rand_cover(rng, h, w)
    method = BaselineMethod("lsbmr", seed=seed)
    count = int(rng.integers(0, method.capacity_bits(cover) + 1))
    bits = rng.integers(0, 2, count, dtype=np.uint8)
    stego = baseline_embed(cover, bits, method)
    flat = cover.pixels.reshape(-1).astype(np.int32)
    expect = _embed_pairs(flat, bits, seed).astype(np.uint8).reshape(h, w)
    assert np.array_equal(stego.pixels, expect)
    read = baseline_extract(stego, count, method)
    assert np.array_equal(read, _extract_pairs(stego.pixels.reshape(-1).astype(np.int32), count))
    assert np.array_equal(read, bits)


def test_lsbm_extract_ignores_depth():
    """LSBM reads one bit per pixel whatever ``k`` the method carries."""
    stego = GrayImage(np.array([[6, 7, 4]], dtype=np.uint8))
    assert list(baseline_extract(stego, 3, BaselineMethod("lsbm", k=3))) == [0, 1, 0]


# SHA-256 of write_pgm(baseline_embed(...)), pinned so that any change to the
# stego bytes or to the RNG stream of LSBM/LSBMR is deliberate. Both covers
# have an odd pixel count, so LSBMR leaves the last pixel unused.
GOLDEN_BASELINE_SHA256 = {
    ("edges13x11", "full", "lsb1", 0): "fae5270d5f55c1d316d854c4af6d97e697a16432b89d4b118f9f1dba1aa1cf4f",
    ("edges13x11", "full", "lsb1", 7): "5776d9f739b75ac0ea7e31bd46038eb01976f7bfe96253418d5dff5f3eed38a5",
    ("edges13x11", "full", "lsb2", 0): "85957777af926f9a8f7e07b153dfab594aba51c73118da56b1f8deea537e2239",
    ("edges13x11", "full", "lsb2", 7): "f0c9a6317b63b1def37a96f2b09f059979debea1c2de345466185fed1e916931",
    ("edges13x11", "full", "lsb3", 0): "a8d44acc9517f6309fd79ae824abfcb46323930c6087c1db8496eac9ba2d42dc",
    ("edges13x11", "full", "lsb3", 7): "13768f1fd47174cade62917b8c76bbdae90036ef8839d5bc19fc673cac87180c",
    ("edges13x11", "full", "lsb4", 0): "d70d433a7b59bca26e9b2b276a6261ff0fbcff646fe7d143d252245ce6bfa42e",
    ("edges13x11", "full", "lsb4", 7): "e47988c5cdce1587b3bab226ae255e5701229822e359013497ec1051aea009a2",
    ("edges13x11", "full", "lsbm", 0): "bdc56d3cce1b8272f0154238a29fd5a5ec722ef77a9271fc537ca41bcdf61be1",
    ("edges13x11", "full", "lsbm", 7): "1c6084e37d8ffe8135586e0341ce9c273f2dd5de2f541ba56724da45240c3eee",
    ("edges13x11", "full", "lsbmr", 0): "8c4ee5f5bd72f17ac00a1e113c87517962ef3104cdb1ee50096467c7e67b833f",
    ("edges13x11", "full", "lsbmr", 7): "1e754b7a32bf879a3a46529fb759517ddd9b69add7c7f5b393f3151ed9a8fa05",
    ("edges13x11", "odd", "lsb1", 0): "c8632beb2b96479ca20aae82926adc1d70e1b123779bb3e0fe08d51a5e54821e",
    ("edges13x11", "odd", "lsb1", 7): "f4a6ed3e1f386df7c898d31158cff964a739f13eb9be968b9d142b32ac5da7d2",
    ("edges13x11", "odd", "lsb2", 0): "205dade0e2c73c13473b324a9db47ab2d5972394d987f8911a7de5eac8337dff",
    ("edges13x11", "odd", "lsb2", 7): "816fae82d63ccd1b4142aee5e9b23139caaa469a9fefd25f7a70935487fc7779",
    ("edges13x11", "odd", "lsb3", 0): "996e90c0e010fe38d2648fce70515f9cad831d2cafbfb886cee9846fa22c1b1c",
    ("edges13x11", "odd", "lsb3", 7): "ded0d0b4340f92baa970a47db0ffc6f300befb4040ee4a55c3c78d23b6b65b6f",
    ("edges13x11", "odd", "lsb4", 0): "0d588565ddffd2b6b55d7bebf2c1537b4e188ffa4832595f467b3f9b089c1a25",
    ("edges13x11", "odd", "lsb4", 7): "c33ac799ca253698eeb4aaf8ad2d8ca51dd50c189b8b46e73e8d0957d47cd392",
    ("edges13x11", "odd", "lsbm", 0): "8f47e6799a88af0fb6c2bb049802ff400d60e06636e7d23d46cbb37ccb0c9e1d",
    ("edges13x11", "odd", "lsbm", 7): "7a95808ec0b95539e946a0c5c29ba208fb8f89ce099d466701cf769ce2b9a7c8",
    ("edges13x11", "odd", "lsbmr", 0): "694e68476c41ff7c9c6826b73d735e7e9402d7f8a9c165a2142a18b5a86e2e92",
    ("edges13x11", "odd", "lsbmr", 7): "f021caa52c6ec370838655e1e0b71b360849669824b4895cc67ac621ea6a9381",
    ("random15x17", "full", "lsb1", 0): "b6ddf7dede7b52ce30609cedebb01c192975adea782c25ce7e62114e6848a447",
    ("random15x17", "full", "lsb1", 7): "f3dd0ece927e532d99b85419985b08317c4e8e4b2c1259b9a086551ab4769fb5",
    ("random15x17", "full", "lsb2", 0): "5fdb4cd69eafb39e3ffb9f485f147f814e182c106adf3d9b668c3d7df5492ca1",
    ("random15x17", "full", "lsb2", 7): "aa5ccafe0feca76a0085813bd74fc18bc2a125dcf6e623f17e5474c0d6d53b30",
    ("random15x17", "full", "lsb3", 0): "851550bc2e12c4aee4556915a0a62c7f6cf5150deed4122084943b12abb6245f",
    ("random15x17", "full", "lsb3", 7): "dd9c2327b795fe77ac5c0b0d5894a1292a59f8174825ddaf5fbe1e02eb9885ac",
    ("random15x17", "full", "lsb4", 0): "0fa86a0fd952b4e55044e3431f81620702dfc3284d75f9987fa5735ebf3c18ed",
    ("random15x17", "full", "lsb4", 7): "f74dedf718b5475edc0171133c9b885706430d3933dcc9bfa5a6d608d1048527",
    ("random15x17", "full", "lsbm", 0): "fdb1a4c12ce33671e445beddcd67e52b992b0d65827fc7a7e76617dc69fe6dc1",
    ("random15x17", "full", "lsbm", 7): "98e1f28871086e2f1feecd102c57aaee697bebd552e4fcb569c7a4e2971c5fbb",
    ("random15x17", "full", "lsbmr", 0): "b5f39be005fa2e82cb7a8063772bf0bcb835c681b834a59085f5e0c481e5a4cb",
    ("random15x17", "full", "lsbmr", 7): "1469030502740db48296b2d7d7c151babc4a7d0768f0cc901dfa478bd5a7f3e6",
    ("random15x17", "odd", "lsb1", 0): "803a35a529bfb9f25602059de47e8e8f951db0a4b93ffcdeaf50184c8c5b228e",
    ("random15x17", "odd", "lsb1", 7): "1f545ad1b19892b0f4d505f130c66ca5b55d844bb93f25bd6ba358c586fedbd1",
    ("random15x17", "odd", "lsb2", 0): "d4016b424baf81a8b2f6bdbab0ba91b347f38b53052c68b52a890a2fb4558a7e",
    ("random15x17", "odd", "lsb2", 7): "0cbc31660e2e173d327d9d1f1ed2aded6921f5565c2f3d2276dac23711849267",
    ("random15x17", "odd", "lsb3", 0): "5370f815f8460330eb8287c173ec43bfa8da98d0a45127e4646269384a8031a2",
    ("random15x17", "odd", "lsb3", 7): "d75939ba30ecbe9bf5c28f62e41107b00f15c2a63568ae86559a16cd3aa09b0e",
    ("random15x17", "odd", "lsb4", 0): "6c2a35f88c01287e00e9ae335445f912148f9d97e33b95dbf56121d374732334",
    ("random15x17", "odd", "lsb4", 7): "4194b0bf689cdf8dda20722a148f1f6f04f6a283a5b67089e3278d9af4e2e5d3",
    ("random15x17", "odd", "lsbm", 0): "47a22cf21ed06e72dfc9095556b638e0b8e65afe4cd093d24c1101ace3532589",
    ("random15x17", "odd", "lsbm", 7): "298509461adf33951606f4c20b8b970a0f16245888154e9c8f390c435750de2f",
    ("random15x17", "odd", "lsbmr", 0): "a4edf82818f49521d3343737916aead9213481d57af8914f2731ebece4c7601b",
    ("random15x17", "odd", "lsbmr", 7): "4c7ecf5c2750f10540234b7de8d3e9032ba813a8b4a5248259e83ee4bbc10758",
}


def _golden_cover(name):
    rng = np.random.default_rng(21)
    if name == "edges13x11":
        px = rng.choice(np.array([0, 255], dtype=np.uint8), (13, 11))
        noisy = rng.random((13, 11)) < 0.2
        px[noisy] = rng.integers(0, 256, noisy.sum())
        return GrayImage(px)
    return GrayImage(rng.integers(0, 256, (15, 17), dtype=np.uint8))


def _golden_method(name, seed):
    return replace(METHODS[name], seed=seed)


@pytest.mark.parametrize("cover_name, fill, name, seed", sorted(GOLDEN_BASELINE_SHA256))
def test_baseline_stego_matches_golden_digest(cover_name, fill, name, seed):
    cover = _golden_cover(cover_name)
    method = _golden_method(name, seed)
    count = method.capacity_bits(cover) if fill == "full" else 101
    bits = np.random.default_rng(seed + 1).integers(0, 2, count, dtype=np.uint8)
    digest = hashlib.sha256(write_pgm(baseline_embed(cover, bits, method))).hexdigest()
    assert digest == GOLDEN_BASELINE_SHA256[cover_name, fill, name, seed]
