"""The benchmark checks every round trip with ``bench/counts.py``, which keeps
its own copies of the size header, the ring order and the clip rule, and
renders its inputs with ``bench/gen.py``, which keeps its own copy of the mu
values; a change to any of them in the library must fail here, not only at
bench time."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lbpstego import codec, synth
from lbpstego.cli import EXIT_OK, main
from lbpstego.image import GrayImage, save_pgm

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_keeps_the_library_ring_and_header_size():
    counts = load_bench("counts")
    assert list(zip(counts.RING_ROWS.tolist(), counts.RING_COLS.tolist())) == list(codec._RING_POS)
    assert counts.HEADER_BYTES == codec.HEADER_BYTES


def test_gen_renders_every_mu_the_codec_takes():
    assert load_bench("gen").MUS == codec.MU_VALUES


@pytest.mark.parametrize("mu", [1, 2, 3, 4])
def test_counts_agree_with_a_cli_round_trip(tmp_path, mu):
    """A smooth cover sprinkled with 0, 255 and the values at and next to each
    mu's clip bounds, and a payload whose stream ends inside a block row."""
    rng = np.random.default_rng(mu)
    pixels = synth.smooth_cover((48, 51), seed=mu).pixels.copy()
    edges = [0, 255] + [v for m in range(1, 5) for v in (2**m - 1, 2**m, 255 - 2**m, 256 - 2**m)]
    pixels[::2, 1::3] = rng.choice(edges, pixels[::2, 1::3].shape)
    cover = GrayImage(pixels)
    payload = GrayImage(rng.integers(0, 256, (7, 23), dtype=np.uint8))
    paths = {name: tmp_path / f"{name}.pgm" for name in ("cover", "payload", "stego")}
    save_pgm(paths["cover"], cover)
    save_pgm(paths["payload"], payload)
    argv = ["embed", "--cover", str(paths["cover"]), "--payload", str(paths["payload"]),
            "--out", str(paths["stego"]), "--mu", str(mu)]
    assert main(argv) == EXIT_OK

    counts = load_bench("counts").round_trip_counts(paths["cover"], paths["payload"], paths["stego"], mu)
    used = -(-codec.stream_bytes(payload) // mu)
    assert counts["ok"]
    assert counts["blocks_used"] == used
    assert used % (cover.width // 3)  # the last used block row is partly used
    clamped = codec.clamp_cover(cover, used, codec.StegoParams(mu))
    assert counts["carriers_clamped"] == int((clamped.pixels != cover.pixels).sum()) > 0
