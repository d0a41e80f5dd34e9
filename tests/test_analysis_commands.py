"""The single-image analysis commands (`metrics`, `rs`, `pdh`) against golden
digests of their stdout and CSVs, and the work each of them shares."""

import hashlib

import numpy as np
import pytest

from lbpstego import cli, codec, synth
from lbpstego.analysis import Reference, psnr, rs_analysis
from lbpstego.cli import EXIT_OK, main
from lbpstego.image import GrayImage, save_pgm

# SHA-256 of each command's stdout and --csv file on the pair below.
GOLDEN = {
    "metrics": (
        "2075459a6ddc6ab4c8a5cfc7cfe201fceb07e521fdb5a87e2ef42660ab83f765",
        "52eef8ec4c95414b1b21b30d0c9a66207a91e2d3620a48a3db05e3a1d8430c3e",
    ),
    "rs": ("7d5a8de0fd1491da2367349f3bdb37a69b7cc7d41a01a0ec64dc0a68bc61dd7c", None),
    "pdh": (
        "c1ac80ea1b1cf669f51322b98d01b62a60a1345eaf7296b72eb714b7ad585974",
        "1ad97755bc8cd06790135b6c95b5d862075b4623857793f34516774bb5ba994e",
    ),
}
# The rs CSV's header and four fraction rows; the two difference rows follow them.
RS_FRACTIONS_DIGEST = "d0f531a9cf25f3df02e2c2e1c7880adbe0c00f2dd52af4d1d159c018e6f5b530"
RS_DIFF_ROWS = ["stego.pgm,rs,,rs_diff_m,0.0908203125\n", "stego.pgm,rs,,rs_diff_neg_m,0.048828125\n"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def pair(tmp_path):
    """A smooth 64x64 cover and its mu-4 stego, as cover.pgm and stego.pgm."""
    cover = synth.smooth_cover((64, 64), seed=11)
    payload = GrayImage(np.random.default_rng(12).integers(0, 256, (16, 24), dtype=np.uint8))
    save_pgm(tmp_path / "cover.pgm", cover)
    save_pgm(tmp_path / "stego.pgm", codec.embed(cover, payload, codec.StegoParams(4)))
    return tmp_path


def _argv(tmp, command):
    return {
        "metrics": ["metrics", "--a", str(tmp / "cover.pgm"), "--b", str(tmp / "stego.pgm")],
        "rs": ["rs", "--image", str(tmp / "stego.pgm")],
        "pdh": ["pdh", "--image", str(tmp / "stego.pgm")],
    }[command]


@pytest.mark.parametrize("command", ["metrics", "rs", "pdh"])
def test_analysis_command_outputs_match_golden_digests(pair, capsys, command):
    out_digest, csv_digest = GOLDEN[command]
    csv = pair / f"{command}.csv"
    assert main(_argv(pair, command)) == EXIT_OK
    assert sha256(capsys.readouterr().out.encode()) == out_digest
    assert main(_argv(pair, command) + ["--csv", str(csv)]) == EXIT_OK
    assert sha256(capsys.readouterr().out.encode()) == out_digest
    if csv_digest is not None:
        assert sha256(csv.read_bytes()) == csv_digest


def test_rs_csv_writes_all_six_values_it_prints(pair, capsys):
    csv = pair / "rs.csv"
    assert main(_argv(pair, "rs") + ["--csv", str(csv)]) == EXIT_OK
    lines = csv.read_text().splitlines(keepends=True)
    assert sha256("".join(lines[:5]).encode()) == RS_FRACTIONS_DIGEST
    assert lines[5:] == RS_DIFF_ROWS
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == [line.split(",")[3][3:] for line in lines[1:]]


def test_an_image_is_not_compared_with_itself(monkeypatch):
    """A Reference knows its own image equals it everywhere: RS analysis
    without a reference, and PSNR of an image against itself, find no band."""
    img = synth.textured_cover((32, 40), seed=4)
    calls = []
    flatnonzero = np.flatnonzero

    def counting(*args, **kwargs):
        calls.append(args)
        return flatnonzero(*args, **kwargs)

    monkeypatch.setattr(np, "flatnonzero", counting)
    rs = rs_analysis(img)
    assert psnr(Reference(img), img) == np.inf
    assert calls == []
    monkeypatch.undo()
    assert rs == rs_analysis(img, reference=Reference(GrayImage(img.pixels.copy())))


def test_metrics_command_shares_one_reference(pair, monkeypatch):
    built = []

    class CountingReference(Reference):
        def __init__(self, image):
            built.append(image)
            super().__init__(image)

    monkeypatch.setattr(cli.analysis, "Reference", CountingReference)
    assert main(_argv(pair, "metrics")) == EXIT_OK
    assert len(built) == 1
