"""Every PGM input of every command, damaged: ``main`` answers with success or
a documented exit code and at most one ``error:`` line, and a refused command
leaves no output or temp file behind."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lbpstego import codec, synth
from lbpstego.cli import main
from lbpstego.image import GrayImage, pgm_chunks, write_pgm

COVER = synth.smooth_cover((30, 30), seed=5)
PAYLOAD = GrayImage(np.random.default_rng(5).integers(0, 256, (4, 6), dtype=np.uint8))
FILES = {
    "cover.pgm": COVER,
    "payload.pgm": PAYLOAD,
    "stego.pgm": codec.embed(COVER, PAYLOAD, codec.StegoParams(1)),
    "covers/c.pgm": COVER,
}

# Each command's argv: {tmp} is the workspace, {out} an output file, {csv} an output CSV.
ARGV = {
    "embed": "embed --cover {tmp}/cover.pgm --payload {tmp}/payload.pgm --out {out}",
    "extract": "extract --stego {tmp}/stego.pgm --out {out}",
    "capacity": "capacity --cover {tmp}/cover.pgm",
    "metrics": "metrics --a {tmp}/cover.pgm --b {tmp}/stego.pgm --csv {csv}",
    "rs": "rs --image {tmp}/stego.pgm --csv {csv}",
    "pdh": "pdh --image {tmp}/stego.pgm --csv {csv}",
    "compare": "compare --cover-dir {tmp}/covers --payload {tmp}/payload.pgm --rates 50 --methods proposed,lsbm"
               " --csv {csv}",
}
# Every PGM input of every command: (command, the file it reads there).
INPUTS = [
    ("embed", "cover.pgm"), ("embed", "payload.pgm"), ("extract", "stego.pgm"), ("capacity", "cover.pgm"),
    ("metrics", "cover.pgm"), ("metrics", "stego.pgm"), ("rs", "stego.pgm"), ("pdh", "stego.pgm"),
    ("compare", "covers/c.pgm"), ("compare", "payload.pgm"),
]

# Digits and separators, so that an overwritten header byte often still parses,
# as another size.
_HEADER_BYTES = st.sampled_from(list(b"0123456789 \n#"))


@st.composite
def damaged(draw, img: GrayImage) -> bytes:
    """``img``'s PGM truncated, with one header byte overwritten, with maxval
    65535, or with a width or height of 0 or 10**9."""
    header, raster = pgm_chunks(img)
    data = header + bytes(raster)
    kind = draw(st.sampled_from(("truncated", "header-byte", "maxval", "dimension")))
    if kind == "truncated":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "header-byte":
        at = draw(st.integers(0, len(header) - 1))
        byte = draw(st.one_of(_HEADER_BYTES, st.integers(0, 255)))
        return data[:at] + bytes([byte]) + data[at + 1 :]
    width, height = img.width, img.height
    if kind == "maxval":
        return f"P5\n{width} {height}\n65535\n".encode() + bytes(raster)
    side = draw(st.sampled_from((0, 10**9)))
    width, height = (side, height) if draw(st.booleans()) else (width, side)
    return f"P5\n{width} {height}\n255\n".encode() + bytes(raster)


@st.composite
def hostile_cases(draw):
    command, target = draw(st.sampled_from(INPUTS))
    return ARGV[command], target, draw(damaged(FILES[target]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hostile_cases())
def test_a_damaged_input_gets_a_documented_exit_code_and_leaves_nothing_behind(case):
    argv, target, data = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "covers").mkdir()
        for name, img in FILES.items():
            (tmp / name).write_bytes(data if name == target else write_pgm(img))
        before = sorted(tmp.rglob("*"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(tmp=tmp, out=tmp / "out.pgm", csv=tmp / "out.csv") for arg in argv.split()])
        err = err.getvalue()
        assert code == 0 or 2 <= code <= 7
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
            assert sorted(tmp.rglob("*")) == before  # no output, and no temp file beside one
