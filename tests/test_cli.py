import argparse
import csv
import errno
import os
import re
import shlex
import stat
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbpstego import analysis, cli, codec, image, sweep, synth
from lbpstego.cli import (
    EXIT_CAPACITY,
    EXIT_EXISTS,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_STREAM,
    build_parser,
    main,
)
from lbpstego.image import GrayImage, load_pgm, save_pgm, write_pgm


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(55)
    cover = synth.smooth_cover((96, 96), seed=3)
    payload = GrayImage(rng.integers(0, 256, (20, 40), dtype=np.uint8))
    save_pgm(tmp_path / "cover.pgm", cover)
    save_pgm(tmp_path / "payload.pgm", payload)
    return tmp_path, cover, payload


def test_embed_extract_round_trip(workspace, capsys):
    tmp, _, payload = workspace
    rc = main([
        "embed", "--cover", str(tmp / "cover.pgm"), "--payload", str(tmp / "payload.pgm"),
        "--out", str(tmp / "stego.pgm"), "--mu", "2",
    ])
    assert rc == EXIT_OK
    rc = main([
        "extract", "--stego", str(tmp / "stego.pgm"), "--out", str(tmp / "back.pgm"), "--mu", "2",
    ])
    assert rc == EXIT_OK
    assert (tmp / "back.pgm").read_bytes() == (tmp / "payload.pgm").read_bytes()


def test_extract_with_wrong_mu_fails(workspace, capsys):
    tmp, _, _ = workspace
    main([
        "embed", "--cover", str(tmp / "cover.pgm"), "--payload", str(tmp / "payload.pgm"),
        "--out", str(tmp / "stego.pgm"), "--mu", "2",
    ])
    rc = main([
        "extract", "--stego", str(tmp / "stego.pgm"), "--out", str(tmp / "oops.pgm"), "--mu", "1",
    ])
    assert rc == EXIT_STREAM
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_capacity_output(tmp_path, capsys):
    save_pgm(tmp_path / "c.pgm", GrayImage(np.zeros((512, 512), dtype=np.uint8)))
    rc = main(["capacity", "--cover", str(tmp_path / "c.pgm"), "--mu", "1"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("28900 bytes (0.88 bpp stream)")
    assert "28896" in out


def test_capacity_exceeded_maps_to_exit_5(tmp_path):
    rng = np.random.default_rng(1)
    save_pgm(tmp_path / "c.pgm", GrayImage(rng.integers(0, 256, (9, 9), dtype=np.uint8)))
    save_pgm(tmp_path / "p.pgm", GrayImage(rng.integers(0, 256, (20, 20), dtype=np.uint8)))
    rc = main([
        "embed", "--cover", str(tmp_path / "c.pgm"), "--payload", str(tmp_path / "p.pgm"),
        "--out", str(tmp_path / "s.pgm"), "--mu", "1",
    ])
    assert rc == EXIT_CAPACITY


@pytest.mark.parametrize(
    "command, image_shape, fill, payload_shape, code, message",
    [
        ("embed", (2, 5), 0, (2, 2), EXIT_CAPACITY, "2x5 cover has no complete 3x3 block"),
        ("embed", (9, 9), 0, (1, 65536), EXIT_CAPACITY, "payload dimensions exceed 65535"),
        ("embed", (9, 9), 0, (20, 20), EXIT_CAPACITY, "stream needs 404 bytes, cover holds 9 at mu=1"),
        ("extract", (3, 9), 0, None, EXIT_STREAM,
         "image holds only 3 stream bytes, no room for a size header"),
        # flat 1s decode to header bytes 0x00, flat 0s to 0xFF
        ("extract", (30, 30), 1, None, EXIT_STREAM, "header announces a 0x0 payload"),
        ("extract", (30, 30), 0, None, EXIT_STREAM,
         "header announces 4294836229 stream bytes, image holds 100"),
    ],
    ids=["no-block", "payload-side", "over-capacity", "no-header-room", "zero-side", "header-overrun"],
)
def test_each_frame_error_has_its_exit_code_and_line(
    tmp_path, capsys, command, image_shape, fill, payload_shape, code, message
):
    """Every check on the stream's size header, in the order the codec makes
    them: the first that fails names the exit code and the one error line."""
    image_path, out = tmp_path / "image.pgm", tmp_path / "out.pgm"
    save_pgm(image_path, GrayImage(np.full(image_shape, fill, dtype=np.uint8)))
    if command == "embed":
        save_pgm(tmp_path / "p.pgm", GrayImage(np.zeros(payload_shape, dtype=np.uint8)))
        argv = ["embed", "--cover", str(image_path), "--payload", str(tmp_path / "p.pgm")]
    else:
        argv = ["extract", "--stego", str(image_path)]
    assert main([*argv, "--out", str(out), "--mu", "1"]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unreadable_file_maps_to_exit_3(tmp_path):
    rc = main(["capacity", "--cover", str(tmp_path / "missing.pgm"), "--mu", "1"])
    assert rc == EXIT_IO


def test_malformed_pgm_maps_to_exit_4(tmp_path):
    (tmp_path / "bad.pgm").write_bytes(b"P4\n1 1\n255\n\x00")
    rc = main(["capacity", "--cover", str(tmp_path / "bad.pgm"), "--mu", "1"])
    assert rc == EXIT_FORMAT


def test_refuses_overwrite_without_force(workspace):
    tmp, _, _ = workspace
    args = [
        "embed", "--cover", str(tmp / "cover.pgm"), "--payload", str(tmp / "payload.pgm"),
        "--out", str(tmp / "stego.pgm"), "--mu", "1",
    ]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_EXISTS
    assert main(args + ["--force"]) == EXIT_OK


def test_metrics_and_csv(workspace, capsys):
    tmp, _, _ = workspace
    main([
        "embed", "--cover", str(tmp / "cover.pgm"), "--payload", str(tmp / "payload.pgm"),
        "--out", str(tmp / "stego.pgm"), "--mu", "1",
    ])
    rc = main([
        "metrics", "--a", str(tmp / "cover.pgm"), "--b", str(tmp / "stego.pgm"),
        "--csv", str(tmp / "m.csv"),
    ])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "psnr:" in out and "q_index:" in out and "histogram_l1:" in out
    rows = list(csv.reader((tmp / "m.csv").read_text().splitlines()))
    assert rows[0] == ["image", "method", "rate", "metric", "value"]
    assert len(rows) == 4


def test_metrics_identical_images_report_inf(workspace, capsys):
    tmp, _, _ = workspace
    rc = main(["metrics", "--a", str(tmp / "cover.pgm"), "--b", str(tmp / "cover.pgm")])
    assert rc == EXIT_OK
    assert "psnr: inf dB" in capsys.readouterr().out


def test_rs_command(workspace, capsys):
    tmp, _, _ = workspace
    rc = main(["rs", "--image", str(tmp / "cover.pgm"), "--mask", "0110"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    for field in ("r_m:", "s_m:", "r_neg_m:", "s_neg_m:"):
        assert field in out
    # comma syntax with negative entries
    assert main(["rs", "--image", str(tmp / "cover.pgm"), "--mask", "0,-1,-1,0"]) == EXIT_OK


def test_pdh_command_csv(workspace, tmp_path):
    tmp, _, _ = workspace
    rc = main(["pdh", "--image", str(tmp / "cover.pgm"), "--csv", str(tmp / "pdh.csv")])
    assert rc == EXIT_OK
    lines = (tmp / "pdh.csv").read_text().splitlines()
    assert len(lines) == 1 + 511


def test_compare_sweep_csv(workspace):
    tmp, _, _ = workspace
    covers = tmp / "covers"
    covers.mkdir()
    save_pgm(covers / "one.pgm", synth.smooth_cover((60, 60), seed=8))
    save_pgm(covers / "two.pgm", synth.textured_cover((60, 60), seed=9))
    rc = main([
        "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"),
        "--rates", "10,50", "--methods", "proposed,lsb1,lsbm,lsbmr", "--seed", "7",
        "--csv", str(tmp / "sweep.csv"),
    ])
    assert rc == EXIT_OK
    rows = list(csv.reader((tmp / "sweep.csv").read_text().splitlines()))
    assert rows[0] == ["image", "method", "rate", "metric", "value"]
    images = {r[0] for r in rows[1:]}
    methods = {r[1] for r in rows[1:]}
    assert images == {"one.pgm", "two.pgm"}
    assert methods == {"proposed", "lsb1", "lsbm", "lsbmr"}
    # deterministic given identical inputs and seed
    first = (tmp / "sweep.csv").read_bytes()
    rc = main([
        "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"),
        "--rates", "10,50", "--methods", "proposed,lsb1,lsbm,lsbmr", "--seed", "7",
        "--csv", str(tmp / "sweep.csv"), "--force",
    ])
    assert rc == EXIT_OK
    assert (tmp / "sweep.csv").read_bytes() == first


def test_compare_empty_dir_fails(workspace):
    tmp, _, _ = workspace
    empty = tmp / "empty"
    empty.mkdir()
    rc = main([
        "compare", "--cover-dir", str(empty), "--payload", str(tmp / "payload.pgm"),
        "--csv", str(tmp / "x.csv"),
    ])
    assert rc == EXIT_IO


def test_rate_out_of_range_is_usage_error(workspace):
    tmp, _, _ = workspace
    covers = tmp / "c"
    covers.mkdir()
    save_pgm(covers / "a.pgm", synth.smooth_cover((30, 30), seed=1))
    for rates in ("0,50", "120", "-5"):
        rc = main([
            "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"),
            "--rates", rates, "--csv", str(tmp / "r.csv"),
        ])
        assert rc == 2


def test_bad_rs_mask_is_usage_error(workspace, capsys):
    tmp, _, _ = workspace
    assert main(["rs", "--image", str(tmp / "cover.pgm"), "--mask", "0210"]) == 2
    assert main(["rs", "--image", str(tmp / "cover.pgm"), "--mask", "1"]) == 2
    capsys.readouterr()
    for mask, token in (("01x0", "x"), ("0,1,a,0", "a")):
        assert main(["rs", "--image", str(tmp / "cover.pgm"), "--mask", mask]) == 2
        assert capsys.readouterr().err == f"error: --mask: cannot parse {token!r}\n"
    # The mask is checked before the image is read.
    assert main(["rs", "--image", str(tmp / "missing.pgm"), "--mask", "0210"]) == 2


@pytest.mark.parametrize(
    "command, shape, message",
    [
        ("metrics", (7, 7), "at least 8x8"),
        ("metrics", (7, 40), "at least 8x8"),
        ("pdh", (5, 1), "width >= 2"),
        ("rs", (1, 5), "smaller than the group size 6"),
    ],
)
def test_image_too_small_for_the_metric_maps_to_exit_5(tmp_path, capsys, command, shape, message):
    """The epilog documents exit 5 for a too-small image, for every analysis command."""
    image = tmp_path / "small.pgm"
    save_pgm(image, GrayImage(np.full(shape, 100, dtype=np.uint8)))
    argv = {
        "metrics": ["metrics", "--a", str(image), "--b", str(image)],
        "pdh": ["pdh", "--image", str(image)],
        "rs": ["rs", "--image", str(image), "--mask", "0,1,1,-1,-1,0"],
    }[command]
    assert main(argv + ["--csv", str(tmp_path / "out.csv")]) == EXIT_CAPACITY
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("small", ["a", "b"])
def test_metrics_checks_both_headers_before_reading_either_raster(tmp_path, capsys, monkeypatch, small):
    big, tiny = tmp_path / "big.pgm", tmp_path / "tiny.pgm"
    save_pgm(big, synth.smooth_cover((32, 32), seed=1))
    save_pgm(tiny, GrayImage(np.full((7, 7), 100, dtype=np.uint8)))

    def no_raster(*args, **kwargs):
        raise AssertionError("a raster was read before both headers were checked")

    monkeypatch.setattr(cli, "load_pgm", no_raster)
    monkeypatch.setattr(cli.PgmFile, "rows", no_raster)
    a, b = (tiny, big) if small == "a" else (big, tiny)
    assert main(["metrics", "--a", str(a), "--b", str(b)]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.err == f"error: {tiny} is 7x7, under 8x8: images must be at least 8x8\n"
    assert captured.out == ""


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_metrics_opens_each_input_once_so_pipes_work(workspace, capsys):
    """A pipe, such as a shell's ``<(...)``, can be read only once."""
    tmp, _, _ = workspace
    path = tmp / "cover.pgm"
    assert main(["metrics", "--a", str(path), "--b", str(path)]) == EXIT_OK
    expected = capsys.readouterr().out
    pipes = [os.pipe() for _ in range(2)]
    try:
        for _, w in pipes:
            os.write(w, path.read_bytes())  # under a pipe's 64 KiB buffer
            os.close(w)
        argv = ["metrics", "--a", f"/dev/fd/{pipes[0][0]}", "--b", f"/dev/fd/{pipes[1][0]}"]
        assert main(argv) == EXIT_OK
    finally:
        for r, _ in pipes:
            os.close(r)
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "command", ["embed", "extract", "capacity", "metrics", "rs", "pdh", "corpus", "compare"]
)
def test_help_exits_zero_and_lists_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--" in out  # every subcommand documents its flags


def test_unknown_flag_exits_nonzero(workspace, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--bogus", "x"])
    assert exc.value.code != 0


def test_parser_epilog_documents_exit_codes():
    parser = build_parser()
    text = parser.format_help()
    for code in ("3", "4", "5", "6", "7"):
        assert code in text
    # One "  <code>  meaning" line per EXIT_* constant, and no line for a code without one.
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    documented = re.findall(r"^  (\d+)  \S", text.split("exit codes:", 1)[1], re.M)
    assert sorted(map(int, documented)) == codes


class _HalfWriter:
    """A file whose write stops half way with ENOSPC, after the first half
    has reached the disk."""

    def __init__(self, path, mode):
        self.f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _patch_writes(monkeypatch, writer):
    """Open ``image``'s write-mode files, every output, as ``writer``; reads
    (the cover, through ``PgmFile``) go to the real ``open``."""

    def patched_open(path, mode="r", *args, **kwargs):
        return open(path, mode, *args, **kwargs) if "r" in mode else writer(path, mode)

    monkeypatch.setattr(image, "open", patched_open, raising=False)


def _embed_args(tmp, out, *extra):
    return [
        "embed", "--cover", str(tmp / "cover.pgm"), "--payload", str(tmp / "payload.pgm"),
        "--out", str(out), "--mu", "1", *extra,
    ]


@pytest.mark.parametrize("existing", [False, True])
def test_interrupted_write_leaves_no_partial_file(workspace, monkeypatch, existing):
    tmp, _, _ = workspace
    out = tmp / "stego.pgm"
    if existing:
        out.write_bytes(b"old stego bytes")
    before = sorted(p.name for p in tmp.iterdir())
    _patch_writes(monkeypatch, _HalfWriter)
    rc = main(_embed_args(tmp, out, *(["--force"] if existing else [])))
    assert rc == EXIT_IO
    if existing:
        assert out.read_bytes() == b"old stego bytes"
    else:
        assert not out.exists()
    assert sorted(p.name for p in tmp.iterdir()) == before  # no temp file left


@pytest.mark.parametrize("existing", [False, True])
def test_write_failing_on_the_raster_leaves_no_partial_file(workspace, monkeypatch, existing):
    tmp, _, _ = workspace
    out = tmp / "stego.pgm"
    if existing:
        out.write_bytes(b"old stego bytes")
    before = sorted(p.name for p in tmp.iterdir())
    on_disk = []

    class RasterFails(_HalfWriter):
        """Writes the first chunk, the PGM header, to disk; the next write fails."""

        def write(self, data):
            if self.f.tell():
                on_disk.append(os.path.getsize(self.f.name))
                raise OSError(errno.ENOSPC, "No space left on device")
            self.f.write(data)
            self.f.flush()

    _patch_writes(monkeypatch, RasterFails)
    rc = main(_embed_args(tmp, out, *(["--force"] if existing else [])))
    assert rc == EXIT_IO
    assert on_disk == [len(b"P5\n96 96\n255\n")]
    if existing:
        assert out.read_bytes() == b"old stego bytes"
    else:
        assert not out.exists()
    assert sorted(p.name for p in tmp.iterdir()) == before  # no temp file left


@pytest.mark.parametrize("mu", [1, 2, 3, 4])
def test_embed_over_its_own_cover_writes_the_same_stego(workspace, mu):
    tmp, _, _ = workspace
    cover, apart = str(tmp / "cover.pgm"), tmp / "apart.pgm"
    args = ["embed", "--cover", cover, "--payload", str(tmp / "payload.pgm"), "--mu", str(mu)]
    assert main([*args, "--out", str(apart)]) == EXIT_OK
    assert main([*args, "--out", cover, "--force"]) == EXIT_OK
    assert (tmp / "cover.pgm").read_bytes() == apart.read_bytes()


def test_stego_truncated_mid_raster_maps_to_exit_4(workspace, capsys):
    tmp, _, _ = workspace
    stego = tmp / "stego.pgm"
    assert main(_embed_args(tmp, stego)) == EXIT_OK
    data = stego.read_bytes()
    stego.write_bytes(data[: len(data) // 2])
    rc = main(["extract", "--stego", str(stego), "--out", str(tmp / "back.pgm"), "--mu", "1"])
    assert rc == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error: raster holds")
    assert not (tmp / "back.pgm").exists()


def test_stego_truncated_below_its_stream_rows_maps_to_exit_4(workspace, capsys):
    """The stream fills the top 78 of 96 rows; a file cut below them is still refused."""
    tmp, _, _ = workspace
    stego = tmp / "stego.pgm"
    assert main(_embed_args(tmp, stego)) == EXIT_OK
    stego.write_bytes(stego.read_bytes()[: len(b"P5\n96 96\n255\n") + 90 * 96])
    rc = main(["extract", "--stego", str(stego), "--out", str(tmp / "back.pgm"), "--mu", "1"])
    assert rc == EXIT_FORMAT
    assert capsys.readouterr().err == "error: raster holds 8640 bytes, need 9216\n"
    assert not (tmp / "back.pgm").exists()


def test_capacity_of_a_truncated_raster_maps_to_exit_4(tmp_path, capsys):
    data = write_pgm(GrayImage(np.zeros((30, 30), dtype=np.uint8)))
    (tmp_path / "c.pgm").write_bytes(data[:-1])
    assert main(["capacity", "--cover", str(tmp_path / "c.pgm"), "--mu", "1"]) == EXIT_FORMAT
    assert capsys.readouterr().err == "error: raster holds 899 bytes, need 900\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--cover", "{zero}", "--payload", "{payload}", "--out", "{out}"],
        ["embed", "--cover", "{cover}", "--payload", "{zero}", "--out", "{out}"],
        ["extract", "--stego", "{zero}", "--out", "{out}"],
        ["capacity", "--cover", "{zero}"],
        ["metrics", "--a", "{zero}", "--b", "{cover}"],
        ["rs", "--image", "{zero}"],
        ["pdh", "--image", "{zero}"],
        ["compare", "--cover-dir", "{covers}", "--payload", "{payload}", "--csv", "{out}"],
    ],
    ids=["embed-cover", "embed-payload", "extract", "capacity", "metrics", "rs", "pdh", "compare-cover"],
)
def test_large_file_of_zeros_is_refused_in_one_short_line(workspace, capsys, argv):
    """Only the first _MAX_HEADER bytes are scanned for a header, and the bad
    magic is quoted to 8 bytes, however large the file."""
    tmp, _, _ = workspace
    covers = tmp / "covers"
    covers.mkdir()
    zero = covers / "zero.pgm"
    zero.touch()
    os.truncate(zero, 16 << 20)  # sparse: no disk blocks written
    names = {"zero": zero, "cover": tmp / "cover.pgm", "payload": tmp / "payload.pgm",
             "covers": covers, "out": tmp / "out"}
    assert main([arg.format(**names) for arg in argv]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200
    assert not (tmp / "out").exists()


def test_extract_reads_a_header_comment_longer_than_the_first_read(workspace):
    tmp, _, payload = workspace
    stego = tmp / "stego.pgm"
    assert main(_embed_args(tmp, stego)) == EXIT_OK
    data = stego.read_bytes()
    stego.write_bytes(b"P5\n#" + b"c" * (3 * image._HEAD_READ) + data[2:])
    assert load_pgm(stego) == image.read_pgm(data)
    assert main(["extract", "--stego", str(stego), "--out", str(tmp / "back.pgm")]) == EXIT_OK
    assert (tmp / "back.pgm").read_bytes() == write_pgm(payload)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_extract_reads_a_pipe(workspace):
    tmp, _, payload = workspace
    stego = tmp / "stego.pgm"
    assert main(_embed_args(tmp, stego)) == EXIT_OK
    r, w = os.pipe()
    try:
        os.write(w, stego.read_bytes())  # 9 KB, inside the pipe's buffer
        os.close(w)
        assert main(["extract", "--stego", f"/dev/fd/{r}", "--out", str(tmp / "back.pgm")]) == EXIT_OK
    finally:
        os.close(r)
    assert (tmp / "back.pgm").read_bytes() == write_pgm(payload)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "damage, mu, code",
    [(None, 1, EXIT_OK), (None, 2, EXIT_STREAM), ("magic", 1, EXIT_FORMAT), ("cut", 1, EXIT_FORMAT)],
)
def test_extract_and_capacity_close_the_stego_on_every_path(workspace, damage, mu, code):
    tmp, _, _ = workspace
    stego = tmp / "stego.pgm"
    assert main(_embed_args(tmp, stego)) == EXIT_OK
    data = stego.read_bytes()
    if damage == "magic":
        stego.write_bytes(b"P6" + data[2:])
    elif damage == "cut":
        stego.write_bytes(data[:-1])
    before = sorted(os.listdir("/proc/self/fd"))
    argv = ["--stego", str(stego), "--out", str(tmp / "back.pgm"), "--mu", str(mu), "--force"]
    assert main(["extract", *argv]) == code
    assert main(["capacity", "--cover", str(stego)]) == (code if damage else EXIT_OK)
    assert sorted(os.listdir("/proc/self/fd")) == before


@st.composite
def extract_cases(draw):
    """A random PGM raster, half the time a real stego, and the mu to extract it with."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))
    mu = draw(st.integers(1, 4))
    budget = codec.max_payload_bytes(img, codec.StegoParams(mu))
    if budget and draw(st.booleans()):
        rows = draw(st.integers(1, min(budget, 6)))
        cols = draw(st.integers(1, budget // rows))
        payload = GrayImage(rng.integers(0, 256, (rows, cols), dtype=np.uint8))
        img = codec.embed(img, payload, codec.StegoParams(mu))
        mu = draw(st.one_of(st.just(mu), st.integers(1, 4)))
    return img, mu


@settings(max_examples=150, deadline=None)
@given(extract_cases())
def test_cli_extract_matches_library_extract(case):
    """Reading only the stream's rows changes no outcome: the exit code and the
    payload bytes are those of ``codec.extract`` on the whole loaded image."""
    img, mu = case
    with tempfile.TemporaryDirectory() as tmp:
        stego, out = Path(tmp) / "stego.pgm", Path(tmp) / "back.pgm"
        save_pgm(stego, img)
        try:
            expect = write_pgm(codec.extract(load_pgm(stego), codec.StegoParams(mu)))
            expect_code = EXIT_OK
        except codec.CorruptStreamError:
            expect, expect_code = None, EXIT_STREAM
        assert main(["extract", "--stego", str(stego), "--out", str(out), "--mu", str(mu)]) == expect_code
        assert (out.read_bytes() if out.exists() else None) == expect


def test_missing_output_directory_names_the_target(workspace, capsys):
    tmp, _, _ = workspace
    out = tmp / "missing" / "stego.pgm"
    assert main(_embed_args(tmp, out)) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write {out}: no such directory\n"


def test_force_writes_through_a_symlink(workspace):
    tmp, _, _ = workspace
    real, link = tmp / "real.pgm", tmp / "link.pgm"
    real.write_bytes(b"old stego bytes")
    link.symlink_to(real)
    assert main(_embed_args(tmp, link, "--force")) == EXIT_OK
    assert link.is_symlink()
    assert real.read_bytes().startswith(b"P5")


def test_force_free_write_through_a_dangling_symlink_creates_its_target(workspace):
    """A link to a missing file does not count as an existing output: the
    write goes through it and creates the target, as a plain write does."""
    tmp, _, _ = workspace
    umask = os.umask(0)
    os.umask(umask)
    real, link = tmp / "real.pgm", tmp / "link.pgm"
    link.symlink_to(real)
    assert main(_embed_args(tmp, link)) == EXIT_OK
    assert link.is_symlink()
    assert real.read_bytes().startswith(b"P5")
    assert real.stat().st_mode & 0o777 == 0o666 & ~umask
    assert main(_embed_args(tmp, link)) == EXIT_EXISTS  # now it points at a file
    assert sorted(p.name for p in tmp.iterdir()) == ["cover.pgm", "link.pgm", "payload.pgm", "real.pgm"]


def test_written_files_get_plain_write_modes(workspace):
    tmp, _, _ = workspace
    umask = os.umask(0)
    os.umask(umask)
    out = tmp / "stego.pgm"
    assert main(_embed_args(tmp, out)) == EXIT_OK
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    out.chmod(0o600)  # overwriting keeps the existing file's mode
    assert main(_embed_args(tmp, out, "--force")) == EXIT_OK
    assert out.stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_force_never_replaces_what_is_not_a_regular_file(workspace, capsys, kind):
    tmp, _, _ = workspace
    out = tmp / "out"
    if kind == "fifo":
        os.mkfifo(out)
    else:
        out.mkdir()
    before = sorted(p.name for p in tmp.iterdir())
    assert main(_embed_args(tmp, out, "--force")) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write {out}: not a regular file\n"
    assert stat.S_ISFIFO(out.stat().st_mode) if kind == "fifo" else out.is_dir()
    assert sorted(p.name for p in tmp.iterdir()) == before  # no temp file made


@pytest.mark.parametrize("extra", [[], ["--force"]])
def test_embed_to_a_symlink_loop_names_the_output(workspace, capsys, extra):
    tmp, _, _ = workspace
    a, b = tmp / "a", tmp / "b"
    a.symlink_to(b)
    b.symlink_to(a)
    assert main(_embed_args(tmp, a, *extra)) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write {a}: {os.strerror(errno.ELOOP)}\n"


def test_compare_csv_to_a_symlink_loop_names_the_output(workspace, capsys):
    tmp, _, _ = workspace
    covers = tmp / "covers"
    covers.mkdir()
    save_pgm(covers / "c.pgm", synth.smooth_cover((32, 32), seed=1))
    a, b = tmp / "a", tmp / "b"
    a.symlink_to(b)
    b.symlink_to(a)
    rc = main([
        "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"),
        "--rates", "10", "--methods", "lsb1", "--csv", str(a), "--force",
    ])
    assert rc == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write {a}: {os.strerror(errno.ELOOP)}\n"


def test_write_errors_name_the_output_not_the_temp_file(workspace, capsys):
    tmp, _, _ = workspace
    (tmp / "afile").write_bytes(b"")
    out = tmp / "afile" / "x.pgm"
    assert main(_embed_args(tmp, out)) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.ENOTDIR)}\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--rates", "0", "rates must lie in (0, 100]"),
        ("--rates", "150", "rates must lie in (0, 100]"),
        ("--methods", "lsb1,hugo", "unknown method 'hugo'"),
        ("--rates", "10,20,10", "duplicate rate 10.0"),
        ("--rates", "10,10.0", "duplicate rate 10.0"),
        ("--rates", "50, 5e1", "duplicate rate 50.0"),
        ("--methods", "lsb1,lsbm,lsb1", "duplicate method 'lsb1'"),
        ("--methods", "lsbm, lsbm", "duplicate method 'lsbm'"),
        ("--rates", "10,abc", "--rates: cannot parse 'abc'"),
    ],
)
def test_detectability_sweep_rejects_bad_rates_and_methods(
    workspace, capsys, flag, value, message
):
    """`compare`, the detectability sweep, rejects a bad --rates/--methods value with exit 2."""
    tmp, _, _ = workspace
    covers = tmp / "covers"
    covers.mkdir()
    save_pgm(covers / "a.pgm", synth.smooth_cover((32, 32), seed=1))
    rc = main([
        "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"),
        "--csv", str(tmp / "sweep.csv"), flag, value,
    ])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp / "sweep.csv").exists()


def test_compare_checks_flags_before_reading_covers(tmp_path, capsys):
    rc = main([
        "compare", "--cover-dir", str(tmp_path / "missing"), "--payload", str(tmp_path / "p.pgm"),
        "--rates", "0", "--csv", str(tmp_path / "sweep.csv"),
    ])
    assert rc == 2
    assert "rates must lie in (0, 100]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(7, 7), (7, 40), (40, 7)])
def test_compare_rejects_covers_under_quality_window(workspace, capsys, shape):
    tmp, _, _ = workspace
    covers = tmp / "covers"
    covers.mkdir()
    save_pgm(covers / "big.pgm", synth.smooth_cover((32, 32), seed=1))
    save_pgm(covers / "small.pgm", GrayImage(np.full(shape, 100, dtype=np.uint8)))
    rc = main([
        "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"),
        "--methods", "lsb1", "--csv", str(tmp / "sweep.csv"),
    ])
    assert rc == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert str(covers / "small.pgm") in err and "under 8x8" in err
    assert not (tmp / "sweep.csv").exists()


def test_compare_holds_one_cover_at_a_time(workspace, monkeypatch):
    """Each cover is read when its turn comes and dropped before the next one
    is read, and the CSV is that of one sweep over all covers at once."""
    tmp, _, _ = workspace
    covers = tmp / "covers"
    covers.mkdir()
    images = synth.corpus(4, (40, 40), seed=2)
    for i, img in enumerate(images):
        save_pgm(covers / f"c{i}.pgm", img)
    loaded, alive_at_load = [], []

    def tracked_load(path):
        img = load_pgm(path)
        if Path(path).parent == covers:
            alive_at_load.append(sum(ref() is not None for ref in loaded))
            loaded.append(weakref.ref(img))
        return img

    monkeypatch.setattr(cli, "load_pgm", tracked_load)
    rc = main([
        "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"),
        "--rates", "10,50", "--methods", "proposed,lsbmr", "--mu", "2", "--seed", "3",
        "--csv", str(tmp / "sweep.csv"),
    ])
    assert rc == EXIT_OK
    assert alive_at_load == [0, 0, 0, 0]
    named = [(f"c{i}.pgm", img) for i, img in enumerate(images)]
    rows = sweep.run_sweep(named, load_pgm(tmp / "payload.pgm"), ["proposed", "lsbmr"], [10.0, 50.0], mu=2, seed=3)
    assert (tmp / "sweep.csv").read_text() == analysis.emit_csv(rows)


def test_compare_summary_means_match_csv(workspace, capsys):
    tmp, _, _ = workspace
    covers = tmp / "covers"
    covers.mkdir()
    for i, img in enumerate(synth.corpus(3, (40, 40), seed=2)):
        save_pgm(covers / f"c{i}.pgm", img)
    rc = main([
        "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"),
        "--rates", "10,12.5,50", "--methods", "lsbmr,proposed", "--seed", "3",
        "--csv", str(tmp / "sweep.csv"),
    ])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [f"wrote 216 rows to {tmp / 'sweep.csv'}", "", (
        "method      rate     psnr  rs_diff_m  pdh_corr")]
    values = {}
    rows = csv.reader((tmp / "sweep.csv").read_text().splitlines()[1:])
    for image, method, rate, metric, value in rows:
        values.setdefault((method, float(rate), metric), []).append(float(value))
    lines = out[3:]
    assert len(lines) == 2 * 3  # one per (method, rate), sorted
    cells = [(m, r) for m in ("lsbmr", "proposed") for r in (10.0, 12.5, 50.0)]
    for line, (method, rate) in zip(lines, cells):
        name, shown_rate, psnr, rs_diff, pdh = line.split()
        assert (name, float(shown_rate)) == (method, rate)
        assert float(psnr) == pytest.approx(np.mean(values[method, rate, "psnr"]), abs=0.005)
        assert float(rs_diff) == pytest.approx(np.mean(values[method, rate, "rs_diff_m"]), abs=5e-5)
        assert float(pdh) == pytest.approx(np.mean(values[method, rate, "pdh_corr"]), abs=5e-6)


def _corpus_args(out, *extra):
    return ["corpus", "--out-dir", str(out), "--count", "4", "--size", "24", "--seed", "5", *extra]


def test_corpus_writes_synth_covers_and_payload(tmp_path, capsys):
    assert main(_corpus_args(tmp_path / "corpus")) == EXIT_OK
    covers = tmp_path / "corpus" / "covers"
    assert sorted(p.name for p in covers.iterdir()) == [f"cover0{i}.pgm" for i in range(4)]
    for i, img in enumerate(synth.corpus(4, (24, 24), seed=5)):
        assert (covers / f"cover0{i}.pgm").read_bytes() == write_pgm(img)
    payload = np.random.default_rng(6).integers(0, 256, (12, 12), dtype=np.uint8)
    assert (tmp_path / "corpus" / "payload.pgm").read_bytes() == write_pgm(GrayImage(payload))


def test_corpus_refuses_existing_target_and_writes_nothing(tmp_path):
    out = tmp_path / "corpus"
    out.mkdir()
    (out / "payload.pgm").write_bytes(b"old payload")
    assert main(_corpus_args(out)) == EXIT_EXISTS
    assert [p.name for p in out.iterdir()] == ["payload.pgm"]  # no covers/ either
    assert (out / "payload.pgm").read_bytes() == b"old payload"
    assert main(_corpus_args(out, "--force")) == EXIT_OK
    assert (out / "payload.pgm").read_bytes().startswith(b"P5\n12 12\n")
    (out / "covers" / "cover03.pgm").unlink()
    assert main(_corpus_args(out)) == EXIT_EXISTS  # cover00..02 still exist
    assert not (out / "covers" / "cover03.pgm").exists()


@pytest.mark.parametrize("command", ["embed", "extract", "metrics", "rs", "pdh", "corpus", "compare"])
def test_every_writing_command_refuses_an_existing_output(workspace, capsys, command):
    tmp, cover, _ = workspace
    stego, covers = tmp / "stego.pgm", tmp / "covers"
    assert main(_embed_args(tmp, stego)) == EXIT_OK
    covers.mkdir()
    save_pgm(covers / "a.pgm", cover)
    target = tmp / "corpus" / "payload.pgm" if command == "corpus" else tmp / "out"
    target.parent.mkdir(exist_ok=True)
    target.write_bytes(b"old bytes")
    argv = {
        "embed": _embed_args(tmp, target),
        "extract": ["extract", "--stego", str(stego), "--out", str(target)],
        "metrics": ["metrics", "--a", str(tmp / "cover.pgm"), "--b", str(stego), "--csv", str(target)],
        "rs": ["rs", "--image", str(stego), "--csv", str(target)],
        "pdh": ["pdh", "--image", str(stego), "--csv", str(target)],
        "corpus": _corpus_args(target.parent),
        "compare": [
            "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"),
            "--methods", "lsb1", "--rates", "10", "--csv", str(target),
        ],
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_EXISTS
    assert capsys.readouterr().err == f"error: {target} exists; pass --force to overwrite\n"
    assert target.read_bytes() == b"old bytes"
    assert main(argv + ["--force"]) == EXIT_OK
    assert target.read_bytes() != b"old bytes"


def test_out_of_memory_is_one_line_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def corpus(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(cli.synth, "corpus", corpus)
    assert main(_corpus_args(tmp_path / "corpus")) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 298. GiB for an array\n"
    assert list(tmp_path.iterdir()) == []


def test_bare_out_of_memory_has_no_dangling_colon(tmp_path, capsys, monkeypatch):
    def corpus(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli.synth, "corpus", corpus)
    assert main(_corpus_args(tmp_path / "corpus")) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("name", ["a,b.pgm", 'a"b.pgm', "a\nb.pgm", "a\rb.pgm"])
@pytest.mark.parametrize("command", ["compare", "metrics", "rs", "pdh"])
def test_a_csv_unsafe_image_name_is_refused_before_any_input_is_read(
    workspace, capsys, monkeypatch, command, name
):
    tmp, cover, _ = workspace
    covers, out = tmp / "covers", tmp / "out.csv"
    covers.mkdir()
    save_pgm(covers / name, cover)

    def no_input(*args, **kwargs):
        raise AssertionError("an input was read before the image name was refused")

    for attr in ("load_pgm", "PgmFile"):
        monkeypatch.setattr(cli, attr, no_input)
    monkeypatch.setattr(cli.sweep, "run_sweep", no_input)
    image = str(covers / name)
    argv = {
        "compare": ["compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm")],
        "metrics": ["metrics", "--a", str(tmp / "cover.pgm"), "--b", image],
        "rs": ["rs", "--image", image],
        "pdh": ["pdh", "--image", image],
    }[command]
    assert main(argv + ["--csv", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: CSV field {name!r} needs quoting, which this emitter avoids\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "rs", "pdh"])
def test_a_csv_unsafe_image_name_is_fine_without_csv(workspace, capsys, command):
    tmp, cover, _ = workspace
    image = tmp / "a,b.pgm"
    save_pgm(image, cover)
    argv = {
        "metrics": ["metrics", "--a", str(tmp / "cover.pgm"), "--b", str(image)],
        "rs": ["rs", "--image", str(image)],
        "pdh": ["pdh", "--image", str(image)],
    }[command]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_every_mu_flag_offers_the_codec_mu_values():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    mu_choices = {
        name: action.choices
        for name, parser in subparsers.choices.items()
        for action in parser._actions
        if action.dest == "mu"
    }
    assert sorted(mu_choices) == ["capacity", "compare", "embed", "extract"]
    assert all(tuple(choices) == codec.MU_VALUES for choices in mu_choices.values())


@pytest.mark.parametrize(
    "flag, value", [("--size", "7"), ("--size", "1"), ("--count", "0"), ("--count", "-2")]
)
def test_corpus_rejects_too_small_size_or_count(tmp_path, capsys, flag, value):
    args = ["corpus", "--out-dir", str(tmp_path / "corpus"), "--size", "16", flag, value]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: need --count >= 1 and --size >= 8")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["compare", "corpus"])
def test_negative_seed_is_refused_before_any_work(workspace, capsys, monkeypatch, command):
    """numpy refuses a negative seed only when a generator is built: for
    ``compare`` that is the first ``lsbm`` cell, after the covers are read."""
    tmp, cover, _ = workspace
    (tmp / "covers").mkdir()
    save_pgm(tmp / "covers" / "a.pgm", cover)
    before = sorted(tmp.rglob("*"))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --seed was checked")

    for target, attr in ((cli, "load_pgm"), (cli, "PgmFile"), (cli.sweep, "run_sweep"), (cli, "save_chunks")):
        monkeypatch.setattr(target, attr, no_work)
    argv = {
        "compare": ["compare", "--cover-dir", str(tmp / "covers"), "--payload", str(tmp / "payload.pgm"),
                    "--methods", "lsb1,lsbm", "--csv", str(tmp / "sweep.csv")],
        "corpus": ["corpus", "--out-dir", str(tmp / "corpus"), "--size", "16", "--count", "1"],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed: must be >= 0, got -1\n"
    assert sorted(tmp.rglob("*")) == before


def _readme_commands(readme_text):
    """Every `lbpstego ...` line in the README's CLI and Experiments code blocks."""
    commands = []
    for section in ("## CLI", "## Experiments"):
        block = readme_text.split(section, 1)[1].split("```", 2)[1]
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("lbpstego "):
                commands.append(line.replace("[", "").replace("]", ""))
    return commands


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = _readme_commands(readme)
    assert {shlex.split(c)[1] for c in commands} >= {"embed", "extract", "corpus", "compare"}
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])


def test_compare_refuses_an_existing_csv_before_the_sweep(workspace, capsys, monkeypatch):
    tmp, cover, _ = workspace
    covers, out = tmp / "covers", tmp / "sweep.csv"
    covers.mkdir()
    save_pgm(covers / "a.pgm", cover)
    out.write_bytes(b"old rows")

    def run_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the existing --csv was refused")

    monkeypatch.setattr(cli.sweep, "run_sweep", run_sweep)
    rc = main([
        "compare", "--cover-dir", str(covers), "--payload", str(tmp / "payload.pgm"), "--csv", str(out),
    ])
    assert rc == EXIT_EXISTS
    assert capsys.readouterr().err == f"error: {out} exists; pass --force to overwrite\n"
    assert out.read_bytes() == b"old rows"


def test_an_existing_output_is_refused_before_any_input_is_read(workspace, capsys):
    """Exit 7 wins over a missing input: nothing is read for an output that
    will not be written."""
    tmp, _, _ = workspace
    out = tmp / "stego.pgm"
    out.write_bytes(b"old stego bytes")
    (tmp / "cover.pgm").unlink()
    assert main(_embed_args(tmp, out)) == EXIT_EXISTS
    assert capsys.readouterr().err == f"error: {out} exists; pass --force to overwrite\n"
    assert out.read_bytes() == b"old stego bytes"
