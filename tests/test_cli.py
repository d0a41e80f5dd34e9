import csv
import errno
import os

import numpy as np
import pytest

from lbpstego import cli, synth
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
from lbpstego.image import GrayImage, save_pgm


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


def test_bad_rs_mask_is_usage_error(workspace):
    tmp, _, _ = workspace
    assert main(["rs", "--image", str(tmp / "cover.pgm"), "--mask", "0210"]) == 2
    assert main(["rs", "--image", str(tmp / "cover.pgm"), "--mask", "1"]) == 2


@pytest.mark.parametrize(
    "command", ["embed", "extract", "capacity", "metrics", "rs", "pdh", "compare"]
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
    monkeypatch.setattr(cli, "open", _HalfWriter, raising=False)
    rc = main(_embed_args(tmp, out, *(["--force"] if existing else [])))
    assert rc == EXIT_IO
    if existing:
        assert out.read_bytes() == b"old stego bytes"
    else:
        assert not out.exists()
    assert sorted(p.name for p in tmp.iterdir()) == before  # no temp file left


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
