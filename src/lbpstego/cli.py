"""Command-line front end: embed, extract, capacity, metrics, rs, pdh, compare."""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from pathlib import Path

from . import analysis, codec, sweep
from .image import PgmError, load_pgm, write_pgm

EXIT_OK = 0
EXIT_USAGE = 2  # argparse's own code for bad flags
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_CAPACITY = 5
EXIT_STREAM = 6
EXIT_EXISTS = 7

_EPILOG = """\
exit codes:
  0  success
  2  bad usage (unknown flag, bad value)
  3  file unreadable or unwritable
  4  malformed or unsupported PGM file
  5  payload exceeds capacity / cover too small
  6  corrupt stego stream (wrong --mu, or not a stego image)
  7  output exists (pass --force to overwrite)
"""


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_file(path: str, data: bytes, force: bool) -> int | None:
    """Write ``data`` beside ``path`` and rename it over ``path``, so a failed
    or interrupted write never leaves a partial file behind."""
    target = Path(path).resolve()  # write through a symlink, as a plain write does
    exists = target.exists()
    if exists and not force:
        return _fail(EXIT_EXISTS, f"{path} exists; pass --force to overwrite")
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        f = open(tmp, "xb")  # a new file gets the mode a plain write gives
    except FileNotFoundError:
        return _fail(EXIT_IO, f"cannot write {path}: no such directory")
    try:
        with f:
            f.write(data)
        if exists:
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return None


def _write_csv(path: str | None, rows, force: bool) -> int | None:
    if path is None:
        return None
    return _write_file(path, analysis.emit_csv(rows).encode("ascii"), force)


def _parse_rates(text: str) -> list[float]:
    rates = [float(tok) for tok in text.split(",") if tok.strip()]
    if not rates or any(not 0.0 < r <= 100.0 for r in rates):
        raise ValueError(f"rates must lie in (0, 100], got {text!r}")
    return rates


def _parse_mask(text: str) -> list[int]:
    if "," in text:
        entries = [int(tok) for tok in text.split(",") if tok.strip()]
    else:
        entries = [int(ch) for ch in text]
    if len(entries) < 2 or any(e not in (-1, 0, 1) for e in entries):
        raise ValueError(f"mask must be >=2 entries from {{-1,0,1}}, got {text!r}")
    return entries


def _parse_methods(text: str) -> list[str]:
    methods = [tok.strip() for tok in text.split(",") if tok.strip()]
    for m in methods:
        if m not in sweep.METHOD_NAMES:
            raise ValueError(f"unknown method {m!r}, expected one of {sweep.METHOD_NAMES}")
    if not methods:
        raise ValueError("no methods given")
    return methods


def cmd_embed(args) -> int:
    cover = load_pgm(args.cover)
    payload = load_pgm(args.payload)
    params = codec.StegoParams(args.mu)
    stego = codec.embed(cover, payload, params)
    err = _write_file(args.out, write_pgm(stego), args.force)
    if err is not None:
        return err
    stream = codec.HEADER_BYTES + payload.width * payload.height
    print(
        f"embedded {payload.width * payload.height} payload bytes "
        f"({stream} stream bytes, {100.0 * stream / codec.capacity(cover, params):.1f}% of capacity)"
    )
    return EXIT_OK


def cmd_extract(args) -> int:
    stego = load_pgm(args.stego)
    payload = codec.extract(stego, codec.StegoParams(args.mu))
    err = _write_file(args.out, write_pgm(payload), args.force)
    if err is not None:
        return err
    print(f"extracted {payload.height}x{payload.width} payload")
    return EXIT_OK


def cmd_capacity(args) -> int:
    cover = load_pgm(args.cover)
    params = codec.StegoParams(args.mu)
    cap = codec.capacity(cover, params)
    bpp = 8.0 * cap / (cover.width * cover.height)
    print(f"{cap} bytes ({bpp:.2f} bpp stream); max payload {codec.max_payload_bytes(cover, params)} bytes")
    return EXIT_OK


def cmd_metrics(args) -> int:
    a = load_pgm(args.a)
    b = load_pgm(args.b)
    psnr_db = analysis.psnr(a, b)
    q = analysis.quality_index(a, b)
    l1 = analysis.histogram_l1(a, b)
    print(f"psnr: {psnr_db:.2f} dB")
    print(f"q_index: {q:.6f}")
    print(f"histogram_l1: {l1:.6f}")
    name = Path(args.b).name
    rows = [
        analysis.MetricRow(name, "pair", "", "psnr", psnr_db),
        analysis.MetricRow(name, "pair", "", "q_index", q),
        analysis.MetricRow(name, "pair", "", "hist_l1", l1),
    ]
    err = _write_csv(args.csv, rows, args.force)
    return EXIT_OK if err is None else err


def cmd_rs(args) -> int:
    img = load_pgm(args.image)
    mask = _parse_mask(args.mask)
    rs = analysis.rs_analysis(img, mask)
    print(f"r_m: {rs.r_m:.6f}")
    print(f"s_m: {rs.s_m:.6f}")
    print(f"r_neg_m: {rs.r_neg_m:.6f}")
    print(f"s_neg_m: {rs.s_neg_m:.6f}")
    print(f"diff_m: {abs(rs.r_m - rs.s_m):.6f}")
    print(f"diff_neg_m: {abs(rs.r_neg_m - rs.s_neg_m):.6f}")
    name = Path(args.image).name
    rows = [
        analysis.MetricRow(name, "rs", "", "rs_r_m", rs.r_m),
        analysis.MetricRow(name, "rs", "", "rs_s_m", rs.s_m),
        analysis.MetricRow(name, "rs", "", "rs_r_neg_m", rs.r_neg_m),
        analysis.MetricRow(name, "rs", "", "rs_s_neg_m", rs.s_neg_m),
    ]
    err = _write_csv(args.csv, rows, args.force)
    return EXIT_OK if err is None else err


def cmd_pdh(args) -> int:
    img = load_pgm(args.image)
    hist = analysis.pd_histogram(img)
    print(f"pairs: {hist.total}")
    peak = int(hist.differences[hist.counts.argmax()])
    print(f"peak difference: {peak} ({int(hist.counts.max())} pairs)")
    name = Path(args.image).name
    rows = [
        analysis.MetricRow(name, "pdh", "", f"pdh_{d}", count)
        for d, count in zip(hist.differences.tolist(), hist.counts.tolist())
    ]
    err = _write_csv(args.csv, rows, args.force)
    return EXIT_OK if err is None else err


def cmd_compare(args) -> int:
    cover_dir = Path(args.cover_dir)
    paths = sorted(cover_dir.glob("*.pgm"))
    if not paths:
        return _fail(EXIT_IO, f"no .pgm covers found in {cover_dir}")
    covers = [(p.name, load_pgm(p)) for p in paths]
    payload = load_pgm(args.payload)
    rows = sweep.run_sweep(
        covers,
        payload,
        methods=_parse_methods(args.methods),
        rates=_parse_rates(args.rates),
        mu=args.mu,
        seed=args.seed,
    )
    err = _write_csv(args.csv, rows, args.force)
    if err is not None:
        return err
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once and shared by every call; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="lbpstego",
        description="Blind LBP-preserving grayscale image steganography and steganalysis",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_force(p):
        p.add_argument("--force", action="store_true", help="overwrite existing output files")

    p = sub.add_parser("embed", help="hide a payload image inside a cover image")
    p.add_argument("--cover", required=True, help="cover PGM file")
    p.add_argument("--payload", required=True, help="payload PGM file")
    p.add_argument("--out", required=True, help="stego PGM to write")
    p.add_argument("--mu", type=int, choices=(1, 2, 3, 4), default=1, help="bits per carrier neighbor")
    add_force(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover the payload from a stego image")
    p.add_argument("--stego", required=True, help="stego PGM file")
    p.add_argument("--out", required=True, help="payload PGM to write")
    p.add_argument("--mu", type=int, choices=(1, 2, 3, 4), default=1, help="bits per carrier neighbor")
    add_force(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("capacity", help="print stream capacity of a cover")
    p.add_argument("--cover", required=True, help="cover PGM file")
    p.add_argument("--mu", type=int, choices=(1, 2, 3, 4), default=1, help="bits per carrier neighbor")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("metrics", help="PSNR / quality index / histogram L1 of an image pair")
    p.add_argument("--a", required=True, help="reference PGM (e.g. cover)")
    p.add_argument("--b", required=True, help="test PGM (e.g. stego)")
    p.add_argument("--csv", help="also write rows to this CSV file")
    add_force(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("rs", help="RS analysis of one image")
    p.add_argument("--image", required=True, help="PGM file to analyze")
    p.add_argument("--mask", default="0110", help="flip mask, e.g. 0110 or 0,-1,-1,0")
    p.add_argument("--csv", help="also write rows to this CSV file")
    add_force(p)
    p.set_defaults(func=cmd_rs)

    p = sub.add_parser("pdh", help="pixel-difference histogram of one image")
    p.add_argument("--image", required=True, help="PGM file to analyze")
    p.add_argument("--csv", help="also write rows to this CSV file")
    add_force(p)
    p.set_defaults(func=cmd_pdh)

    p = sub.add_parser("compare", help="sweep methods x rates over a cover directory")
    p.add_argument("--cover-dir", required=True, help="directory of cover .pgm files")
    p.add_argument("--payload", required=True, help="payload PGM file")
    p.add_argument("--rates", default="10,20,30,40,50", help="percent rates, comma separated")
    p.add_argument(
        "--methods",
        default="proposed,lsb1,lsbm,lsbmr",
        help=f"comma separated subset of {','.join(sweep.METHOD_NAMES)}",
    )
    p.add_argument("--mu", type=int, choices=(1, 2, 3, 4), default=1, help="bits per carrier neighbor")
    p.add_argument("--seed", type=int, default=0, help="seed for the baselines' RNG")
    p.add_argument("--csv", required=True, help="CSV file to write")
    add_force(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(EXIT_IO, f"cannot read {exc.filename}")
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except PgmError as exc:
        return _fail(EXIT_FORMAT, str(exc))
    except (codec.CapacityError, codec.CoverTooSmallError) as exc:
        return _fail(EXIT_CAPACITY, str(exc))
    except codec.CorruptStreamError as exc:
        return _fail(EXIT_STREAM, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
