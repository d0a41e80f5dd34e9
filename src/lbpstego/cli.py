"""Command-line front end: embed, extract, capacity, metrics, rs, pdh, corpus, compare."""

from __future__ import annotations

import argparse
import functools
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import analysis, codec, sweep, synth
from .image import GrayImage, PgmError, PgmFile, load_pgm, load_raster, pgm_chunks, save_chunks, write_pgm

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
  2  bad usage (unknown flag, bad value), or out of memory
  3  file unreadable or unwritable
  4  malformed or unsupported PGM file
  5  payload exceeds capacity / cover too small
  6  corrupt stego stream (wrong --mu, or not a stego image)
  7  output exists (pass --force to overwrite)
"""


class OutputExistsError(Exception):
    """An output file exists and --force is off."""

    def __init__(self, path):
        super().__init__(f"{path} exists; pass --force to overwrite")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _refuse_existing(paths, force: bool) -> None:
    """Raise OutputExistsError if a path in ``paths``, None aside, exists and ``force`` is off."""
    for path in paths:
        if not force and path is not None and Path(path).exists():
            raise OutputExistsError(path)


def _write_metrics(args, image: str, method: str, values: dict) -> None:
    """Write one image's ``values`` as CSV rows to ``--csv``, if given."""
    if args.csv is not None:
        rows = analysis.metric_rows(Path(image).name, method, "", values)
        save_chunks(args.csv, [analysis.emit_csv(rows).encode("ascii")])


def _reject_duplicates(kind: str, values: list) -> None:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"duplicate {kind} {v!r}; each may be given once")


def _parse_rates(text: str) -> list[float]:
    rates = [float(tok) for tok in text.split(",") if tok.strip()]
    if not rates or any(not 0.0 < r <= 100.0 for r in rates):
        raise ValueError(f"rates must lie in (0, 100], got {text!r}")
    _reject_duplicates("rate", rates)
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
    _reject_duplicates("method", methods)
    return methods


def cmd_embed(args) -> None:
    _refuse_existing([args.out], args.force)
    cover = load_raster(args.cover)  # not needed again: the stego is written into it
    payload = load_pgm(args.payload)
    params = codec.StegoParams(args.mu)
    stego = codec.embed(cover, payload, params)
    save_chunks(args.out, pgm_chunks(stego))
    stream = codec.stream_bytes(payload)
    print(
        f"embedded {payload.width * payload.height} payload bytes "
        f"({stream} stream bytes, {100.0 * stream / codec.capacity(stego, params):.1f}% of capacity)"
    )


def cmd_extract(args) -> None:
    _refuse_existing([args.out], args.force)
    with PgmFile(args.stego) as stego:  # extract reads only the rows its stream occupies
        payload = codec.extract(stego, codec.StegoParams(args.mu))
    save_chunks(args.out, [write_pgm(payload)])
    print(f"extracted {payload.height}x{payload.width} payload")


def cmd_capacity(args) -> None:
    with PgmFile(args.cover) as cover:  # reads the header alone
        params = codec.StegoParams(args.mu)
        cap = codec.capacity(cover, params)
        bpp = 8.0 * cap / (cover.width * cover.height)
        print(f"{cap} bytes ({bpp:.2f} bpp stream); max payload {codec.max_payload_bytes(cover, params)} bytes")


def cmd_metrics(args) -> None:
    _refuse_existing([args.csv], args.force)
    a = analysis.Reference(load_pgm(args.a))  # one band scan and int32 copy for all three metrics
    b = load_pgm(args.b)
    values = {
        "psnr": analysis.psnr(a, b),
        "q_index": analysis.quality_index(a, b),
        "hist_l1": analysis.histogram_l1(a, b),
    }
    print(f"psnr: {values['psnr']:.2f} dB")
    print(f"q_index: {values['q_index']:.6f}")
    print(f"histogram_l1: {values['hist_l1']:.6f}")
    _write_metrics(args, args.b, "pair", values)


def cmd_rs(args) -> None:
    mask = _parse_mask(args.mask)
    _refuse_existing([args.csv], args.force)
    values = analysis.rs_analysis(load_pgm(args.image), mask).metrics()
    for name, value in values.items():
        print(f"{name.removeprefix('rs_')}: {value:.6f}")
    _write_metrics(args, args.image, "rs", values)


def cmd_pdh(args) -> None:
    _refuse_existing([args.csv], args.force)
    img = load_pgm(args.image)
    hist = analysis.pd_histogram(img)
    print(f"pairs: {hist.total}")
    peak = int(hist.differences[hist.counts.argmax()])
    print(f"peak difference: {peak} ({int(hist.counts.max())} pairs)")
    counts = zip(hist.differences.tolist(), hist.counts.tolist())
    _write_metrics(args, args.image, "pdh", {f"pdh_{d}": count for d, count in counts})


def cmd_corpus(args) -> None:
    if args.count < 1 or args.size < analysis.Q_WINDOW:
        raise ValueError(f"need --count >= 1 and --size >= {analysis.Q_WINDOW}")
    covers = Path(args.out_dir) / "covers"
    paths = [covers / f"cover{i:02d}.pgm" for i in range(args.count)]
    paths.append(covers.parent / "payload.pgm")
    _refuse_existing(paths, args.force)
    images = synth.corpus(args.count, (args.size, args.size), seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    half = args.size // 2
    images.append(GrayImage(rng.integers(0, 256, (half, half), dtype=np.uint8)))
    covers.mkdir(parents=True, exist_ok=True)
    for path, img in zip(paths, images):
        save_chunks(path, [write_pgm(img)])
    print(f"wrote {args.count} covers to {covers} and {paths[-1]}")


def _print_summary(rows) -> None:
    """Mean PSNR, RS difference and PDH correlation over covers, per (method, rate)."""
    cells = defaultdict(lambda: defaultdict(list))
    for row in rows:
        cells[row.method, row.rate][row.metric].append(float(row.value))
    print(f"{'method':<10} {'rate':>5} {'psnr':>8} {'rs_diff_m':>10} {'pdh_corr':>9}")
    for method, rate in sorted(cells):
        metrics = cells[method, rate]
        print(
            f"{method:<10} {rate:>5g} "
            f"{np.mean(metrics['psnr']):>8.2f} "
            f"{np.mean(metrics['rs_diff_m']):>10.4f} "
            f"{np.mean(metrics['pdh_corr']):>9.5f}"
        )


def cmd_compare(args) -> None:
    methods, rates = _parse_methods(args.methods), _parse_rates(args.rates)
    _refuse_existing([args.csv], args.force)
    cover_dir = Path(args.cover_dir)
    paths = sorted(cover_dir.glob("*.pgm"))
    if not paths:
        raise OSError(f"no .pgm covers found in {cover_dir}")
    for p in paths:  # every cover's header is checked before any raster is read
        with PgmFile(p) as cover:
            if min(cover.height, cover.width) < analysis.Q_WINDOW:
                side = analysis.Q_WINDOW
                raise analysis.ImageTooSmallError(f"{p} is {cover.height}x{cover.width}, under {side}x{side}")
    payload = load_pgm(args.payload)
    rows = []
    for p in paths:  # one cover in memory at a time; ``paths`` is in name order
        rows += sweep.run_sweep([(p.name, load_pgm(p))], payload, methods, rates, mu=args.mu, seed=args.seed)
    save_chunks(args.csv, [analysis.emit_csv(rows).encode("ascii")])
    print(f"wrote {len(rows)} rows to {args.csv}\n")
    _print_summary(rows)


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
    p.add_argument(
        "--mask", default="".join(map(str, analysis.DEFAULT_RS_MASK)), help="flip mask, e.g. 0110 or 0,-1,-1,0"
    )
    p.add_argument("--csv", help="also write rows to this CSV file")
    add_force(p)
    p.set_defaults(func=cmd_rs)

    p = sub.add_parser("pdh", help="pixel-difference histogram of one image")
    p.add_argument("--image", required=True, help="PGM file to analyze")
    p.add_argument("--csv", help="also write rows to this CSV file")
    add_force(p)
    p.set_defaults(func=cmd_pdh)

    p = sub.add_parser("corpus", help="render synthetic covers and a payload for compare")
    p.add_argument(
        "--out-dir", required=True, metavar="DIR", help="writes DIR/covers/coverNN.pgm, DIR/payload.pgm"
    )
    p.add_argument("--count", type=int, default=10, help="covers; every third textured, the rest smooth")
    p.add_argument("--size", type=int, default=512, help="cover side in pixels; the payload is half")
    p.add_argument("--seed", type=int, default=0, help="seed for covers and payload")
    add_force(p)
    p.set_defaults(func=cmd_corpus)

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
        args.func(args)
    except OutputExistsError as exc:
        return _fail(EXIT_EXISTS, str(exc))
    except FileNotFoundError as exc:
        return _fail(EXIT_IO, f"cannot read {exc.filename}")
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except PgmError as exc:
        return _fail(EXIT_FORMAT, str(exc))
    except (codec.CapacityError, codec.CoverTooSmallError, analysis.ImageTooSmallError) as exc:
        return _fail(EXIT_CAPACITY, str(exc))
    except codec.CorruptStreamError as exc:
        return _fail(EXIT_STREAM, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except MemoryError as exc:
        return _fail(EXIT_USAGE, f"out of memory: {exc}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
