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
  5  payload exceeds capacity, or image too small for the codec or a metric
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


def _refuse_outputs(args, image: str) -> None:
    """Refuse an existing ``--csv``, and an ``image`` name no CSV field can hold, before any input is read."""
    _refuse_existing([args.csv], args.force)
    if args.csv is not None:
        analysis.csv_field(Path(image).name)


def _write_metrics(args, image: str, method: str, values: dict) -> None:
    """Write one image's ``values`` as CSV rows to ``--csv``, if given."""
    if args.csv is not None:
        rows = analysis.metric_rows(Path(image).name, method, "", values)
        save_chunks(args.csv, [analysis.emit_csv(rows).encode("ascii")])


def _parse_number(flag: str, tok: str, convert):
    """``convert(tok)``, or a ValueError that names ``flag`` and ``tok``."""
    try:
        return convert(tok)
    except ValueError:
        raise ValueError(f"{flag}: cannot parse {tok!r}") from None


def _check_seed(seed: int) -> None:
    """Refuse a negative ``--seed``, which numpy's generators reject only once they are built."""
    if seed < 0:
        raise ValueError(f"--seed: must be >= 0, got {seed}")


def _parse_list(kind: str, text: str, parse) -> list:
    values = [parse(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"no {kind}s given")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"duplicate {kind} {v!r}; each may be given once")
    return values


def _parse_mask(text: str) -> np.ndarray:
    tokens = [tok for tok in text.split(",") if tok.strip()] if "," in text else list(text)
    return analysis.rs_mask([_parse_number("--mask", tok, int) for tok in tokens])


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
    _refuse_outputs(args, args.b)
    # Both headers are checked before either raster is read, and each file is
    # opened once, so a pipe can be given too.
    with PgmFile(args.a) as pa, PgmFile(args.b) as pb:
        analysis.check_window(pa, args.a)
        analysis.check_window(pb, args.b)
        a = analysis.Reference(GrayImage(pa.rows(pa.height)))  # one band scan and int32 copy for all metrics
        b = GrayImage(pb.rows(pb.height))
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
    _refuse_outputs(args, args.image)
    values = analysis.rs_analysis(load_pgm(args.image), mask)
    for name, value in values.items():
        print(f"{name.removeprefix('rs_')}: {value:.6f}")
    _write_metrics(args, args.image, "rs", values)


def cmd_pdh(args) -> None:
    _refuse_outputs(args, args.image)
    counts = analysis.pd_histogram(load_pgm(args.image))
    peak = int(counts.argmax())
    print(f"pairs: {counts.sum()}")
    print(f"peak difference: {peak - analysis.MAX_DIFF} ({counts[peak]} pairs)")
    values = {f"pdh_{i - analysis.MAX_DIFF}": count for i, count in enumerate(counts.tolist())}
    _write_metrics(args, args.image, "pdh", values)


def cmd_corpus(args) -> None:
    if args.count < 1 or not analysis.fits_window(args.size, args.size):
        raise ValueError(f"need --count >= 1 and --size >= {analysis.Q_WINDOW}")
    _check_seed(args.seed)
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
    methods = _parse_list("method", args.methods, sweep.check_method)
    rates = _parse_list(
        "rate", args.rates, lambda tok: sweep.check_rate(_parse_number("--rates", tok, float))
    )
    _check_seed(args.seed)
    _refuse_existing([args.csv], args.force)
    cover_dir = Path(args.cover_dir)
    paths = sorted(cover_dir.glob("*.pgm"))
    if not paths:
        raise OSError(f"no .pgm covers found in {cover_dir}")
    for p in paths:  # every cover's name and header are checked before any raster is read
        analysis.csv_field(p.name)
        with PgmFile(p) as cover:
            analysis.check_window(cover, p)
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
    p.add_argument("--mu", type=int, choices=codec.MU_VALUES, default=1, help="bits per carrier neighbor")
    add_force(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover the payload from a stego image")
    p.add_argument("--stego", required=True, help="stego PGM file")
    p.add_argument("--out", required=True, help="payload PGM to write")
    p.add_argument("--mu", type=int, choices=codec.MU_VALUES, default=1, help="bits per carrier neighbor")
    add_force(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("capacity", help="print stream capacity of a cover")
    p.add_argument("--cover", required=True, help="cover PGM file")
    p.add_argument("--mu", type=int, choices=codec.MU_VALUES, default=1, help="bits per carrier neighbor")
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
    p.add_argument("--mu", type=int, choices=codec.MU_VALUES, default=1, help="bits per carrier neighbor")
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
        return _fail(EXIT_USAGE, f"out of memory: {exc}" if str(exc) else "out of memory")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
