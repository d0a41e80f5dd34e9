#!/usr/bin/env python3
"""Write one workload's seeded inputs as PGM files plus a manifest of one pass.

    python3 bench/gen.py --workload codec_full --seed 1 --out DIR

Runs in its own process, so the memory that rendering takes never shows in
the workload process's peak RSS. Covers come from ``lbpstego.synth`` and
payloads from a numpy RNG, both seeded from ``--seed``; the workload process
sees only the files. ``manifest.json`` lists the ops of one pass in order:
``rt`` is one embed followed by one extract, ``compare`` one sweep call; its
output file names each op. ``warmup`` is one small round trip, the same on
every workload, run untimed before anything else.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from lbpstego import synth
from lbpstego.codec import StegoParams, capacity, max_payload_shape
from lbpstego.image import GrayImage, save_pgm

WORKLOADS = ("codec_full", "codec_sparse")
MUS = (1, 2, 3, 4)
PROBE_METHODS = "proposed,lsb1,lsbm,lsbmr"
PROBE_RATES = "10,30,50"
SPARSE_PERCENT = 2
PAYLOAD_COLS = 256


def _random_payload(rng, shape) -> GrayImage:
    return GrayImage(rng.integers(0, 256, shape, dtype=np.uint8))


def _full_shape(cover: GrayImage, mu: int) -> tuple[int, int]:
    return max_payload_shape(cover, StegoParams(mu))


def _share_shape(percent: int):
    """Payload shape filling about ``percent`` % of the stream capacity, header included."""

    def shape_of(cover: GrayImage, mu: int) -> tuple[int, int]:
        body = capacity(cover, StegoParams(mu)) * percent // 100 - 4
        return body // PAYLOAD_COLS, PAYLOAD_COLS

    return shape_of


def _write_covers(out: Path, sub: str, covers) -> list[str]:
    (out / sub).mkdir()
    names = []
    for i, cover in enumerate(covers):
        name = f"{sub}/c{i}.pgm"
        save_pgm(out / name, cover)
        names.append(name)
    return names


def _rt_ops(out: Path, rng, cover_names, covers, shape_of, mus=MUS, tag="") -> list[dict]:
    """One round trip per (cover, mu), each with its own random payload."""
    (out / "payloads").mkdir(exist_ok=True)
    ops = []
    for i, (name, cover) in enumerate(zip(cover_names, covers)):
        for mu in mus:
            stem = f"c{i}_mu{mu}{tag and '_' + tag}"
            payload = f"payloads/{stem}.pgm"
            save_pgm(out / payload, _random_payload(rng, shape_of(cover, mu)))
            ops.append(
                {"kind": "rt", "cover": name, "payload": payload, "mu": mu,
                 "stego": f"out/{stem}_stego.pgm", "recovered": f"out/{stem}_rec.pgm",
                 "pixels": cover.width * cover.height}
            )
    return ops


def _probe_op(out: Path, rng, seed: int) -> dict:
    """One compare call on a 256^2 cover: 4 methods x 3 rates at mu 1, 12 cells."""
    _write_covers(out, "probe", [synth.smooth_cover((256, 256), seed=seed * 1000 + 999)])
    payload = "probe_payload.pgm"
    # 40 x 180 fills 256^2 at mu 1 and leaves room to crop rows to each rate.
    save_pgm(out / payload, _random_payload(rng, (40, 180)))
    cells = len(PROBE_METHODS.split(",")) * len(PROBE_RATES.split(","))
    return {"kind": "compare", "cover_dir": "probe", "payload": payload,
            "methods": PROBE_METHODS, "rates": PROBE_RATES, "mu": 1, "seed": seed,
            "csv": "out/probe.csv", "cells": cells}


def warmup_op(seed: int, out: Path) -> dict:
    """A 256^2 full-capacity round trip at mu 1: imports and first-call costs only."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    cover = synth.smooth_cover((256, 256), seed=seed * 1000 + 998)
    names = _write_covers(out, "warmup", [cover])
    return _rt_ops(out, rng, names, [cover], _full_shape, (1,), "warmup")[0]


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    side = 1024 if workload == "codec_full" else 2048
    covers = synth.corpus(4, (side, side), seed=seed)
    names = _write_covers(out, "covers", covers)
    shape_of = _full_shape if workload == "codec_full" else _share_shape(SPARSE_PERCENT)
    # The probe keeps sweep_cells_per_s defined, and the analysis layers
    # traced, at a small share of the pass.
    return _rt_ops(out, rng, names, covers, shape_of) + [_probe_op(out, rng, seed)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="empty directory to fill")
    args = parser.parse_args()
    out = Path(args.out)
    (out / "out").mkdir()
    ops = generate(args.workload, args.seed, out)
    manifest = {"workload": args.workload, "warmup": warmup_op(args.seed, out), "ops": ops}
    (out / "manifest.json").write_text(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
