#!/usr/bin/env python3
"""Full detectability experiment: sweep methods x rates over a synthetic
corpus and write one CSV of every metric, plus a console summary.

    python scripts/detectability_sweep.py --csv artifacts/sweep.csv

The CSV has one row per (image, method, rate, metric) and feeds directly
into any plotting tool; the summary table collapses it to mean PSNR and the
mean RS difference per (method, rate).
"""

import argparse
from collections import defaultdict
from pathlib import Path

import numpy as np

from lbpstego import synth
from lbpstego.analysis import emit_csv
from lbpstego.cli import _parse_methods, _parse_rates
from lbpstego.image import GrayImage
from lbpstego.sweep import run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv", default="artifacts/sweep.csv", help="output CSV path")
    parser.add_argument("--count", type=int, default=6, help="corpus images")
    parser.add_argument("--size", type=int, default=512)
    parser.add_argument("--mu", type=int, default=1, choices=(1, 2, 3, 4))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rates", default="10,20,30,40,50")
    parser.add_argument("--methods", default="proposed,lsb1,lsbm,lsbmr")
    args = parser.parse_args()

    try:
        rates, methods = _parse_rates(args.rates), _parse_methods(args.methods)
    except ValueError as exc:
        parser.error(str(exc))

    covers = [
        (f"cover{i:02d}", img)
        for i, img in enumerate(synth.corpus(args.count, (args.size, args.size), seed=args.seed))
    ]
    rng = np.random.default_rng(args.seed + 1)
    payload = GrayImage(rng.integers(0, 256, (args.size // 2, args.size // 2), dtype=np.uint8))

    rows = run_sweep(covers, payload, methods, rates, mu=args.mu, seed=args.seed)
    out = Path(args.csv)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(emit_csv(rows))
    print(f"wrote {len(rows)} rows to {out}\n")

    cells = defaultdict(dict)
    for row in rows:
        cells[(row.method, row.rate)].setdefault(row.metric, []).append(float(row.value))
    print(f"{'method':<10} {'rate':>5} {'psnr':>8} {'rs_diff_m':>10} {'pdh_corr':>9}")
    for (method, rate) in sorted(cells):
        metrics = cells[(method, rate)]
        print(
            f"{method:<10} {rate:>5.0f} "
            f"{np.mean(metrics['psnr']):>8.2f} "
            f"{np.mean(metrics['rs_diff_m']):>10.4f} "
            f"{np.mean(metrics['pdh_corr']):>9.5f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
