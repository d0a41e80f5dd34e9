#!/usr/bin/env python3
"""Workload process: one client calling ``lbpstego.cli.main`` in a closed loop.

    PYTHONPATH=src python3 bench/worker.py --inputs DIR --seconds 20 --trace 0
    PYTHONPATH=src python3 bench/worker.py --inputs DIR --setup-only

Imports lbpstego from the one directory on ``PYTHONPATH``, runs the warm-up
round trip of ``DIR/manifest.json`` untimed, then repeats whole passes until
``--seconds`` have passed, timing each ``cli.main`` call in process and
checking every output before the next call. ``--trace 1``
alternates untraced passes with passes under the :mod:`tracing` wrappers.
``--setup-only`` stops after the warm-up. The result is one JSON line on
standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import zlib
from pathlib import Path


def op_key(op: dict) -> str:
    """Ops that write the same file are the same op with the same inputs."""
    return op.get("stego") or op["csv"]


class Client:
    """Runs ops against one input directory and checks what they write."""

    def __init__(self, cli, inputs: Path):
        self.cli = cli
        self.inputs = inputs
        self.sink = io.StringIO()
        self.digests: dict[str, int] = {}
        self.payloads: dict[str, bytes] = {}
        self.records: list[list] = []  # [kind, phase, seconds, ok, pixels or cells, op key]

    def _call(self, argv: list[str]) -> tuple[int, float]:
        with contextlib.redirect_stdout(self.sink):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        self.sink.seek(0)
        self.sink.truncate()
        return code, elapsed

    def _same_as_before(self, path: Path) -> bool:
        """Equal inputs must give byte-identical output on every call."""
        digest = zlib.crc32(path.read_bytes())
        return self.digests.setdefault(str(path), digest) == digest

    def run(self, op: dict, phase: str) -> None:
        if op["kind"] == "rt":
            self._round_trip(op, phase)
        else:
            self._compare(op, phase)

    def _round_trip(self, op: dict, phase: str) -> None:
        stego, recovered = self.inputs / op["stego"], self.inputs / op["recovered"]
        mu = str(op["mu"])
        code, secs = self._call(["embed", "--cover", str(self.inputs / op["cover"]),
                                 "--payload", str(self.inputs / op["payload"]),
                                 "--out", str(stego), "--mu", mu, "--force"])
        ok = code == 0 and self._same_as_before(stego)
        self.records.append(["embed", phase, secs, ok, op["pixels"], op_key(op)])
        code, secs = self._call(["extract", "--stego", str(stego), "--out", str(recovered),
                                 "--mu", mu, "--force"])
        ok = code == 0 and recovered.read_bytes() == self._payload(op["payload"])
        self.records.append(["extract", phase, secs, ok, op["pixels"], op_key(op)])

    def _payload(self, name: str) -> bytes:
        if name not in self.payloads:
            self.payloads[name] = (self.inputs / name).read_bytes()
        return self.payloads[name]

    def _compare(self, op: dict, phase: str) -> None:
        csv = self.inputs / op["csv"]
        code, secs = self._call(["compare", "--cover-dir", str(self.inputs / op["cover_dir"]),
                                 "--payload", str(self.inputs / op["payload"]),
                                 "--methods", op["methods"], "--rates", op["rates"],
                                 "--mu", str(op["mu"]), "--seed", str(op["seed"]),
                                 "--csv", str(csv), "--force"])
        images = sorted(p.name for p in (self.inputs / op["cover_dir"]).glob("*.pgm"))
        ok = code == 0 and _csv_ok(csv.read_text(), op, images) and self._same_as_before(csv)
        self.records.append(["compare", phase, secs, ok, op["cells"], op_key(op)])


def _csv_ok(text: str, op: dict, images: list[str]) -> bool:
    """12 finite metric rows per cell, cells in (image, method, rate) sorted order."""
    lines = text.split("\n")
    if lines[0] != "image,method,rate,metric,value" or lines[-1] != "":
        return False
    rows = [line.split(",") for line in lines[1:-1]]
    cells = [(image, method, rate) for image in images
             for method in sorted(op["methods"].split(","))
             for rate in sorted(float(r) for r in op["rates"].split(","))]
    if len(cells) != op["cells"] or len(rows) != 12 * len(cells):
        return False
    metrics = [row[3] for row in rows[:12]]
    if len(set(metrics)) != 12:
        return False
    for k, row in enumerate(rows):
        image, method, rate = cells[k // 12]
        if len(row) != 5 or (row[0], row[1], row[3]) != (image, method, metrics[k % 12]):
            return False
        try:
            if float(row[2]) != rate or not math.isfinite(float(row[4])):
                return False
        except ValueError:
            return False
    return True


def _one_pass(client: Client, ops: list[dict], phase: str, tracer=None) -> None:
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op["kind"])
        client.run(op, phase)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from lbpstego import analysis, baselines, cli, codec, sweep
    from tracing import Tracer

    src = Path(os.environ.get("PYTHONPATH", "")).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: lbpstego imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    inputs = Path(args.inputs)
    manifest = json.loads((inputs / "manifest.json").read_text())
    ops = manifest["ops"]
    client = Client(cli, inputs)
    client.run(manifest["warmup"], "warm")
    result = {"warm_end": time.monotonic()}
    if not args.setup_only:
        # Each distinct op runs once before anything is timed, so every output
        # file exists and the allocator has grown to the largest op: the first
        # round trips after a compare call are otherwise up to 40 % slower.
        for op in {op_key(op): op for op in ops}.values():
            client.run(op, "warm")
        tracer = Tracer() if args.trace else None
        modules = {"cli": cli, "codec": codec, "baselines": baselines,
                   "analysis": analysis, "sweep": sweep}
        passes, start = 0, time.perf_counter()
        # Whole passes keep the op mix, and so the percentiles, the same in every
        # run. Traced passes alternate with untraced ones, so drift in the
        # machine's speed falls on both sides of the overhead estimate alike.
        while passes == 0 or time.perf_counter() - start < args.seconds:
            _one_pass(client, ops, "untraced" if tracer else "timed")
            if tracer:
                tracer.install(modules)
                try:
                    _one_pass(client, ops, "traced", tracer)
                finally:
                    tracer.uninstall()
            passes += 1
        result["passes"] = passes
        if tracer:
            tracer.dump(inputs / "spans.json")
            result["trace"] = {
                "self_s": {"all": tracer.self_times(), "rt": tracer.self_times("rt"),
                           "compare": tracer.self_times("compare")},
                "counts": dict(tracer.counts),
                "pd_distinct": len(tracer.pd_images),
                "cell_s": tracer.cell_seconds(),
            }
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["records"] = client.records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
