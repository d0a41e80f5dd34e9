#!/usr/bin/env python3
"""lbpstego benchmark: one client, closed loop, every output checked.

    python3 bench/run.py --workload codec_full --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Steps, each in its own process:

1. ``gen.py`` renders the workload's seeded inputs into ``.bench_work/``;
2. ``worker.py`` runs the workload for ``--seconds`` and records every op;
3. with ``--trace 0``, ``worker.py --setup-only`` processes, half of them
   before step 2 and half after it, time set-up: from process start to the
   end of the fixed 256^2 warm-up round trip.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
traced passes in one process and prints the per-layer metrics, the tracing
overhead and exact counts taken from the input and output files. The last
line of standard output is one JSON object; the lines above it name each
metric with its unit and describe the machine. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("codec_full", "codec_sparse")
SETUP_PROBES = 10
DEADLINE_S = 170.0


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def run(self, argv: list[str], **kwargs) -> subprocess.CompletedProcess:
        """Run a child to completion; past the deadline it is killed and reaped."""
        return subprocess.run(argv, check=True, timeout=max(1.0, self.end - time.monotonic()),
                              **kwargs)


def machine_record(seed: int) -> dict:
    import numpy

    record = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor() or None,
              "python": platform.python_version(), "numpy": numpy.__version__, "seed": seed}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                record[f"l{level}_cache"] = (index / "size").read_text().strip()
    except OSError:
        pass  # the record then lacks what this platform does not expose
    return record


def _worker(deadline: Deadline, env: dict, inputs: Path, *extra: str) -> dict:
    out = deadline.run([sys.executable, str(BENCH / "worker.py"), "--inputs", str(inputs), *extra],
                       env=env, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _setup_probes(deadline: Deadline, env: dict, inputs: Path, n: int) -> list[dict]:
    probes = []
    for _ in range(n):
        spawned = time.monotonic()
        probe = _worker(deadline, env, inputs, "--setup-only")
        probe["setup_s"] = probe["warm_end"] - spawned
        probes.append(probe)
    return probes


def _p50_p90_ms(seconds) -> tuple[float, float]:
    seconds = list(seconds)
    p90 = statistics.quantiles(seconds, n=10, method="inclusive")[-1]
    return 1000.0 * statistics.median(seconds), 1000.0 * p90


def end_to_end(records: list[list], setups: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    """Percentiles and medians over every timed call of the run.

    Across ten seeds, 512^2 round trips taken this way spread a third as much
    as over each distinct op's fastest call, and 1024^2 ones no more: a
    fastest call depends on how many quiet moments on the host a run happens
    to catch.
    """
    timed = [r for r in records if r[1] == "timed"]
    embed, extract, compare = ([r for r in timed if r[0] == kind]
                               for kind in ("embed", "extract", "compare"))
    embed_p50, embed_p90 = _p50_p90_ms(r[2] for r in embed)
    extract_p50, extract_p90 = _p50_p90_ms(r[2] for r in extract)
    metrics = {
        "embed_ms_p50": (embed_p50, "ms"),
        "embed_ms_p90": (embed_p90, "ms"),
        "extract_ms_p50": (extract_p50, "ms"),
        "extract_ms_p90": (extract_p90, "ms"),
        # Each round trip appends its embed record, then its extract record.
        "codec_mpix_per_s": (statistics.median(
            e[4] / 1e6 / (e[2] + x[2]) for e, x in zip(embed, extract)), "Mpix/s"),
        "sweep_cells_per_s": (statistics.median(r[4] / r[2] for r in compare), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    samples = {"round trips": len(embed), "compare calls": len(compare),
               "setup probes": len(setups)}
    return metrics, samples


# Each layer's self time is taken over the ops whose end-to-end figure it
# explains: per round trip over embed/extract calls (embed_ms_*, extract_ms_*,
# codec_mpix_per_s), or per cell over compare calls (sweep_cells_per_s).
ROUND_TRIP_SPANS = ("cli.main", "image.load_pgm", "image.write_pgm", "lbp.lbp_codes",
                    "codec.embed", "codec.extract", "codec.clamp_cover", "codec.sync_neighbor")
CELL_SPANS = ("baselines.lsb", "baselines.lsbm", "baselines.lsbmr", "analysis.quality_index",
              "analysis.rs_analysis", "analysis.pd_histogram", "analysis.psnr",
              "analysis.histogram_l1", "analysis.emit_csv", "sweep.run_sweep",
              "sweep.embed_at_rate", "sweep.metric_rows", "sweep.pdh_correlation")


def per_layer(records: list[list], trace: dict, passes: int, files: dict,
              render_s: float) -> tuple[dict, dict]:
    traced = [r for r in records if r[1] == "traced"]
    untraced = [r for r in records if r[1] == "untraced"]
    round_trips = sum(1 for r in traced if r[0] == "embed")
    cells = sum(r[4] for r in traced if r[0] == "compare")
    self_s, counts = trace["self_s"], trace["counts"]
    traced_s = sum(r[2] for r in traced)

    def per_pass(name: str, unit: str = "count") -> tuple[float, str]:
        return counts.get(name, 0) / passes, unit

    metrics = {f"{name}.self_ms": (1000.0 * self_s["rt"].get(name, 0.0) / round_trips, "ms")
               for name in ROUND_TRIP_SPANS}
    metrics.update({f"{name}.self_ms": (1000.0 * self_s["compare"].get(name, 0.0) / cells, "ms")
                    for name in CELL_SPANS})
    for name in ("image.bytes_read", "image.bytes_written"):
        metrics[name] = per_pass(name, "B")
    for name in ("lbp.codes_computed", "codec.sync_neighbor.calls", "analysis.pd_histogram.calls"):
        metrics[name] = per_pass(name)
    metrics.update({
        "codec.blocks_used": (files["blocks_used"], "count"),
        "codec.carriers_clamped": (files["carriers_clamped"], "count"),
        "codec.carriers_synced": (files["carriers_synced"], "count"),
        "codec.used_block_frac": (files["blocks_used"] / files["grid_blocks"], "frac"),
        "codec.sync_frac": (files["carriers_synced"] / (8 * files["blocks_used"]), "frac"),
        "analysis.pd_histogram.useful_frac": (
            trace["pd_distinct"] / counts["analysis.pd_histogram.calls"], "frac"),
        "sweep.cell_ms_p50": (1000.0 * statistics.median(trace["cell_s"]), "ms"),
        "synth.render_s": (render_s, "s"),
        "trace.overhead_frac": (traced_s / sum(r[2] for r in untraced) - 1.0, "frac"),
        "trace.self_sum_frac": (sum(self_s["all"].values()) / traced_s, "frac"),
    })
    samples = {"traced round trips": round_trips, "traced cells": cells,
               "counts per pass; passes": passes, "sweep cells": len(trace["cell_s"]),
               "share of traced time": {
                   kind: round(sum(self_s[kind].values()) / traced_s, 4)
                   for kind in ("rt", "compare")}}
    return metrics, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "lbpstego" / "cli.py").is_file():
        print(f"error: no lbpstego sources under {SRC}", file=sys.stderr)
        return 2

    deadline = Deadline(DEADLINE_S)
    inputs = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        start = time.perf_counter()
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        deadline.run([sys.executable, str(BENCH / "gen.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--out", str(inputs)], env=env)
        render_s = time.perf_counter() - start

        # Set-up probes on both sides of the timed run see the same drift in
        # machine speed that the run itself sees.
        n_probes = 0 if args.trace else SETUP_PROBES // 2
        probes = _setup_probes(deadline, env, inputs, n_probes)
        result = _worker(deadline, env, inputs, "--seconds", str(args.seconds),
                         "--trace", str(args.trace))
        probes += _setup_probes(deadline, env, inputs, n_probes)
        records = result["records"] + [r for probe in probes for r in probe["records"]]

        ok = True
        if args.trace:
            from counts import pass_counts

            ops = json.loads((inputs / "manifest.json").read_text())["ops"]
            files = pass_counts(inputs, ops)
            ok = files["ok"]
            metrics, samples = per_layer(records, result["trace"], result["passes"], files,
                                         render_s)
            (inputs / "spans.json").replace(WORK / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics, samples = end_to_end(records, [p["setup_s"] for p in probes],
                                          result["peak_rss_kb"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    failed = sum(1 for r in records if not r[3])
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("machine " + json.dumps(machine_record(args.seed)))
    print("samples " + json.dumps(samples))
    print(f"{'failed_frac':34s} {failed / len(records):.6g} ({failed} of {len(records)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
