"""The benchmark's traced run looks up lbpstego functions by name; a rename
must fail here, not only under ``bench/run.py --trace 1``."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from lbpstego import analysis, baselines, cli, codec, sweep, synth
from lbpstego.image import GrayImage

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_targets_resolve():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"lbpstego.{module}"), attr))


def test_traced_sweep_attributes_each_metric_per_cell():
    """Every cell's metrics run under their own spans, and each cover's PDH is
    taken once: the per-layer figures cannot drop to 0 after a refactor."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    cover = synth.smooth_cover((64, 64), seed=7)
    payload = GrayImage(np.random.default_rng(8).integers(0, 256, (12, 30), dtype=np.uint8))
    tracer.install({"cli": cli, "codec": codec, "baselines": baselines,
                    "analysis": analysis, "sweep": sweep})
    try:
        tracer.begin_op("compare")
        rows = sweep.run_sweep([("c.pgm", cover)], payload, ["proposed", "lsbm"], [10, 50])
    finally:
        tracer.uninstall()
    cells = 4
    assert len(rows) == cells * 12
    spans = Counter(rec[tracing.NAME] for rec in tracer.spans)
    for name in ("analysis.quality_index", "analysis.histogram_l1", "analysis.rs_analysis",
                 "sweep.metric_rows", "sweep.pdh_correlation"):
        assert spans[name] == cells, name
    assert spans["analysis.pd_histogram"] == 1 + cells
    assert tracer.counts["analysis.pd_histogram.calls"] == 1 + cells
    assert len(tracer.pd_images) == 1 + cells
    assert len(tracer.cell_seconds()) == cells
