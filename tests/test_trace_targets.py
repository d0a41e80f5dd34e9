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


def test_traced_codec_attributes_each_kernel_layer_per_slab():
    """An embed and an extract over more than one slab run one pattern span,
    and (embed only) one order-sync span, per slab, and count every block
    they code: a kernel refactor cannot drop the per-layer figures to 0."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    cover = synth.smooth_cover((512, 512), seed=5)
    params = codec.StegoParams(1)
    shape = codec.max_payload_shape(cover, params)
    payload = GrayImage(np.random.default_rng(6).integers(0, 256, shape, dtype=np.uint8))
    used = -(-(codec.HEADER_BYTES + payload.height * payload.width) // params.mu)
    header = -(-codec.HEADER_BYTES // params.mu)
    slabs = len(list(codec._slabs(cover.pixels, used)))
    assert slabs >= 2
    tracer.install({"cli": cli, "codec": codec, "baselines": baselines,
                    "analysis": analysis, "sweep": sweep})
    try:
        tracer.begin_op("embed")
        stego = codec.embed(cover, payload, params)
        tracer.begin_op("extract")
        assert codec.extract(stego, params) == payload
    finally:
        tracer.uninstall()
    spans = {kind: Counter(rec[tracing.NAME] for rec in tracer.spans
                           if tracer.op_kinds[rec[tracing.OP]] == kind)
             for kind in ("embed", "extract")}
    assert spans["embed"]["lbp.lbp_codes"] == slabs
    assert spans["embed"]["codec.sync_neighbor"] == slabs
    # extract decodes the header's blocks (one slab), then every used block
    assert spans["extract"]["lbp.lbp_codes"] == 1 + slabs
    assert spans["extract"]["codec.sync_neighbor"] == 0
    assert tracer.counts["codec.sync_neighbor.calls"] == slabs
    assert tracer.counts["lbp.codes_computed"] == used + header + used
