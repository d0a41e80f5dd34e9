"""The benchmark's traced run looks up lbpstego functions by name; a rename
must fail here, not only under ``bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"lbpstego.{module}"), attr))
