"""In-memory spans around the public functions of each lbpstego module.

An untraced run never calls :meth:`Tracer.install`, which replaces
each function in the namespace where its caller looks it up, so a function
imported by name (``cli.load_pgm``, ``codec.lbp_codes``) is wrapped in the
importing module. Every span records its name, start, end, parent span and
the id of the op (one ``cli.main`` call) it belongs to; spans stay in memory
until :meth:`Tracer.dump`. A count hook runs after its function's span has
closed, in a ``trace.hook`` span of its own, so its work (such as hashing an
image) is never charged to the caller's self time.
"""

from __future__ import annotations

import functools
import json
import os
import zlib
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


def _pd_key(tracer, args, kwargs, result):
    px = args[0].pixels
    tracer.pd_images.add((tracer.op, px.shape, zlib.crc32(px)))
    tracer.counts["analysis.pd_histogram.calls"] += 1


def _count(key, amount):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, result)

    return hook


# (module, attribute, span name or None to name it from the call, count hook)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_pgm", "image.load_pgm",
     _count("image.bytes_read", lambda a, r: os.path.getsize(a[0]))),
    ("cli", "write_pgm", "image.write_pgm", _count("image.bytes_written", lambda a, r: len(r))),
    ("codec", "embed", "codec.embed", None),
    ("codec", "extract", "codec.extract", None),
    ("codec", "clamp_cover", "codec.clamp_cover", None),
    ("codec", "sync_neighbor", "codec.sync_neighbor",
     _count("codec.sync_neighbor.calls", lambda a, r: 1)),
    ("codec", "lbp_codes", "lbp.lbp_codes", _count("lbp.codes_computed", lambda a, r: len(a[0]))),
    ("baselines", "baseline_embed", None, None),
    ("analysis", "quality_index", "analysis.quality_index", None),
    ("analysis", "rs_analysis", "analysis.rs_analysis", None),
    ("analysis", "pd_histogram", "analysis.pd_histogram", _pd_key),
    ("analysis", "psnr", "analysis.psnr", None),
    ("analysis", "histogram_l1", "analysis.histogram_l1", None),
    ("analysis", "emit_csv", "analysis.emit_csv", None),
    ("sweep", "run_sweep", "sweep.run_sweep", None),
    ("sweep", "embed_at_rate", "sweep.embed_at_rate", None),
    ("sweep", "metric_rows", "sweep.metric_rows", None),
    ("sweep", "pdh_correlation", "sweep.pdh_correlation", None),
)


def _baseline_name(args):
    return f"baselines.{args[2].kind}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.pd_images: set = set()
        self.op = -1
        self.op_kinds: list[str] = []  # indexed by op id
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def begin_op(self, kind: str) -> None:
        self.op += 1
        self.op_kinds.append(kind)

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, hook in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hook))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name or _baseline_name(args), 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hook is not None:
                hook_rec = ["trace.hook", perf_counter(), 0.0, rec[PARENT], self.op]
                hook(self, args, kwargs, result)
                hook_rec[END] = perf_counter()
                spans.append(hook_rec)
            return result

        return traced

    def self_times(self, kind: str | None = None) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its direct children's.

        With ``kind``, only spans of ops of that kind count.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans):
            if kind is None or self.op_kinds[rec[OP]] == kind:
                out[rec[NAME]] += rec[END] - rec[START] - child[i]
        return dict(out)

    def cell_seconds(self) -> list[float]:
        """One sweep cell runs from its embed_at_rate start to its metric_rows end."""
        started: dict[int, float] = {}
        cells = []
        for rec in self.spans:
            if rec[NAME] == "sweep.embed_at_rate":
                started[rec[PARENT]] = rec[START]
            elif rec[NAME] == "sweep.metric_rows":
                cells.append(rec[END] - started.pop(rec[PARENT]))
        return cells

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans,
                       "op_kinds": self.op_kinds}, fh)
