"""In-memory spans around calls into the package's layers.

The package is left untouched: `instrument` swaps each listed public
function, in every loaded `instance_embed` module that holds a reference to
it, for a wrapper that opens a span, calls the original and records the
layer's counters from the arguments and the result. Leaving the context
puts every original back.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    scene: str


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Spans of one pass, kept in memory until `dump`."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.scene = ""
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.scene))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]].name if self._stack else ""

    def self_time_by_name(self) -> Counter:
        out = Counter()
        for s, t in zip(self.spans, self_times(self.spans)):
            out[s.name] += t
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}, fh)


class RssPeak:
    """Peak resident memory above the level at entry, sampled every 2 ms.

    tracemalloc would give exact allocation peaks, but it slows the Python
    loops inside mean shift more than tenfold, so a thread samples
    /proc/self/statm instead.
    """

    PERIOD_S = 0.002

    def __enter__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._stop = threading.Event()
        self.base = self.peak = self._rss()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())
        os.close(self._fd)

    @property
    def rise_bytes(self) -> int:
        return self.peak - self.base

    def _rss(self) -> int:
        os.lseek(self._fd, 0, os.SEEK_SET)
        return int(os.read(self._fd, 128).split()[1]) * os.sysconf("SC_PAGE_SIZE")

    def _sample(self):
        while not self._stop.wait(self.PERIOD_S):
            self.peak = max(self.peak, self._rss())


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


# Layer -> (module, public functions wrapped in spans). `sampling` is left
# out: no pipeline stage calls it. `cluster_field` is unused by the CLI today
# and listed so a CLI that calls it instead of the three steps stays traced.
TRACED = {
    "config": ("instance_embed.config", ["load_run_config"]),
    "scenes": ("instance_embed.scenes", ["gen_scene"]),
    "optimize": ("instance_embed.optimize", ["optimize_embeddings", "normalize_field"]),
    "clustering": ("instance_embed.clustering", [
        "flatten_foreground", "mean_shift_modes", "assign_to_modes", "cluster_field",
    ]),
    "metrics": ("instance_embed.metrics", [
        "pixel_confusion", "seg_iou", "seg_iou_undefined", "pixel_accuracy",
        "detection_empty", "map_50_95", "detection_recall", "instance_map50_labels",
    ]),
    "fileio": ("instance_embed.fileio", [
        "write_pgm", "write_mask", "write_labels", "write_embf", "write_json", "write_boxes",
        "read_pgm", "read_mask", "read_labels", "read_embf", "read_json", "read_boxes",
    ]),
}


class Instrumented:
    """What the wrappers collect beyond spans: fields for the losses probe."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.fields = []  # (labels, final field, loss config) per optimizer call
        self.peak_bytes = 0  # largest RSS rise inside mean_shift_modes

    def after(self, qualname: str, args, result, path_bytes: int) -> None:
        c = self.tracer.counts
        if qualname == "optimize_embeddings":
            labels, _, loss_cfg, opt_cfg = args[:4]
            c["optimize.steps"] += result.steps_taken
            c["optimize.early_stops"] += int(result.steps_taken < opt_cfg.max_steps)
            self.fields.append((labels, result.final, loss_cfg))
        elif qualname == "mean_shift_modes":
            x_points, cfg = args[:2]
            c["clustering.seeds"] += len(range(0, x_points.shape[0], cfg.seed_stride))
            c["clustering.dropped_seeds"] += result.dropped_seeds
            c["clustering.modes"] += result.modes.shape[0]
        elif qualname == "assign_to_modes":
            c["clustering.dissolved_modes"] += args[2].shape[0] - result.num_clusters
        elif qualname.startswith(("write_", "read_")):
            c["fileio." + qualname.split("_")[0] + ".bytes"] += path_bytes

    def wrap(self, layer: str, name: str, fn):
        tracer = self.tracer
        span_name = f"{layer}.{name}"
        is_io = layer == "fileio"
        measure_peak = name == "mean_shift_modes"

        def traced(*args, **kwargs):
            # Nested fileio calls (write_labels -> write_pgm) count bytes once.
            outer_io = is_io and not tracer.parent_name().startswith("fileio.")
            with tracer.span(span_name):
                if measure_peak:
                    with RssPeak() as rss:
                        result = fn(*args, **kwargs)
                    self.peak_bytes = max(self.peak_bytes, rss.rise_bytes)
                else:
                    result = fn(*args, **kwargs)
            size = _file_size(args[0]) if outer_io and args else 0
            self.after(name, args, result, size)
            return result

        traced.__wrapped__ = fn
        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every function in TRACED wherever the package refers to it."""
    inst = Instrumented(tracer)
    loaded = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "instance_embed" or n.startswith("instance_embed."))
    ]
    patched = []  # (module, attribute, original)
    missing = []
    for layer, (mod_name, names) in TRACED.items():
        home = sys.modules.get(mod_name)
        for name in names:
            orig = getattr(home, name, None)
            if orig is None:
                missing.append(f"{mod_name}.{name}")
                continue
            wrapper = inst.wrap(layer, name, orig)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))
    for name in missing:
        print(f"perfbench: {name} not found; its span stays empty", file=sys.stderr)
    try:
        yield inst
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)
