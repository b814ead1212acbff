"""In-memory span tracer that wraps nmsparse's public functions from outside.

A span is ``[name, start, end, parent]`` where ``parent`` is the index of the
enclosing span (-1 for a root). Wrappers are installed on every module
attribute that holds the original function, so a call is traced wherever its
caller looks the name up (``nmsparse.training.build_masks`` as well as
``nmsparse.masks.build_masks``). Nothing inside ``src/`` is changed.

Training-layer metrics (masks, training, nn, im2col) are per training step
and count only spans inside ``training.fit``; the other layers report a mean
per call. A layer the workload never reaches reports 0.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name); ``Class.method`` attributes wrap methods.
TRACE_POINTS = [
    ("nmsparse.datasets", "build", "datasets.build"),
    ("nmsparse.training", "fit", "training.fit"),
    ("nmsparse.training", "compute_step_masks", "masks.rebuild"),
    ("nmsparse.masks", "build_masks", "masks.build"),
    ("nmsparse.masks", "hard_mask", "masks.hard"),
    ("nmsparse.masks", "hard_mask_top_width", "masks.hard"),
    ("nmsparse.masks", "filter_axis_scores", "masks.filter_scores"),
    ("nmsparse.masks", "kernel_axis_scores", "masks.kernel_scores"),
    ("nmsparse.masks", "soft_mask", "masks.soft"),
    ("nmsparse.training", "masked_forward", "training.forward"),
    ("nmsparse.training", "ste_backward", "training.backward"),
    ("nmsparse.training", "sr_ste_step", "training.update"),
    ("nmsparse.nn", "forward", "nn.forward"),
    ("nmsparse.nn", "backward", "nn.backward"),
    ("nmsparse.im2col", "im2col", "im2col.im2col"),
    ("nmsparse.im2col", "col2im", "im2col.col2im"),
    ("nmsparse.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("nmsparse.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("nmsparse.runner", "fold_checkpoint", "runner.fold"),
    ("nmsparse.archives", "save_folded_archive", "archives.save_folded"),
    ("nmsparse.archives", "load_folded_archive", "archives.load_folded"),
    ("nmsparse.archives", "save_compressed_archive", "archives.save_compressed"),
    ("nmsparse.archives", "load_compressed_archive", "archives.load_compressed"),
    ("nmsparse.sparse_format", "compress", "sparse_format.compress"),
    ("nmsparse.sparse_format", "verify", "sparse_format.verify"),
    ("nmsparse.sparse_format", "spmm", "sparse_format.spmm"),
    ("nmsparse.sparse_format", "conv2d_sparse", "sparse_format.conv2d"),
    ("nmsparse.sparse_format", "CompressedNM.to_bytes", "sparse_format.encode"),
    ("nmsparse.sparse_format", "CompressedNM.from_bytes", "sparse_format.decode"),
]

# Library layers, for the self-time breakdowns in the human report.
LAYERS = ("masks", "training", "nn", "im2col", "sparse_format", "archives", "checkpoint", "runner", "datasets")

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    "masks.rebuild_ms": ("ms", "lower"),
    "masks.rebuild_share": ("ratio", "lower"),
    "masks.hard_ms": ("ms", "lower"),
    "masks.filter_scores_ms": ("ms", "lower"),
    "masks.kernel_scores_ms": ("ms", "lower"),
    "masks.soft_ms": ("ms", "lower"),
    "masks.unchanged_ratio": ("ratio", "lower"),
    "masks.calls": ("count", "lower"),
    "training.step_ms": ("ms", "lower"),
    "training.forward_self_ms": ("ms", "lower"),
    "training.backward_ms": ("ms", "lower"),
    "training.update_ms": ("ms", "lower"),
    "training.steps": ("count", "higher"),
    "nn.forward_ms": ("ms", "lower"),
    "nn.backward_self_ms": ("ms", "lower"),
    "im2col.im2col_ms": ("ms", "lower"),
    "im2col.col2im_ms": ("ms", "lower"),
    "im2col.calls": ("count", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "runner.fold_ms": ("ms", "lower"),
    "sparse_format.compress_ms": ("ms", "lower"),
    "sparse_format.encode_ms": ("ms", "lower"),
    "sparse_format.encode_mb_per_s": ("MB/s", "higher"),
    "sparse_format.verify_ms": ("ms", "lower"),
    "archives.save_compressed_ms": ("ms", "lower"),
    "archives.nmz_bytes": ("bytes", "lower"),
    "sparse_format.decode_ms": ("ms", "lower"),
    "sparse_format.decode_mb_per_s": ("MB/s", "higher"),
    "archives.load_compressed_ms": ("ms", "lower"),
    "sparse_format.spmm_ms": ("ms", "lower"),
    "sparse_format.spmm_gflops": ("GFLOP/s", "higher"),
    "sparse_format.spmm_bytes": ("bytes", "lower"),
    "sparse_format.slot_fill": ("ratio", "higher"),
    "sparse_format.flop_reduction": ("x", "higher"),
    "sparse_format.conv2d_ms": ("ms", "lower"),
    "dense.gemm_ms": ("ms", "lower"),
    "datasets.build_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    """Spans and counts for one benchmark run, kept in memory until the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_bits: dict[str, np.ndarray] = {}
        self._bits_fit = -1

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (jobs and stages); no-op when disabled."""
        if not self.enabled:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def paused(self):
        """Run reference computations without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- installing --------------------------------------------------------
    def install(self) -> None:
        """Wrap every trace point on every nmsparse module that references it."""
        modules = [m for name, m in sys.modules.items() if name == "nmsparse" or name.startswith("nmsparse.")]
        for module_name, attr, span_name in TRACE_POINTS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__))
                else:
                    wrapped = self._wrap(span_name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        self._last_bits.clear()

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# -- hooks: counts measured where the work happens -----------------------------
def _hook_rebuild(tracer: Tracer, args, masks) -> None:
    # only rebuilds inside one training.fit compare with the previous step
    fit = next((i for i in tracer._stack if tracer.spans[i][0] == "training.fit"), None)
    if fit is None:
        return
    if fit != tracer._bits_fit:
        tracer._last_bits.clear()
        tracer._bits_fit = fit
    for name, (hard, _) in masks.items():
        prev = tracer._last_bits.get(name)
        if prev is not None and prev.shape == hard.bits.shape:
            tracer.counts["masks.compared"] += 1
            tracer.counts["masks.unchanged"] += int(np.array_equal(prev, hard.bits))
        tracer._last_bits[name] = hard.bits.copy()


def _hook_spmm(tracer: Tracer, args, out) -> None:
    c, x = args[0], np.asarray(args[1])
    cols = 1 if x.ndim == 1 else x.shape[1]
    rows, inner = c.matrix_shape
    slots = c.g * c.pattern.n
    tracer.counts["spmm.useful_flops"] += 2 * slots * cols
    tracer.counts["spmm.dense_flops"] += 2 * rows * inner * cols
    # f64 values + i64 column indices read, gathered x rows read, output written
    tracer.counts["spmm.bytes"] += slots * 16 + slots * cols * 8 + rows * cols * 8
    tracer.counts["spmm.slots"] += slots
    tracer.counts["spmm.nonzero"] += int(np.count_nonzero(c.values))


def _hook_encode(tracer: Tracer, args, blob) -> None:
    tracer.counts["codec.encoded_bytes"] += len(blob)


def _hook_decode(tracer: Tracer, args, result) -> None:
    tracer.counts["codec.decoded_bytes"] += len(args[-1])  # from_bytes(cls, blob)


def _hook_file_size(key: str):
    def hook(tracer: Tracer, args, result) -> None:
        tracer.counts[key] = os.path.getsize(args[0])

    return hook


_HOOKS = {
    "masks.rebuild": _hook_rebuild,
    "sparse_format.spmm": _hook_spmm,
    "sparse_format.encode": _hook_encode,
    "sparse_format.decode": _hook_decode,
    "checkpoint.save": _hook_file_size("checkpoint.bytes"),
    "archives.save_compressed": _hook_file_size("archives.nmz_bytes"),
}


# -- aggregation ---------------------------------------------------------------
class SpanTable:
    """Durations, self times and the inside-``training.fit`` flag per span."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        self.names = [s[0] for s in spans]
        self.dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
        child = np.zeros(n)
        in_fit = np.zeros(n, dtype=bool)
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.dur[i]
                in_fit[i] = in_fit[parent]
            in_fit[i] = in_fit[i] or name == "training.fit"
        self.self_time = self.dur - child
        self.in_fit = in_fit

    def select(self, name: str, fit_only: bool = False) -> np.ndarray:
        mask = np.array([nm == name for nm in self.names], dtype=bool)
        if fit_only:
            mask &= self.in_fit
        return mask

    def total(self, name: str, fit_only: bool = False, self_only: bool = False) -> float:
        values = self.self_time if self_only else self.dur
        return float(values[self.select(name, fit_only)].sum())

    def count(self, name: str, fit_only: bool = False) -> int:
        return int(self.select(name, fit_only).sum())

    def mean_ms(self, name: str) -> float:
        n = self.count(name)
        return 1e3 * self.total(name) / n if n else 0.0

    def layer_self_times(self, fit_only: bool) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            layer = name.split(".")[0]
            if layer in LAYERS and (self.in_fit[i] or not fit_only):
                out[layer] += float(self.self_time[i])
        return dict(out)


def per_layer_metrics(tracer: Tracer, dense_gemm_s: list[float], overhead_pct: float) -> dict[str, float]:
    """The per_layer metrics of BENCHMARK.json from one run's spans and counts."""
    t = SpanTable(tracer.spans)
    c = tracer.counts
    steps = t.count("training.forward", fit_only=True)
    fit_s = t.total("training.fit")

    def per_step(name: str, self_only: bool = False) -> float:
        return 1e3 * t.total(name, fit_only=True, self_only=self_only) / steps if steps else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    encode_s, decode_s, spmm_s = (t.total(n) for n in ("sparse_format.encode", "sparse_format.decode", "sparse_format.spmm"))
    spmm_calls = t.count("sparse_format.spmm")
    values = {
        "masks.rebuild_ms": per_step("masks.rebuild"),
        "masks.rebuild_share": ratio(t.total("masks.rebuild", fit_only=True), fit_s),
        "masks.hard_ms": per_step("masks.hard"),
        "masks.filter_scores_ms": per_step("masks.filter_scores"),
        "masks.kernel_scores_ms": per_step("masks.kernel_scores"),
        "masks.soft_ms": per_step("masks.soft"),
        "masks.unchanged_ratio": ratio(c["masks.unchanged"], c["masks.compared"]),
        "masks.calls": t.count("masks.build", fit_only=True),
        "training.step_ms": ratio(1e3 * fit_s, steps),
        "training.forward_self_ms": per_step("training.forward", self_only=True),
        "training.backward_ms": per_step("training.backward"),
        "training.update_ms": per_step("training.update"),
        "training.steps": steps,
        "nn.forward_ms": per_step("nn.forward", self_only=True),
        "nn.backward_self_ms": per_step("nn.backward", self_only=True),
        "im2col.im2col_ms": per_step("im2col.im2col"),
        "im2col.col2im_ms": per_step("im2col.col2im"),
        "im2col.calls": t.count("im2col.im2col"),
        "checkpoint.save_ms": t.mean_ms("checkpoint.save"),
        "checkpoint.load_ms": t.mean_ms("checkpoint.load"),
        "checkpoint.bytes": c["checkpoint.bytes"],
        "runner.fold_ms": t.mean_ms("runner.fold"),
        "sparse_format.compress_ms": t.mean_ms("sparse_format.compress"),
        "sparse_format.encode_ms": t.mean_ms("sparse_format.encode"),
        "sparse_format.encode_mb_per_s": ratio(c["codec.encoded_bytes"] / 1e6, encode_s),
        "sparse_format.verify_ms": t.mean_ms("sparse_format.verify"),
        "archives.save_compressed_ms": t.mean_ms("archives.save_compressed"),
        "archives.nmz_bytes": c["archives.nmz_bytes"],
        "sparse_format.decode_ms": t.mean_ms("sparse_format.decode"),
        "sparse_format.decode_mb_per_s": ratio(c["codec.decoded_bytes"] / 1e6, decode_s),
        "archives.load_compressed_ms": t.mean_ms("archives.load_compressed"),
        "sparse_format.spmm_ms": t.mean_ms("sparse_format.spmm"),
        "sparse_format.spmm_gflops": ratio(c["spmm.useful_flops"] / 1e9, spmm_s),
        "sparse_format.spmm_bytes": ratio(c["spmm.bytes"], spmm_calls),
        "sparse_format.slot_fill": ratio(c["spmm.nonzero"], c["spmm.slots"]),
        "sparse_format.flop_reduction": ratio(c["spmm.dense_flops"], c["spmm.useful_flops"]),
        "sparse_format.conv2d_ms": t.mean_ms("sparse_format.conv2d"),
        "dense.gemm_ms": 1e3 * float(np.mean(dense_gemm_s)) if dense_gemm_s else 0.0,
        "datasets.build_ms": t.mean_ms("datasets.build"),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: float(values[name]) for name in PER_LAYER}


def breakdowns(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self-time share per library layer: within training steps, and over whole jobs."""
    t = SpanTable(tracer.spans)
    out = {}
    for key, fit_only in (("step_self_share", True), ("job_self_share", False)):
        times = t.layer_self_times(fit_only)
        total = sum(times.values())
        out[key] = {k: round(v / total, 4) for k, v in sorted(times.items(), key=lambda kv: -kv[1])} if total else {}
    return out
