"""Workloads and the job each one repeats: train -> export -> load -> serve.

Every workload runs the same user job through the library's public functions
(the ones the CLI calls), on its own model and data, sized so that a
different layer dominates. Inputs come only from the workload seed. All
load comes from this one process with one caller: the next operation starts
when the previous one has finished (a closed loop).

Each stage counts as one operation per repetition (and each served batch and
conv-probe call as one); an operation fails when it raises or when one of
its correctness gates does not hold.
"""
from __future__ import annotations

import hashlib
import io
import json
import struct
import sys
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

import numpy as np

from nmsparse import archives, checkpoint, datasets, im2col, masks, runner, sparse_format, tensors, training
from nmsparse.config import RunConfig

BASE_CONFIG = Path("configs") / "two_spirals_2of4.json"
SERVE_COLS = 64
REL_TOL = 1e-9
MIN_BATCHES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trainer: dict  # overrides of the base config's trainer section
    schedule: dict  # overrides of the base config's schedule section
    dataset: Optional[dict]  # replaces the base dataset (seeded from the workload seed); None keeps it
    setup_reps: int  # set-up repetitions per run; setup_s is their median
    export_reps: int  # export and load repetitions per job
    serve_batches: int  # closed-loop batches of SERVE_COLS inputs per job
    images: Optional[tuple[int, int]] = None  # (count, side) of generated IDX images
    from_checkpoint: bool = False  # set-up writes a seeded untrained .maxq that training resumes
    conv_probe: Optional[tuple[int, int, int]] = None  # (c_out, c_in, side) of a 2:4 3x3 conv
    conv_calls: int = 0


FULL = {
    w.name: w
    for w in (
        Workload(
            name="train_mlp_wide",
            why="mask-bound: two-spirals MLP at hidden 256, 1,280 steps whose mask rebuild outweighs the matmuls",
            trainer={"hidden": [256, 256]},
            schedule={},
            dataset=None,
            setup_reps=40,
            export_reps=12,
            serve_batches=384,
        ),
        Workload(
            name="train_cnn_idx",
            why="nn/im2col-bound: conv net on 2,048 16x16 IDX images, masks on a 9-row kernel axis",
            trainer={"arch": "cnn", "epochs": 4, "batch_size": 32, "learning_rate": 0.05},
            schedule={"t_f": 3},
            dataset={"kind": "idx", "images": "images.idx", "labels": "labels.idx"},
            setup_reps=20,
            export_reps=15,
            serve_batches=64,
            images=(2048, 16),
        ),
        Workload(
            name="deploy_nmz",
            why="codec/kernel-bound: 1024-wide MLP checkpoint, 4-step fine-tune, export, load, spmm serving, conv probe",
            trainer={"hidden": [1024, 1024, 1024], "epochs": 2, "learning_rate": 0.05},
            schedule={"t_f": 1},
            dataset={"kind": "two_gaussians", "samples": 128, "separation": 6.0},
            setup_reps=3,
            export_reps=1,
            serve_batches=48,
            from_checkpoint=True,
            conv_probe=(128, 64, 32),
            conv_calls=8,
        ),
    )
}

# The same jobs at tiny sizes: every stage and gate in a few seconds.
SMOKE = {
    w.name: w
    for w in (
        Workload(
            name="train_mlp_wide",
            why="smoke",
            trainer={"hidden": [16, 16], "epochs": 3},
            schedule={"t_f": 2},
            dataset={"kind": "two_spirals", "samples": 256, "noise": 0.02},
            setup_reps=2,
            export_reps=2,
            serve_batches=4,
        ),
        Workload(
            name="train_cnn_idx",
            why="smoke",
            trainer={"arch": "cnn", "epochs": 3, "batch_size": 32, "learning_rate": 0.05},
            schedule={"t_f": 2},
            dataset={"kind": "idx", "images": "images.idx", "labels": "labels.idx"},
            setup_reps=2,
            export_reps=2,
            serve_batches=2,
            images=(96, 8),
        ),
        Workload(
            name="deploy_nmz",
            why="smoke",
            trainer={"hidden": [64, 64, 64], "epochs": 2, "learning_rate": 0.05},
            schedule={"t_f": 1},
            dataset={"kind": "two_gaussians", "samples": 128, "separation": 6.0},
            setup_reps=2,
            export_reps=1,
            serve_batches=4,
            from_checkpoint=True,
            conv_probe=(16, 8, 8),
            conv_calls=2,
        ),
    )
}


# -- operations and gates -----------------------------------------------------
class JobAborted(Exception):
    """An operation raised; the rest of its job cannot run."""


@dataclass
class Ledger:
    """Attempted and failed operations, with the reason for every failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, what: str, fn):
        """One operation: ``fn(problems)`` returns a value and appends gate failures."""
        self.attempted += 1
        problems: list[str] = []
        try:
            value = fn(problems)
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            raise JobAborted(what) from exc
        if problems:
            self.failed += 1
            self.errors.extend(f"{what}: {p}" for p in problems)
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return value


def rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.abs(ref).max()) if ref.size else 0.0
    return float(np.abs(got - ref).max()) / max(scale, 1e-300) if ref.size else 0.0


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- set-up ----------------------------------------------------------------------
@dataclass
class Inputs:
    config: RunConfig
    serve_x: np.ndarray  # the workload's dataset, served in batches of SERVE_COLS
    resume_from: Optional[str]
    probe: Optional[tuple[sparse_format.CompressedNM, np.ndarray]]


def write_idx(count: int, side: int, rng: np.random.Generator) -> None:
    """Bright-quadrant images: the label is the quadrant given extra brightness."""
    images = rng.integers(0, 64, size=(count, side, side))
    quadrant = rng.integers(0, 4, size=count)
    half = side // 2
    for i, q in enumerate(quadrant):
        r0, c0 = (q // 2) * half, (q % 2) * half
        images[i, r0 : r0 + half, c0 : c0 + half] += 160
    Path("images.idx").write_bytes(
        struct.pack(">IIII", datasets.IDX_IMAGES_MAGIC, count, side, side) + images.astype(np.uint8).tobytes()
    )
    Path("labels.idx").write_bytes(
        struct.pack(">II", datasets.IDX_LABELS_MAGIC, count) + quadrant.astype(np.uint8).tobytes()
    )


def setup(w: Workload, base_doc: dict, seed: int) -> Inputs:
    """Generate every input of the workload from its seed, in the current directory."""
    doc = json.loads(json.dumps(base_doc))
    doc["trainer"].update(w.trainer)
    doc["schedule"].update(w.schedule)
    if w.dataset is not None:
        doc["dataset"] = dict(w.dataset)
    if doc["dataset"]["kind"] != "idx":
        doc["dataset"]["seed"] = seed
    doc["seed"] = seed
    doc["out_dir"] = "train"
    if w.images is not None:
        write_idx(*w.images, np.random.default_rng([seed, 1]))
    config = RunConfig.from_dict(doc)
    Path("config.json").write_text(config.to_json())
    data = datasets.build(config.dataset)
    resume_from = None
    if w.from_checkpoint:
        model = runner.build_model(config, data)
        resume_from = "untrained.maxq"
        checkpoint.save_checkpoint(
            resume_from,
            checkpoint.Checkpoint(config, 0, 0, model, training.Velocity.zeros_like(model), ""),
        )
    probe = None
    if w.conv_probe is not None:
        c_out, c_in, side = w.conv_probe
        rng = np.random.default_rng([seed, 2])
        weight = tensors.WeightTensor4(rng.uniform(-1.0, 1.0, size=(c_out, c_in, 3, 3)))
        hard = masks.hard_mask(tensors.rearrange_to_blocks(weight, config.pattern.m), config.pattern, 1.0)
        pruned = weight.values * tensors.block_layout_inverse(hard.bits, weight.dims)
        probe = (
            sparse_format.compress(tensors.WeightTensor4(pruned), config.pattern),
            rng.uniform(-1.0, 1.0, size=(c_in, side, side)),
        )
    return Inputs(config, data.X, resume_from, probe)


# -- serving -----------------------------------------------------------------------
@dataclass
class ServedLayer:
    kind: str
    stride: int
    padding: int
    dims: tuple[int, int, int, int]
    bias: np.ndarray
    weight: np.ndarray  # dense (c_out, c_in*k_h*k_w) f64 matrix; for sparse layers the decompressed reference
    sparse: Optional[sparse_format.CompressedNM]


def load_served(path: str) -> tuple[list[ServedLayer], list]:
    """The archive's layers ready to serve, and the loader's raw entries."""
    entries = archives.load_compressed_archive(path)
    with zipfile.ZipFile(path) as zf:  # the archive loader does not return biases
        biases = [np.load(io.BytesIO(zf.read(e["bias_file"]))).astype(np.float64) for e, _ in entries]
    layers = []
    for (entry, payload), bias in zip(entries, biases):
        dims = tuple(entry["dims"])
        sparse = payload if isinstance(payload, sparse_format.CompressedNM) else None
        dense = None if sparse else payload.astype(np.float64).reshape(dims[0], -1)
        layers.append(ServedLayer(entry["kind"], entry["stride"], entry["padding"], dims, bias, dense, sparse))
    return layers, entries


def forward(layers: list[ServedLayer], x: np.ndarray, reference: bool = False, gemm_s: Optional[list] = None) -> np.ndarray:
    """Logits of the served model; ``reference`` swaps every sparse kernel for a dense GEMM."""
    h = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        use_kernel = layer.sparse is not None and not reference
        if layer.kind == "linear":
            h = h.reshape(h.shape[0], -1)
            if use_kernel:
                out = sparse_format.spmm(layer.sparse, np.ascontiguousarray(h.T)).T
            else:
                t0 = time.perf_counter()
                out = h @ layer.weight.T
                if gemm_s is not None and layer.sparse is not None:
                    gemm_s.append(time.perf_counter() - t0)
            out = out + layer.bias
        else:
            c_out, _, k_h, k_w = layer.dims
            if use_kernel:
                out = np.stack([sparse_format.conv2d_sparse(layer.sparse, img, layer.stride, layer.padding) for img in h])
            else:
                cols, (oh, ow) = im2col.im2col(h, k_h, k_w, layer.stride, layer.padding)
                t0 = time.perf_counter()
                out = np.matmul(layer.weight, cols).reshape(h.shape[0], c_out, oh, ow)
                if gemm_s is not None and layer.sparse is not None:
                    gemm_s.append(time.perf_counter() - t0)
            out = out + layer.bias[None, :, None, None]
        h = np.maximum(out, 0.0) if i < last else out
    return h


# -- the job -------------------------------------------------------------------------
@dataclass
class Samples:
    """Per-run measurements, pooled over the run's jobs."""

    setup_s: list[float] = field(default_factory=list)
    train_rate: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    export_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    conv_s: list[float] = field(default_factory=list)
    gemm_s: list[float] = field(default_factory=list)
    job_s: list[tuple[bool, float]] = field(default_factory=list)  # (traced, wall)
    digests: list[dict] = field(default_factory=list)


def run_job(w: Workload, inputs: Inputs, tracer, ledger: Ledger, samples: Samples) -> None:
    config = inputs.config
    pattern = config.pattern

    def train(problems):
        with tracer.span("stage.train"):
            t0 = time.perf_counter()
            result, out_dir = runner.run_training(config, resume_from=inputs.resume_from)
            elapsed = time.perf_counter() - t0
        final = result.metrics[-1]
        if final["delta"] != 1.0:
            problems.append(f"final delta {final['delta']} != 1.0")
        for layer in result.model.layers:
            if layer.eligible and final[f"sparsity_{layer.name}"] != 0.5:
                problems.append(f"sparsity_{layer.name} = {final[f'sparsity_{layer.name}']} != 0.5")
        digests = {name: digest(out_dir / name) for name in ("metrics.csv", "checkpoint.maxq")}
        if samples.digests and digests != samples.digests[0]:
            problems.append(f"artifacts differ from this run's first training: {digests}")
        samples.digests.append(digests)
        samples.train_rate.append(len(inputs.serve_x) * config.trainer.epochs / elapsed)
        samples.accuracy.append(final["accuracy"])
        return out_dir / "checkpoint.maxq"

    def export(problems):
        with tracer.span("stage.export"):
            t0 = time.perf_counter()
            ckpt = checkpoint.load_checkpoint(ckpt_path)
            archives.save_folded_archive("folded.npz", runner.fold_checkpoint(ckpt))
            folded = archives.load_folded_archive("folded.npz")
            reports = [sparse_format.verify(l.weight, pattern) for l in folded.layers if l.eligible]
            archives.save_compressed_archive("model.nmz", folded, pattern)
            samples.export_s.append(time.perf_counter() - t0)
        if not reports:
            problems.append("no eligible layer to verify")
        bad = sum(r.violating_blocks for r in reports)
        if bad:
            problems.append(f"verify reports {bad} violating blocks")
        return folded

    def load(problems):
        with tracer.span("stage.load"):
            t0 = time.perf_counter()
            layers, entries = load_served("model.nmz")
            samples.load_s.append(time.perf_counter() - t0)
        if len(entries) != len(folded.layers):
            problems.append(f"archive holds {len(entries)} layers, {len(folded.layers)} were folded")
        with tracer.paused():
            for (entry, payload), l in zip(entries, folded.layers):
                if entry["name"] != l.name:
                    problems.append(f"archive layer {entry['name']} where {l.name} was folded")
                elif l.eligible:
                    expect = sparse_format.compress(l.weight, pattern)
                    if not (
                        isinstance(payload, sparse_format.CompressedNM)
                        and np.array_equal(payload.values, expect.values)
                        and np.array_equal(payload.indices, expect.indices)
                        and payload.origin_dims == expect.origin_dims
                    ):
                        problems.append(f"{l.name}: compressed tensor did not round-trip exactly")
                elif not np.array_equal(payload, l.weight.values.astype(np.float32)):
                    problems.append(f"{l.name}: dense layer did not round-trip exactly")
            for layer in layers:
                if layer.sparse is not None:
                    layer.weight = sparse_format.decompress(layer.sparse).values.reshape(layer.dims[0], -1)
        return layers

    def serve_batch(problems):
        t0 = time.perf_counter()
        logits = forward(served, xb)
        samples.batch_s.append(time.perf_counter() - t0)
        with tracer.paused():
            ref = forward(served, xb, reference=True, gemm_s=samples.gemm_s)
        err = rel_err(logits, ref)
        if not err <= REL_TOL:
            problems.append(f"served logits differ from the dense reference by {err:.3e} relative")

    def conv_call(problems):
        c, inp = inputs.probe
        t0 = time.perf_counter()
        out = sparse_format.conv2d_sparse(c, inp, 1, 1)
        samples.conv_s.append(time.perf_counter() - t0)
        with tracer.paused():
            cols, _ = im2col.im2col(inp[None], 3, 3, 1, 1)
            dense = sparse_format.decompress(c).values.reshape(c.matrix_shape[0], -1)
            ref = (dense @ cols[0]).reshape(out.shape)
        err = rel_err(out, ref)
        if not err <= REL_TOL:
            problems.append(f"conv2d_sparse differs from dense im2col GEMM by {err:.3e} relative")

    with tracer.span("job"):
        ckpt_path = ledger.run("train", train)
        for _ in range(w.export_reps):
            folded = ledger.run("export", export)
            served = ledger.run("load", load)
        n = len(inputs.serve_x)
        with tracer.span("stage.serve"):
            for b in range(w.serve_batches):
                xb = inputs.serve_x[(b * SERVE_COLS + np.arange(SERVE_COLS)) % n]
                ledger.run("serve", serve_batch)
        if inputs.probe is not None:
            with tracer.span("stage.conv"):
                for _ in range(w.conv_calls):
                    ledger.run("conv", conv_call)


def measure(w: Workload, inputs: Inputs, seconds: float, tracer, traced: bool, ledger: Ledger, samples: Samples) -> None:
    """Repeat the job while another would end nearer to ``seconds`` than stopping now.

    A run has at least two jobs (for the byte-reproducibility gate) and, while
    nothing has failed, MIN_BATCHES served batches, so that ten samples lie
    beyond p90. Traced runs alternate untraced and traced jobs; the tracing overhead is
    the difference between the two.
    """
    start = time.perf_counter()
    while True:
        trace_this = traced and len(samples.job_s) % 2 == 1
        if trace_this:
            tracer.install()
        t0 = time.perf_counter()
        try:
            run_job(w, inputs, tracer, ledger, samples)
        except JobAborted:
            pass
        finally:
            if trace_this:
                tracer.uninstall()
        samples.job_s.append((trace_this, time.perf_counter() - t0))
        elapsed = time.perf_counter() - start
        short = len(samples.batch_s) < MIN_BATCHES and seconds > 0 and ledger.failed == 0
        enough = len(samples.job_s) >= 2 and not short
        if enough and elapsed + 0.5 * median(s for _, s in samples.job_s) > seconds:
            return
