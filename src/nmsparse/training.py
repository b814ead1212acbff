"""Sparse training loop: per-minibatch mask recomputation, straight-through
gradients, and the sparse-refined update.

Each minibatch rebuilds every eligible layer's hard and soft mask from the
current weights and runs the forward pass on the effective weights
soft_mask * weights. The backward pass computes the gradient at the
effective weights and applies it to the dense weights unchanged (straight
through). The update then decays kept coordinates with the standard weight
decay and pruned coordinates with the sparse-refined coefficient (default
2x weight decay), interpolated by clip(soft, 0, 1):

    update = grad + [wd * clip(s) + sr * (1 - clip(s))] * w

Kept soft values lie in [1, 3] and pruned ones are 0, so clip(soft, 0, 1) is
exactly the hard mask and the coefficient is wd on kept and sr on pruned
coordinates.

Heavyweight momentum is applied to the assembled update. Epoch shuffles
derive from (seed, epoch), so resuming from a checkpoint replays the exact
remainder of a run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import nn
from .errors import DivergenceError, FieldError
from .masks import HardMask, SparsePattern, build_masks, fold
from .schedule import Schedule, delta as schedule_delta
from .tensors import WeightTensor4, block_layout_inverse


@dataclass(frozen=True)
class Hyperparameters:
    """The optimizer settings, shared by a run config's ``trainer`` section and ``TrainConfig``."""

    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.1
    lr_schedule: str = "cosine"  # "constant" | "cosine"
    momentum: float = 0.9
    weight_decay: float = 1e-4
    sr_ste_weight: Optional[float] = None  # None -> 2 * weight_decay

    def __post_init__(self):
        if self.epochs < 1:
            raise FieldError("epochs", "need at least one epoch")
        if self.batch_size < 1:
            raise FieldError("batch_size", "batch size must be positive")
        if not self.learning_rate > 0:
            raise FieldError("learning_rate", "learning rate must be positive")
        if self.lr_schedule not in ("constant", "cosine"):
            raise FieldError("lr_schedule", f"unknown lr schedule {self.lr_schedule!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise FieldError("momentum", "momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise FieldError("weight_decay", "weight decay must be nonnegative")
        if self.sr_ste_weight is not None and self.sr_ste_weight < 0:
            raise FieldError("sr_ste_weight", "sparse-refined weight must be nonnegative")


@dataclass(frozen=True)
class TrainConfig(Hyperparameters):
    pattern: Optional[SparsePattern] = None
    schedule: Optional[Schedule] = None
    tau: float = 0.1
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not self.tau > 0:
            raise FieldError("tau", "temperature must be positive")
        if self.pattern is not None and self.schedule is None:
            raise FieldError("schedule", "a sparse pattern needs a schedule")

    @property
    def sr_weight(self) -> float:
        return self.sr_ste_weight if self.sr_ste_weight is not None else 2.0 * self.weight_decay


@dataclass(eq=False)
class Velocity:
    w: list[np.ndarray]
    b: list[np.ndarray]

    @classmethod
    def zeros_like(cls, model: nn.Model) -> "Velocity":
        return cls(
            [np.zeros_like(l.weight) for l in model.layers],
            [np.zeros_like(l.bias) for l in model.layers],
        )


@dataclass(eq=False)
class FitResult:
    model: nn.Model
    metrics: list[dict]
    velocity: Velocity
    iteration: int


def lr_at(config: TrainConfig, epoch: int) -> float:
    if config.lr_schedule == "constant":
        return config.learning_rate
    return 0.5 * config.learning_rate * (1.0 + math.cos(math.pi * epoch / config.epochs))


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1, epoch])


def init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0])


def compute_step_masks(
    model: nn.Model, config: TrainConfig, delta: float
) -> dict[str, tuple[HardMask, np.ndarray]]:
    """Rebuild hard and soft masks for every eligible layer from current weights."""
    if config.pattern is None:
        return {}
    sched = config.schedule
    masks = {}
    for layer in model.layers:
        if not layer.eligible:
            continue
        masks[layer.name] = build_masks(
            WeightTensor4(layer.weight),
            config.pattern,
            config.tau,
            delta,
            ordering=sched.ordering,
            mode=sched.mode,
        )
    return masks


def effective_weights(
    model: nn.Model, masks: dict[str, tuple[HardMask, np.ndarray]], pattern: Optional[SparsePattern]
) -> list[np.ndarray]:
    """Soft-masked weights for eligible layers, raw weights elsewhere.

    The soft mask's shape fixes the block width, so ``pattern`` is not read.
    """
    return [
        fold(layer.weight, masks[layer.name][1]) if layer.name in masks else layer.weight
        for layer in model.layers
    ]


@dataclass(eq=False)
class ForwardCache:
    logits: np.ndarray
    layer_caches: list[dict]
    weights: list[np.ndarray]
    dlogits: np.ndarray


def masked_forward(
    model: nn.Model,
    masks: dict[str, tuple[HardMask, np.ndarray]],
    config: TrainConfig,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[float, ForwardCache]:
    """Forward pass on the effective weights; returns mean loss and a backward cache."""
    weights = effective_weights(model, masks, config.pattern)
    logits, layer_caches = nn.forward(model, weights, x)
    loss, dlogits = nn.softmax_cross_entropy(logits, y)
    return loss, ForwardCache(logits, layer_caches, weights, dlogits)


def ste_backward(model: nn.Model, cache: ForwardCache) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradient at the effective weights, assigned to the dense weights unchanged."""
    return nn.backward(model, cache.weights, cache.layer_caches, cache.dlogits)


def sr_ste_step(
    model: nn.Model,
    grads: tuple[list[np.ndarray], list[np.ndarray]],
    masks: dict[str, tuple[HardMask, np.ndarray]],
    config: TrainConfig,
    lr: float,
    velocity: Velocity,
) -> None:
    """One in-place SGD step with momentum and mask-gated decay.

    Updates the weights, the biases and the ``velocity.w`` arrays in place;
    the gradients are only read. Each weight array costs one temporary.
    """
    grads_w, grads_b = grads
    sr = float(config.sr_weight)  # a float gate, so the products below can be taken in place
    wd = float(config.weight_decay)
    for i, layer in enumerate(model.layers):
        if layer.name in masks:
            hard, _ = masks[layer.name]
            update = np.where(block_layout_inverse(hard.bits, layer.weight.shape), wd, sr)
            update *= layer.weight
        else:
            update = layer.weight * wd
        update += grads_w[i]
        velocity.w[i] *= config.momentum
        velocity.w[i] += update
        np.multiply(velocity.w[i], lr, out=update)
        layer.weight -= update
        velocity.b[i] = config.momentum * velocity.b[i] + grads_b[i]
        layer.bias -= lr * velocity.b[i]


def fit(
    model: nn.Model,
    dataset,
    config: TrainConfig,
    start_epoch: int = 0,
    stop_epoch: Optional[int] = None,
    velocity: Optional[Velocity] = None,
    metrics: Optional[list[dict]] = None,
    iteration: int = 0,
    log: Optional[Callable[[dict], None]] = None,
) -> FitResult:
    """Run the training loop from ``start_epoch`` up to ``stop_epoch`` (exclusive,
    default the configured total). The lr schedule stays anchored to the
    configured total, so stopping early and resuming replays the same run.

    Every epoch evaluates the schedule once, then every minibatch rebuilds
    masks, runs masked forward/backward, and applies the sparse-refined
    update. Raises DivergenceError on a non-finite loss.
    """
    model.mark_eligibility(config.pattern)
    velocity = velocity if velocity is not None else Velocity.zeros_like(model)
    history = list(metrics) if metrics else []
    x_all, y_all = dataset.X, dataset.y
    n = len(y_all)
    masks: dict[str, tuple[HardMask, np.ndarray]] = {}
    stop = config.epochs if stop_epoch is None else min(stop_epoch, config.epochs)
    for epoch in range(start_epoch, stop):
        d = schedule_delta(epoch, config.schedule) if config.pattern is not None else 0.0
        lr = lr_at(config, epoch)
        order = _epoch_rng(config.seed, epoch).permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            xb, yb = x_all[batch_idx], y_all[batch_idx]
            if not all(np.isfinite(l.weight).all() for l in model.layers):
                raise DivergenceError(epoch, iteration)
            masks = compute_step_masks(model, config, d)
            loss, cache = masked_forward(model, masks, config, xb, yb)
            if not math.isfinite(loss):
                raise DivergenceError(epoch, iteration)
            grads = ste_backward(model, cache)
            sr_ste_step(model, grads, masks, config, lr, velocity)
            loss_sum += loss * len(yb)
            correct += int((nn.predict(cache.logits) == yb).sum())
            iteration += 1
        row = {
            "epoch": epoch,
            "delta": d,
            "lr": lr,
            "loss": loss_sum / n,
            "accuracy": correct / n,
        }
        for layer in model.layers:
            if layer.name in masks:
                hard, _ = masks[layer.name]
                sparsity = float((hard.bits == 0).mean())
            else:
                sparsity = 0.0
            row[f"sparsity_{layer.name}"] = sparsity
        history.append(row)
        if log is not None:
            log(row)
    return FitResult(model, history, velocity, iteration)


def final_masks(model: nn.Model, config: TrainConfig, epoch: Optional[int] = None):
    """Masks recomputed from the current weights at the last trained epoch."""
    if config.pattern is None:
        return {}
    at = (config.epochs - 1) if epoch is None else epoch
    d = schedule_delta(at, config.schedule)
    return compute_step_masks(model, config, d)


def export_folded(
    model: nn.Model, masks: dict[str, tuple[HardMask, np.ndarray]]
) -> dict[str, WeightTensor4]:
    """Folded (soft-masked) weights per eligible layer; dense layers verbatim."""
    return {
        layer.name: WeightTensor4(
            fold(layer.weight, masks[layer.name][1]) if layer.name in masks else layer.weight.copy()
        )
        for layer in model.layers
    }


def evaluate(
    model: nn.Model,
    masks: dict[str, tuple[HardMask, np.ndarray]],
    config: TrainConfig,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 512,
) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset with fixed masks."""
    weights = effective_weights(model, masks, config.pattern)
    loss_sum = 0.0
    correct = 0
    for start in range(0, len(y), batch_size):
        xb, yb = x[start : start + batch_size], y[start : start + batch_size]
        logits, _ = nn.forward(model, weights, xb)
        loss, _ = nn.softmax_cross_entropy(logits, yb)
        loss_sum += loss * len(yb)
        correct += int((nn.predict(logits) == yb).sum())
    return loss_sum / len(y), correct / len(y)


METRIC_BASE_COLUMNS = ("epoch", "delta", "lr", "loss", "accuracy")


def metrics_columns(rows: list[dict]) -> list[str]:
    cols = list(METRIC_BASE_COLUMNS)
    if rows:
        cols += [k for k in rows[0] if k not in METRIC_BASE_COLUMNS]
    return cols


def metrics_to_csv(rows: list[dict]) -> str:
    """Deterministic CSV serialization (full-precision float repr)."""
    cols = metrics_columns(rows)
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def parse_metrics_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        return []
    cols = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        values = line.split(",")
        row: dict = {}
        for col, val in zip(cols, values):
            row[col] = int(val) if col == "epoch" else float(val)
        rows.append(row)
    return rows
