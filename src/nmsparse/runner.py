"""Orchestration shared by the CLI and tests: build, train, resume, fold."""
from __future__ import annotations

from pathlib import Path

from . import datasets, nn, training
from .archives import FoldedLayer, FoldedModel
from .checkpoint import Checkpoint, atomic_write_bytes, load_checkpoint, save_checkpoint
from .config import RunConfig


def build_model(config: RunConfig, dataset: datasets.Dataset) -> nn.Model:
    rng = training.init_rng(config.seed)
    if config.trainer.arch == "mlp":
        features = dataset.X.reshape(len(dataset.y), -1).shape[1]
        sizes = [features, *config.trainer.hidden, dataset.num_classes]
        model = nn.mlp(sizes, rng)
    else:
        if dataset.X.ndim != 4:
            raise ValueError("the cnn arch needs image-shaped (N, C, H, W) data")
        model = nn.cnn(dataset.X.shape[1:], dataset.num_classes, rng)
    model.mark_eligibility(config.pattern)
    return model


def run_training(
    config: RunConfig | None, resume_from: str | Path | None = None, log=None
) -> tuple[training.FitResult, Path]:
    """Train (or resume) a run; write checkpoint + metrics CSV into out_dir.

    A resume reads its config from the checkpoint and ignores ``config``. A
    fresh run trains like a resume from an untrained model at epoch 0.
    """
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        config = ckpt.config  # the original snapshot governs the run
    dataset = datasets.build(config.dataset)
    if resume_from is None:
        model = build_model(config, dataset)
        ckpt = Checkpoint(config, 0, 0, model, training.Velocity.zeros_like(model), "")
    train_cfg = config.to_train_config()
    result = training.fit(
        ckpt.model, dataset, train_cfg, start_epoch=ckpt.epoch, velocity=ckpt.velocity,
        metrics=training.parse_metrics_csv(ckpt.metrics_csv), iteration=ckpt.iteration, log=log,
    )
    out_dir = Path(config.out_dir)
    metrics_csv = training.metrics_to_csv(result.metrics)
    atomic_write_bytes(out_dir / "metrics.csv", metrics_csv.encode())
    save_checkpoint(
        out_dir / "checkpoint.maxq",
        Checkpoint(
            config=config,
            epoch=train_cfg.epochs,
            iteration=result.iteration,
            model=result.model,
            velocity=result.velocity,
            metrics_csv=metrics_csv,
        ),
    )
    return result, out_dir


def fold_checkpoint(ckpt: Checkpoint) -> FoldedModel:
    """Recompute final masks from the stored weights and fold them in."""
    train_cfg = ckpt.config.to_train_config()
    model = ckpt.model
    model.mark_eligibility(train_cfg.pattern)
    folded = training.export_folded(model, training.final_masks(model, train_cfg, epoch=max(ckpt.epoch - 1, 0)))
    layers = [FoldedLayer(l.name, l.kind, folded[l.name], l.bias, l.eligible, l.stride, l.padding) for l in model.layers]
    return FoldedModel(layers, train_cfg.pattern)
