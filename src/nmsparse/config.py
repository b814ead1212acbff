"""Run configuration: a fixed-schema JSON document validated up front.

Top-level keys: pattern, schedule, trainer, dataset, tau, seed, out_dir.
``pattern`` may be null for a dense baseline run. Parsing, serializing, and
re-parsing a config is the identity.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .masks import SparsePattern
from .schedule import Schedule
from .training import TrainConfig

ARCHS = ("mlp", "cnn")
DATASET_KINDS = ("two_spirals", "two_gaussians", "csv", "idx")


@dataclass(frozen=True)
class TrainerSettings:
    arch: str = "mlp"
    hidden: tuple[int, ...] = (32, 32)
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.1
    lr_schedule: str = "cosine"
    momentum: float = 0.9
    weight_decay: float = 1e-4
    sr_ste_weight: Optional[float] = None

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"unknown arch {self.arch!r}, expected one of {ARCHS}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.arch == "mlp" and not self.hidden:
            raise ValueError("an MLP needs at least one hidden layer")


@dataclass(frozen=True)
class RunConfig:
    pattern: Optional[SparsePattern]
    schedule: Schedule
    trainer: TrainerSettings
    dataset: dict
    tau: float = 0.1
    seed: int = 0
    out_dir: str = "runs/out"

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        kind = self.dataset.get("kind")
        if kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {kind!r}, expected one of {DATASET_KINDS}")
        if kind == "csv" and not ("path" in self.dataset and "label_column" in self.dataset):
            raise ValueError("csv dataset needs 'path' and 'label_column'")
        if kind == "idx" and not ("images" in self.dataset and "labels" in self.dataset):
            raise ValueError("idx dataset needs 'images' and 'labels'")
        # surfaces TrainConfig validation errors before any work starts
        self.to_train_config()

    def to_train_config(self) -> TrainConfig:
        t = self.trainer
        return TrainConfig(
            epochs=t.epochs,
            batch_size=t.batch_size,
            learning_rate=t.learning_rate,
            lr_schedule=t.lr_schedule,
            momentum=t.momentum,
            weight_decay=t.weight_decay,
            sr_ste_weight=t.sr_ste_weight,
            pattern=self.pattern,
            schedule=self.schedule,
            tau=self.tau,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        t = self.trainer
        return {
            "pattern": None if self.pattern is None else {"n": self.pattern.n, "m": self.pattern.m},
            "schedule": {
                "t_i": self.schedule.t_i,
                "t_f": self.schedule.t_f,
                "kind": self.schedule.kind,
                "ordering": self.schedule.ordering,
                "mode": self.schedule.mode,
            },
            "trainer": {
                "arch": t.arch,
                "hidden": list(t.hidden),
                "epochs": t.epochs,
                "batch_size": t.batch_size,
                "learning_rate": t.learning_rate,
                "lr_schedule": t.lr_schedule,
                "momentum": t.momentum,
                "weight_decay": t.weight_decay,
                "sr_ste_weight": t.sr_ste_weight,
            },
            "dataset": dict(self.dataset),
            "tau": self.tau,
            "seed": self.seed,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = set(doc) - {"pattern", "schedule", "trainer", "dataset", "tau", "seed", "out_dir"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        pattern_doc = doc.get("pattern")
        pattern = None if pattern_doc is None else SparsePattern(int(pattern_doc["n"]), int(pattern_doc["m"]))
        sched_doc = doc.get("schedule") or {}
        schedule = Schedule(
            t_i=int(sched_doc.get("t_i", 0)),
            t_f=int(sched_doc["t_f"]),
            kind=sched_doc.get("kind", "cubic"),
            ordering=sched_doc.get("ordering", "l1_descending"),
            mode=sched_doc.get("mode", "block_percentage"),
        )
        trainer_doc = dict(doc.get("trainer") or {})
        unknown = set(trainer_doc) - {f.name for f in fields(TrainerSettings)}
        if unknown:
            raise ValueError(f"unknown trainer keys: {sorted(unknown)}")
        if "hidden" in trainer_doc:
            trainer_doc["hidden"] = tuple(trainer_doc["hidden"])
        trainer = TrainerSettings(**trainer_doc)
        return cls(
            pattern=pattern,
            schedule=schedule,
            trainer=trainer,
            dataset=dict(doc["dataset"]),
            tau=float(doc.get("tau", 0.1)),
            seed=int(doc.get("seed", 0)),
            out_dir=str(doc.get("out_dir", "runs/out")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_json(Path(path).read_text())
