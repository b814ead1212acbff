"""Run configuration: a fixed-schema JSON document validated up front.

The schema is the declarations themselves: the fields of ``RunConfig``,
``SparsePattern``, ``Schedule`` and ``TrainerSettings``, and for the
``dataset`` section the signature of the builder its ``kind`` names in
``datasets.BUILDERS``. A key without a default is required, unknown keys are
rejected, and every value must have its field's JSON type (an int is taken
where a float is declared, a float must be finite, and a bool is never a
number). ``pattern`` may be null for a dense baseline run. Parsing,
serializing, and re-parsing a config is the identity.
"""
from __future__ import annotations

import functools
import inspect
import json
import reprlib
import sys
import types
import typing
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Optional

from . import datasets
from .errors import FieldError
from .masks import SparsePattern
from .schedule import Schedule
from .training import Hyperparameters, TrainConfig

ARCHS = ("mlp", "cnn")
_HYPERPARAMETERS = tuple(f.name for f in fields(Hyperparameters))  # what to_train_config copies


@dataclass(frozen=True)
class TrainerSettings(Hyperparameters):
    arch: str = "mlp"
    hidden: tuple[int, ...] = (32, 32)

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise FieldError("arch", f"unknown arch {self.arch!r}, expected one of {ARCHS}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.arch == "mlp" and not self.hidden:
            raise FieldError("hidden", "an MLP needs at least one hidden layer")
        if any(h < 1 for h in self.hidden):
            raise FieldError("hidden", f"layer sizes must be at least 1, got {list(self.hidden)}")
        super().__post_init__()


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    pattern: Optional[SparsePattern] = None
    schedule: Schedule
    trainer: TrainerSettings = TrainerSettings()
    dataset: dict
    tau: float = 0.1
    seed: int = 0
    out_dir: str = "runs/out"

    def __post_init__(self):
        object.__setattr__(self, "dataset", dict(self.dataset))  # not shared with the caller's document
        kind = self.dataset.get("kind")
        if type(kind) is not str or kind not in datasets.BUILDERS:
            raise ValueError(f"unknown dataset kind {kind!r}, expected one of {tuple(datasets.BUILDERS)}")
        _checked_kwargs(datasets.BUILDERS[kind], {k: v for k, v in self.dataset.items() if k != "kind"}, "dataset")
        # surfaces the remaining TrainConfig checks (tau, pattern without schedule) before any work starts
        self.to_train_config()

    def to_train_config(self) -> TrainConfig:
        hyper = {name: getattr(self.trainer, name) for name in _HYPERPARAMETERS}
        return TrainConfig(**hyper, pattern=self.pattern, schedule=self.schedule, tau=self.tau, seed=self.seed)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        schedule = doc.get("schedule") if isinstance(doc, dict) else None
        if isinstance(schedule, dict):
            # Schedule(t_i, t_f) is positional; in JSON t_i defaults to 0
            doc = {**doc, "schedule": {"t_i": 0, **schedule}}
        return _value("", doc, (False, cls, None))

    def to_json(self) -> str:
        # each section's __dict__ taken up front: through json's default= hook every
        # chunk would pass two more generator layers, about 20 µs per call
        doc = {k: getattr(v, "__dict__", v) for k, v in vars(self).items()}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_json(Path(path).read_text())


@functools.cache
def _schema(owner) -> dict:
    """name -> (required, (nullable, JSON type, element type)) of each parameter.

    Cached: resolving annotations costs far more than checking a document.
    """
    hints = typing.get_type_hints(owner)
    schema = {}
    for p in inspect.signature(owner).parameters.values():
        hint, nullable = hints[p.name], False
        if typing.get_origin(hint) in (typing.Union, types.UnionType):
            # Optional[X] is Union[X, None]; the first member is the JSON type (str of str | Path)
            nullable = type(None) in typing.get_args(hint)
            hint = typing.get_args(hint)[0]
        args = typing.get_args(hint)
        schema[p.name] = (p.default is p.empty, (nullable, typing.get_origin(hint) or hint, args[0] if args else None))
    return schema


def _checked_kwargs(owner, doc, key: str) -> dict:
    """Check a JSON object against ``owner``'s parameters; return the converted kwargs."""
    schema = _schema(owner)
    if not doc.keys() <= schema.keys():
        raise ValueError(f"unknown {key or 'config'} keys: {sorted(doc.keys() - schema.keys())}")
    prefix = f"{key}." if key else ""
    kwargs = {}
    for name, (required, shape) in schema.items():
        if name in doc:
            kwargs[name] = _value(prefix + name, doc[name], shape)
        elif required:
            raise ValueError(f"{prefix}{name}: required key missing")
    return kwargs


def _value(key: str, value, shape):
    nullable, base, elem = shape
    if base is float and type(value) in (int, float):
        if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int too large for a float
            raise ValueError(f"{key}: expected a finite number, got {reprlib.repr(value)}")
        return float(value)
    if type(value) is base:
        return value
    if value is None and nullable:
        return None
    if base is tuple and type(value) is list:
        return tuple(_value(f"{key}[{i}]", v, (False, elem, None)) for i, v in enumerate(value))
    if is_dataclass(base) and type(value) is dict:
        kwargs = _checked_kwargs(base, value, key)
        try:
            return base(**kwargs)
        except FieldError as exc:
            prefix = f"{key}." if key else ""
            raise ValueError(f"{prefix}{exc.field}: {exc}") from None
    expected = "object" if base is dict or is_dataclass(base) else "list" if base is tuple else base.__name__
    raise ValueError(f"{key or 'config'}: expected {expected}, got {reprlib.repr(value)}")
