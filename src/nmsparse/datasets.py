"""Dataset ingestion: IDX image files, CSV tables, and synthetic generators."""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FieldError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(eq=False)
class Dataset:
    X: np.ndarray  # (N, features) or (N, C, H, W), float64
    y: np.ndarray  # (N,) int64
    num_classes: int

    def __post_init__(self):
        if len(self.X) != len(self.y):
            raise ValueError(f"{len(self.X)} samples but {len(self.y)} labels")
        if len(self.X) == 0:
            raise ValueError("empty dataset")


def two_spirals(samples: int = 2000, noise: float = 0.02, seed: int = 0) -> Dataset:
    """Two interleaved spirals in the plane, scaled to roughly [-1, 1]^2.

    ``noise`` is the standard deviation of the positional jitter.
    """
    if not 0.0 <= noise < np.inf:  # also rejects NaN
        raise FieldError("noise", f"noise must be finite and nonnegative, got {noise}")
    turns = 1.75

    def spiral(rng, cls, k):
        theta = np.sqrt(rng.uniform(size=k)) * turns * 2.0 * np.pi
        r = theta / (turns * 2.0 * np.pi)
        px = r * np.cos(theta + np.pi * cls) + rng.normal(scale=noise, size=k)
        py = r * np.sin(theta + np.pi * cls) + rng.normal(scale=noise, size=k)
        return np.stack([px, py], axis=1)

    return _two_classes(samples, seed, spiral)


def two_gaussians(samples: int = 1000, separation: float = 2.0, seed: int = 0) -> Dataset:
    """Two Gaussian blobs at (+-separation/2, 0)."""
    half = separation / 2.0

    def blob(rng, cls, k):
        pts = rng.normal(size=(k, 2))
        pts[:, 0] += half if cls else -half
        return pts

    return _two_classes(samples, seed, blob)


def _two_classes(samples: int, seed: int, draw) -> Dataset:
    """samples // 2 points of class 0 and the rest of class 1, each class
    drawn by ``draw(rng, cls, count)`` in turn, then shuffled."""
    if samples < 1:
        raise FieldError("samples", f"need at least one sample, got {samples}")
    if seed < 0:
        raise FieldError("seed", f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    counts = (samples // 2, samples - samples // 2)
    X = np.concatenate([draw(rng, cls, k) for cls, k in enumerate(counts)])
    y = np.repeat(np.arange(2, dtype=np.int64), counts)
    order = rng.permutation(samples)
    return Dataset(X[order], y[order], num_classes=2)


def from_csv(path: str | Path, label_column: str) -> Dataset:
    """Numeric CSV with a header row and one cell per column in every row; one column holds integer class labels."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if label_column not in header:
            raise ValueError(f"CSV {path} has no column named {label_column!r}")
        label = header.index(label_column)
        features, labels = [], []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"CSV {path} line {reader.line_num}: {len(row)} cells for {len(header)} columns")
            where = f"CSV {path} line {reader.line_num}"
            features.append([_cell(float, v, where, header[i]) for i, v in enumerate(row) if i != label])
            labels.append(_cell(int, row[label], where, label_column))
            if labels[-1] < 0:
                raise ValueError(f"{where} column {label_column!r}: labels must be nonnegative, got {row[label]!r}")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    return Dataset(X, y, num_classes=int(y.max()) + 1 if y.size else 0)


def _cell(kind: type, text: str, where: str, column: str):
    """``kind(text)``, or one ValueError naming the file, line and column."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer label" if kind is int else "a number"
        raise ValueError(f"{where} column {column!r}: expected {expected}, got {text!r}") from None


def read_idx(path: str | Path) -> np.ndarray:
    """Read one IDX file (big-endian magic, dims, raw unsigned bytes)."""
    blob = Path(path).read_bytes()
    if len(blob) < 4:
        raise ValueError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic == IDX_IMAGES_MAGIC:
        ndim = 3
    elif magic == IDX_LABELS_MAGIC:
        ndim = 1
    else:
        raise ValueError(f"{path}: unsupported IDX magic 0x{magic:08x}")
    start = 4 + 4 * ndim
    if len(blob) < start:
        raise ValueError(f"{path}: truncated IDX header: {len(blob)} bytes, need {start}")
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    count = int(np.prod(dims))
    if len(blob) - start != count:
        raise ValueError(f"{path}: expected {count} payload bytes, found {len(blob) - start}")
    return np.frombuffer(blob, dtype=np.uint8, offset=start).reshape(dims)


def load_idx(images: str | Path, labels: str | Path) -> Dataset:
    """Pair of IDX files -> images scaled to [0, 1] with shape (N, 1, H, W)."""
    pixels = read_idx(images)
    classes = read_idx(labels)
    if pixels.ndim != 3:
        raise ValueError(f"{images}: expected image data")
    if classes.ndim != 1:
        raise ValueError(f"{labels}: expected label data")
    if pixels.shape[0] != classes.shape[0]:
        raise ValueError(f"{pixels.shape[0]} images but {classes.shape[0]} labels")
    X = pixels.astype(np.float64)[:, None, :, :] / 255.0
    y = classes.astype(np.int64)
    return Dataset(X, y, num_classes=int(y.max()) + 1)


# Run-config dataset kinds. A config's dataset keys are checked against the
# builder's own signature, so its defaults are the only ones.
BUILDERS = {"two_spirals": two_spirals, "two_gaussians": two_gaussians, "csv": from_csv, "idx": load_idx}


def build(spec: dict) -> Dataset:
    """Construct a dataset from a run-configuration ``dataset`` section."""
    rest = dict(spec)
    kind = rest.pop("kind", None)
    if kind not in BUILDERS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    try:
        return BUILDERS[kind](**rest)
    except FieldError as exc:
        raise ValueError(f"dataset.{exc.field}: {exc}") from None
