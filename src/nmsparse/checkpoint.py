"""Binary training checkpoints.

Layout (little-endian): magic ``MAXQCKPT``, version u16, section count u32,
then length-prefixed sections, each a 4-byte tag + u64 payload length.
Sections: CFG (config JSON), CTR (epoch + iteration, at most the configured
epochs), LYR (layer states with finite f64 weights, biases, and momentum
buffers), MET (metrics CSV text: a header of ``training.metrics_header``
columns, in its order, and one row per completed epoch).

Reloading a checkpoint and resuming reproduces the bit-identical remainder
of the run for the same seed: epoch shuffles are derived from (seed, epoch)
and masks are recomputed from the stored weights.
"""
from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .config import RunConfig
from .training import Velocity, metrics_header, parse_metrics_csv

MAGIC = b"MAXQCKPT"
VERSION = 1
_KIND_CODES = {"conv": 0, "linear": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_SECTIONS = (b"CFG\x00", b"CTR\x00", b"LYR\x00", b"MET\x00")  # in file order
# What the parsers, zipfile and np.load raise on malformed bytes once the file is
# open: bad zip offsets reach seek() as OSError, flipped flag or method fields look
# like encryption (RuntimeError) or an unknown compression (NotImplementedError),
# and an ill-typed manifest fails its lookups with a TypeError or AttributeError.
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, EOFError, OSError, RuntimeError,
              NotImplementedError, struct.error, zipfile.BadZipFile, zlib.error)


@dataclass(eq=False)
class Checkpoint:
    config: RunConfig
    epoch: int  # number of completed epochs
    iteration: int
    model: nn.Model
    velocity: Velocity
    metrics_csv: str


@contextlib.contextmanager
def atomic_writer(path: str | Path):
    """Yield a binary temp file in the same directory; rename it to ``path`` on success.

    On any exception the temp file is deleted and ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def artifact_reader(path: str | Path, what: str):
    """Yield ``path`` open for binary reading: the one error contract of every artifact reader.

    Malformed bytes raise one ValueError naming the file; a file that cannot be
    opened (missing, a directory) raises its own OSError.
    """
    with open(path, "rb") as fh:
        try:
            yield fh
        except _MALFORMED as exc:
            raise ValueError(f"{path}: malformed {what}: {exc}") from exc


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    with atomic_writer(path) as fh:
        fh.write(data)


def _array_parts(a: np.ndarray) -> list:
    """Shape header and a uint8 view of the contiguous f64 array (no copy if it already is one)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return [struct.pack(f"<B{a.ndim}Q", a.ndim, *a.shape), a.reshape(-1).view(np.uint8)]


def _read_array(blob: memoryview, off: int) -> tuple[np.ndarray, int]:
    (ndim,) = struct.unpack_from("<B", blob, off)
    shape = struct.unpack_from(f"<{ndim}Q", blob, off + 1)
    start = off + 1 + 8 * ndim
    end = start + 8 * math.prod(shape)
    if end > len(blob):
        raise ValueError(f"array at offset {off} of the layer section runs past its end")
    # The copy makes the array owned and writable: training updates it in place.
    a = np.frombuffer(blob[start:end], dtype="<f8").reshape(shape).copy()
    if not np.isfinite(a).all():
        raise ValueError(f"array at offset {off} of the layer section holds NaN or Inf")
    return a, end


def _layer_section(model: nn.Model, velocity: Velocity) -> list:
    parts = [struct.pack("<I", len(model.layers))]
    for i, layer in enumerate(model.layers):
        name = layer.name.encode()
        parts.append(
            struct.pack("<H", len(name))
            + name
            + struct.pack("<BBHH", _KIND_CODES[layer.kind], int(layer.eligible), layer.stride, layer.padding)
        )
        for a in (layer.weight, layer.bias, velocity.w[i], velocity.b[i]):
            parts += _array_parts(a)
    return parts


def _parse_layers(blob: memoryview) -> tuple[nn.Model, Velocity]:
    (count,) = struct.unpack_from("<I", blob, 0)
    off = 4
    layers, vel_w, vel_b = [], [], []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, off)
        name = bytes(blob[off + 2 : off + 2 + name_len]).decode()
        off += 2 + name_len
        kind_code, eligible, stride, padding = struct.unpack_from("<BBHH", blob, off)
        off += 6
        weight, off = _read_array(blob, off)
        bias, off = _read_array(blob, off)
        vw, off = _read_array(blob, off)
        vb, off = _read_array(blob, off)
        kind = _KIND_NAMES.get(kind_code, kind_code)
        nn.check_layer(name, kind, weight.shape, bias.shape, stride, padding)
        if vw.shape != weight.shape or vb.shape != bias.shape:
            raise ValueError(f"layer {name!r}: momentum {vw.shape}/{vb.shape} and weight/bias do not match")
        layers.append(nn.Layer(kind, name, weight, bias, stride, padding, bool(eligible)))
        vel_w.append(vw)
        vel_b.append(vb)
    return nn.Model(layers), Velocity(vel_w, vel_b)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Stream the checkpoint's parts to disk without joining them first."""
    sections = [
        [ckpt.config.to_json().encode()],
        [struct.pack("<QQ", ckpt.epoch, ckpt.iteration)],
        _layer_section(ckpt.model, ckpt.velocity),
        [ckpt.metrics_csv.encode()],
    ]
    parts = [MAGIC + struct.pack("<HI", VERSION, len(_SECTIONS))]
    for tag, section in zip(_SECTIONS, sections):
        parts.append(tag + struct.pack("<Q", sum(len(p) for p in section)))
        parts += section
    with atomic_writer(path) as fh:
        fh.writelines(parts)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint under the ``artifact_reader`` contract."""
    with artifact_reader(path, "checkpoint") as fh:
        return _parse_checkpoint(fh.read())


def _parse_checkpoint(blob: bytes) -> Checkpoint:
    view = memoryview(blob)  # sections are sliced from it without copying
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError("bad magic, not a checkpoint file")
    version, count = struct.unpack_from("<HI", blob, len(MAGIC))
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    off = len(MAGIC) + 6
    sections: dict[bytes, memoryview] = {}
    for _ in range(count):
        tag = blob[off : off + 4]
        (length,) = struct.unpack_from("<Q", blob, off + 4)
        off += 12
        if off + length > len(blob):
            raise ValueError(f"section {tag!r} at offset {off - 12} runs past the end of the file")
        sections[tag] = view[off : off + length]
        off += length
    missing = [tag.decode().rstrip("\0") for tag in _SECTIONS if tag not in sections]
    if missing:
        raise ValueError(f"missing section(s) {', '.join(missing)}")
    config = RunConfig.from_json(bytes(sections[b"CFG\x00"]).decode())
    epoch, iteration = struct.unpack_from("<QQ", sections[b"CTR\x00"], 0)
    model, velocity = _parse_layers(sections[b"LYR\x00"])
    metrics_csv = bytes(sections[b"MET\x00"]).decode()
    rows = parse_metrics_csv(metrics_csv)
    if len(rows) != epoch:
        raise ValueError(f"{len(rows)} metrics rows for {epoch} completed epochs")
    if epoch > config.trainer.epochs:
        raise ValueError(f"{epoch} completed epochs exceed trainer.epochs {config.trainer.epochs}")
    header = metrics_header(model)
    if rows and list(rows[0]) != [c for c in header if c in rows[0]]:
        raise ValueError(f"metrics header {','.join(rows[0])} is not drawn in order from {','.join(header)}")
    return Checkpoint(
        config=config,
        epoch=int(epoch),
        iteration=int(iteration),
        model=model,
        velocity=velocity,
        metrics_csv=metrics_csv,
    )
