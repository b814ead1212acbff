"""Binary training checkpoints.

Layout (little-endian): magic ``MAXQCKPT``, version u16, section count u32,
then length-prefixed sections, each a 4-byte tag + u64 payload length.
Sections: CFG (config JSON), CTR (epoch + iteration), LYR (layer states with
f64 weights, biases, and momentum buffers), MET (metrics CSV text).

Reloading a checkpoint and resuming reproduces the bit-identical remainder
of the run for the same seed: epoch shuffles are derived from (seed, epoch)
and masks are recomputed from the stored weights.
"""
from __future__ import annotations

import contextlib
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .config import RunConfig
from .training import Velocity

MAGIC = b"MAXQCKPT"
VERSION = 1
_KIND_CODES = {"conv": 0, "linear": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_SECTIONS = (b"CFG\x00", b"CTR\x00", b"LYR\x00", b"MET\x00")  # in file order


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


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    with atomic_writer(path) as fh:
        fh.write(data)


def _array_parts(a: np.ndarray) -> list:
    """Shape header and a uint8 view of the contiguous f64 array (no copy if it already is one)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return [struct.pack(f"<B{a.ndim}Q", a.ndim, *a.shape), a.reshape(-1).view(np.uint8)]


def _read_array(blob: memoryview, off: int) -> tuple[np.ndarray, int]:
    (ndim,) = struct.unpack_from("<B", blob, off)
    off += 1
    shape = struct.unpack_from(f"<{ndim}Q", blob, off)
    off += 8 * ndim
    count = int(np.prod(shape)) if ndim else 1
    # The copy makes the array owned and writable: training updates it in place.
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape).copy()
    return arr, off + 8 * count


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
        off += 2
        name = bytes(blob[off : off + name_len]).decode()
        off += name_len
        kind_code, eligible, stride, padding = struct.unpack_from("<BBHH", blob, off)
        off += 6
        if stride < 1:
            raise ValueError(f"layer {name!r} has stride 0")
        weight, off = _read_array(blob, off)
        bias, off = _read_array(blob, off)
        vw, off = _read_array(blob, off)
        vb, off = _read_array(blob, off)
        if bias.shape != weight.shape[:1] or vw.shape != weight.shape or vb.shape != bias.shape:
            raise ValueError(
                f"layer {name!r}: weight {weight.shape}, bias {bias.shape} and momentum "
                f"{vw.shape}/{vb.shape} do not match"
            )
        layers.append(
            nn.Layer(
                kind=_KIND_NAMES[kind_code],
                name=name,
                weight=weight,
                bias=bias,
                stride=stride,
                padding=padding,
                eligible=bool(eligible),
            )
        )
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
    """Read a checkpoint; malformed bytes raise a ValueError naming the file."""
    blob = Path(path).read_bytes()
    try:
        return _parse_checkpoint(blob)
    except (ValueError, KeyError, struct.error) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from exc


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
    return Checkpoint(
        config=config,
        epoch=int(epoch),
        iteration=int(iteration),
        model=model,
        velocity=velocity,
        metrics_csv=bytes(sections[b"MET\x00"]).decode(),
    )
