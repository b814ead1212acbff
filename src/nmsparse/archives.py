"""On-disk artifacts: folded-weight archives (.npz) and compressed archives (.zip).

A folded archive stores per-layer dense f64 weights and biases plus a JSON
manifest of the model structure. A compressed archive is a zip holding one
serialized N:M tensor per eligible layer, dense layers as f32 .npy arrays,
and a manifest. Its members are stored uncompressed: the payload is mostly
f32 values, which DEFLATE shrinks by only about 11% at many times the cost.
``zipfile`` reads each member's own compression, so archives whose members
were DEFLATE-d still load.
"""
from __future__ import annotations

import io
import json
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .checkpoint import atomic_writer
from .masks import SparsePattern
from .sparse_format import CompressedNM, compress
from .tensors import WeightTensor4


# What zipfile and np.load raise on malformed bytes once the file is open: bad
# offsets reach seek() as OSError, flipped flag or method fields look like
# encryption (RuntimeError) or an unknown compression (NotImplementedError).
# An ill-typed manifest (a number for the layer list) fails its iteration with
# a TypeError; ill-typed layer records are rejected by _check_layers.
_MALFORMED_ZIP = (
    ValueError,
    KeyError,
    TypeError,
    EOFError,
    OSError,
    RuntimeError,
    NotImplementedError,
    zipfile.BadZipFile,
    zlib.error,
)


@dataclass(eq=False)
class FoldedLayer:
    name: str
    kind: str
    weight: WeightTensor4
    bias: np.ndarray
    eligible: bool
    stride: int = 1
    padding: int = 0


@dataclass(eq=False)
class FoldedModel:
    layers: list[FoldedLayer]
    pattern: SparsePattern | None

    @classmethod
    def from_model(
        cls, model: nn.Model, folded: dict[str, WeightTensor4], pattern: SparsePattern | None
    ) -> "FoldedModel":
        return cls(
            [
                FoldedLayer(
                    name=l.name,
                    kind=l.kind,
                    weight=folded[l.name],
                    bias=l.bias.copy(),
                    eligible=l.eligible,
                    stride=l.stride,
                    padding=l.padding,
                )
                for l in model.layers
            ],
            pattern,
        )


def _layer_record(l: FoldedLayer, **files: str) -> dict:
    """A layer's manifest entry; ``files`` (compressed archives only) go after the kind."""
    return {
        "name": l.name,
        "kind": l.kind,
        **files,
        "dims": list(l.weight.dims),
        "eligible": l.eligible,
        "stride": l.stride,
        "padding": l.padding,
    }


def save_folded_archive(path: str | Path, folded: FoldedModel) -> None:
    manifest = {
        "format": "nmsparse-folded",
        "version": 1,
        "pattern": None if folded.pattern is None else str(folded.pattern),
        "layers": [_layer_record(l) for l in folded.layers],
    }
    arrays = {"manifest": np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)}
    for l in folded.layers:
        arrays[f"w_{l.name}"] = l.weight.values
        arrays[f"b_{l.name}"] = l.bias
    with atomic_writer(path) as fh:
        np.savez(fh, **arrays)


def load_folded_archive(path: str | Path) -> FoldedModel:
    """Read a folded archive; malformed bytes raise a ValueError naming the file.

    A file that cannot be opened (missing, a directory) raises its OSError.
    """
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as data:
                return _read_folded(data)
        except _MALFORMED_ZIP as exc:
            raise ValueError(f"{path}: malformed folded archive: {exc}") from exc


def _read_folded(data) -> FoldedModel:
    manifest = json.loads(bytes(data["manifest"]).decode())
    if manifest.get("format") != "nmsparse-folded":
        raise ValueError("not a folded-weight archive")
    pattern_str = manifest.get("pattern")
    entries = manifest["layers"]
    layers = [
        FoldedLayer(
            name=entry["name"],
            kind=entry["kind"],
            weight=WeightTensor4(data[f"w_{entry['name']}"]),
            bias=data[f"b_{entry['name']}"].copy(),
            eligible=entry["eligible"],
            stride=entry["stride"],
            padding=entry["padding"],
        )
        for entry in entries
    ]
    _check_layers([(entry, l.weight.dims, l.bias.shape) for entry, l in zip(entries, layers)])
    pattern = None if pattern_str is None else SparsePattern.parse(pattern_str)
    return FoldedModel(layers, pattern)


def _check_layers(layers: list[tuple[dict, tuple, tuple | None]]) -> None:
    """Reject manifest records that disagree with the stored arrays or that the
    runtime cannot serve. Each item is (record, stored weight shape, stored
    bias shape, or None where the reader does not read the bias)."""
    for entry, shape, bias_shape in layers:
        name, kind, dims, stride, padding = (entry[k] for k in ("name", "kind", "dims", "stride", "padding"))
        if kind not in ("conv", "linear"):
            raise ValueError(f"layer {name!r}: unknown kind {kind!r}")
        if dims != list(shape):
            raise ValueError(f"layer {name!r}: manifest dims {dims} but the stored weight is {list(shape)}")
        if bias_shape not in (None, shape[:1]):
            raise ValueError(f"layer {name!r}: bias of shape {bias_shape} for {shape[0]} filters")
        if type(entry["eligible"]) is not bool:
            raise ValueError(f"layer {name!r}: eligible must be true or false, got {entry['eligible']!r}")
        if type(stride) is not int or type(padding) is not int or stride < 1 or padding < 0:
            raise ValueError(f"layer {name!r}: need stride >= 1 and padding >= 0, got {stride!r} and {padding!r}")


def save_compressed_archive(path: str | Path, folded: FoldedModel, pattern: SparsePattern) -> None:
    """Compress eligible layers; store dense layers as f32 arrays."""
    layers = [
        _layer_record(l, file=f"{l.name}.nmsp" if l.eligible else f"{l.name}.npy", bias_file=f"{l.name}.bias.npy")
        for l in folded.layers
    ]
    manifest = {"format": "nmsparse-compressed", "version": 1, "pattern": str(pattern), "layers": layers}
    with atomic_writer(path) as fh, zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr("manifest.json", json.dumps(manifest, indent=2))
        for l, entry in zip(folded.layers, layers):
            blob = compress(l.weight, pattern).to_bytes() if l.eligible else _npy_bytes(l.weight.values)
            zf.writestr(entry["file"], blob)
            zf.writestr(entry["bias_file"], _npy_bytes(l.bias))


def _npy_bytes(a: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, a.astype(np.float32))
    return buf.getvalue()


def load_compressed_archive(path: str | Path) -> list[tuple[dict, CompressedNM | np.ndarray]]:
    """(manifest entry, CompressedNM or dense f32 array) per layer.

    Malformed bytes raise a ValueError naming the file. A file that cannot
    be opened (missing, a directory) raises its OSError.
    """
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                return _read_compressed(zf)
        except _MALFORMED_ZIP as exc:
            raise ValueError(f"{path}: malformed compressed archive: {exc}") from exc


def _read_compressed(zf: zipfile.ZipFile) -> list[tuple[dict, CompressedNM | np.ndarray]]:
    manifest = json.loads(zf.read("manifest.json").decode())
    if manifest.get("format") != "nmsparse-compressed":
        raise ValueError("not a compressed archive")
    out = []
    for entry in manifest["layers"]:
        blob = zf.read(entry["file"])
        if entry["file"].endswith(".nmsp"):
            out.append((entry, CompressedNM.from_bytes(blob)))
        else:
            out.append((entry, np.load(io.BytesIO(blob))))
    _check_layers([(e, p.origin_dims if isinstance(p, CompressedNM) else p.shape, None) for e, p in out])
    return out
