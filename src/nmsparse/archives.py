"""On-disk artifacts: folded-weight archives (.npz) and compressed archives (.zip).

A folded archive stores per-layer dense f64 weights and biases plus a JSON
manifest of the model structure. A compressed archive is a zip holding one
serialized N:M tensor per eligible layer, dense layers as f32 .npy arrays,
and a manifest. Its members are stored uncompressed: the payload is mostly
f32 values, which DEFLATE shrinks by only about 11% at many times the cost.
Each is written as a bare ``ZipInfo``, dated 1980-01-01 as ``np.savez``
dates its members, so the same model always gives the same bytes.
``zipfile`` reads each member's own compression, so archives whose members
were DEFLATE-d still load.
"""
from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .checkpoint import artifact_reader, atomic_writer
from .masks import SparsePattern
from .sparse_format import CompressedNM, compress
from .tensors import WeightTensor4


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
    """Read a folded archive under the ``artifact_reader`` contract."""
    with artifact_reader(path, "folded archive") as fh, np.load(fh) as data:
        return _read_folded(data)


def _read_folded(data) -> FoldedModel:
    manifest = json.loads(bytes(data["manifest"]).decode())
    _check_header(manifest, "nmsparse-folded", "folded-weight archive")
    layers = []
    for entry in manifest["layers"]:
        weight, bias = data[f"w_{entry['name']}"], data[f"b_{entry['name']}"]
        _check_record(entry, weight.shape, bias.shape)
        if not np.isfinite(bias).all():
            raise ValueError(f"layer {entry['name']!r}: bias holds NaN or Inf")
        layers.append(FoldedLayer(entry["name"], entry["kind"], WeightTensor4(weight), bias,
                                  entry["eligible"], entry["stride"], entry["padding"]))
    pattern = manifest.get("pattern")
    return FoldedModel(layers, None if pattern is None else SparsePattern.parse(pattern))


def _check_header(manifest: dict, fmt: str, what: str) -> None:
    """The manifest's format, and a version that is the JSON integer 1 (Python takes ``true`` and ``1.0`` as 1)."""
    version = manifest.get("version")
    if manifest.get("format") != fmt or type(version) is not int or version != 1:
        raise ValueError(f"not a version 1 {what}")


def _check_record(entry: dict, shape: tuple, bias_shape: tuple | None) -> None:
    """A manifest entry against the stored weight, then the layer through ``nn.check_layer``."""
    if entry["dims"] != list(shape) or any(type(d) is not int for d in entry["dims"]):
        raise ValueError(f"layer {entry['name']!r}: manifest dims {entry['dims']} but the stored weight is {list(shape)}")
    if type(entry["eligible"]) is not bool:
        raise ValueError(f"layer {entry['name']!r}: eligible must be true or false, got {entry['eligible']!r}")
    nn.check_layer(entry["name"], entry["kind"], shape, bias_shape, entry["stride"], entry["padding"])


def save_compressed_archive(path: str | Path, folded: FoldedModel, pattern: SparsePattern) -> None:
    """Compress eligible layers; store dense layers as f32 arrays."""
    layers = [
        _layer_record(l, file=f"{l.name}.nmsp" if l.eligible else f"{l.name}.npy", bias_file=f"{l.name}.bias.npy")
        for l in folded.layers
    ]
    manifest = {"format": "nmsparse-compressed", "version": 1, "pattern": str(pattern), "layers": layers}
    with atomic_writer(path) as fh, zipfile.ZipFile(fh, "w") as zf:
        zf.writestr(zipfile.ZipInfo("manifest.json"), json.dumps(manifest, indent=2))
        for l, entry in zip(folded.layers, layers):
            blob = compress(l.weight, pattern).to_bytes() if l.eligible else _npy_bytes(l.weight.values)
            zf.writestr(zipfile.ZipInfo(entry["file"]), blob)
            zf.writestr(zipfile.ZipInfo(entry["bias_file"]), _npy_bytes(l.bias))


def _npy_bytes(a: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, a.astype(np.float32))
    return buf.getvalue()


def load_compressed_archive(path: str | Path) -> list[tuple[dict, CompressedNM | np.ndarray]]:
    """(manifest entry, CompressedNM or dense f32 array) per layer, under the ``artifact_reader`` contract."""
    with artifact_reader(path, "compressed archive") as fh, zipfile.ZipFile(fh) as zf:
        return _read_compressed(zf)


def _read_compressed(zf: zipfile.ZipFile) -> list[tuple[dict, CompressedNM | np.ndarray]]:
    manifest = json.loads(zf.read("manifest.json").decode())
    _check_header(manifest, "nmsparse-compressed", "compressed archive")
    out = []
    for entry in manifest["layers"]:
        blob = zf.read(entry["file"])
        zf.getinfo(entry["bias_file"])  # present; callers that serve the layer read it themselves
        payload = CompressedNM.from_bytes(blob) if entry["file"].endswith(".nmsp") else np.load(io.BytesIO(blob))
        shape = payload.origin_dims if isinstance(payload, CompressedNM) else payload.shape
        _check_record(entry, shape, None)
        out.append((entry, payload))
    return out
