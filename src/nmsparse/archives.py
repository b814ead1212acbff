"""On-disk artifacts: folded-weight archives (.npz) and compressed archives (.zip).

A folded archive stores per-layer dense f64 weights and biases plus a JSON
manifest of the model structure. A compressed archive is a zip holding one
serialized N:M tensor per eligible layer, dense layers as f32 .npy arrays,
and a manifest.
"""
from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .checkpoint import atomic_write_bytes
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


def save_folded_archive(path: str | Path, folded: FoldedModel) -> None:
    manifest = {
        "format": "nmsparse-folded",
        "version": 1,
        "pattern": None if folded.pattern is None else str(folded.pattern),
        "layers": [
            {
                "name": l.name,
                "kind": l.kind,
                "dims": list(l.weight.dims),
                "eligible": l.eligible,
                "stride": l.stride,
                "padding": l.padding,
            }
            for l in folded.layers
        ],
    }
    arrays = {"manifest": np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)}
    for l in folded.layers:
        arrays[f"w_{l.name}"] = l.weight.values
        arrays[f"b_{l.name}"] = l.bias
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


def load_folded_archive(path: str | Path) -> FoldedModel:
    with np.load(path) as data:
        manifest = json.loads(bytes(data["manifest"]).decode())
        if manifest.get("format") != "nmsparse-folded":
            raise ValueError(f"{path}: not a folded-weight archive")
        pattern_str = manifest.get("pattern")
        layers = [
            FoldedLayer(
                name=entry["name"],
                kind=entry["kind"],
                weight=WeightTensor4(data[f"w_{entry['name']}"]),
                bias=data[f"b_{entry['name']}"].copy(),
                eligible=bool(entry["eligible"]),
                stride=int(entry["stride"]),
                padding=int(entry["padding"]),
            )
            for entry in manifest["layers"]
        ]
    pattern = None if pattern_str is None else SparsePattern.parse(pattern_str)
    return FoldedModel(layers, pattern)


def save_compressed_archive(path: str | Path, folded: FoldedModel, pattern: SparsePattern) -> None:
    """Compress eligible layers; store dense layers as f32 arrays."""
    entries: list[tuple[str, bytes]] = []
    manifest: dict = {"format": "nmsparse-compressed", "version": 1, "pattern": str(pattern), "layers": []}
    for l in folded.layers:
        if l.eligible:
            blob = compress(l.weight, pattern).to_bytes()
            file_name = f"{l.name}.nmsp"
        else:
            buf = io.BytesIO()
            np.save(buf, l.weight.values.astype(np.float32))
            blob = buf.getvalue()
            file_name = f"{l.name}.npy"
        bias_buf = io.BytesIO()
        np.save(bias_buf, l.bias.astype(np.float32))
        entries.append((file_name, blob))
        entries.append((f"{l.name}.bias.npy", bias_buf.getvalue()))
        manifest["layers"].append(
            {
                "name": l.name,
                "kind": l.kind,
                "file": file_name,
                "bias_file": f"{l.name}.bias.npy",
                "dims": list(l.weight.dims),
                "eligible": l.eligible,
                "stride": l.stride,
                "padding": l.padding,
            }
        )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("manifest.json", json.dumps(manifest, indent=2))
        for name, blob in entries:
            zf.writestr(name, blob)
    atomic_write_bytes(path, buf.getvalue())


def load_compressed_archive(path: str | Path) -> list[tuple[dict, CompressedNM | np.ndarray]]:
    """Yield (manifest entry, CompressedNM or dense f32 array) per layer."""
    out = []
    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json").decode())
        if manifest.get("format") != "nmsparse-compressed":
            raise ValueError(f"{path}: not a compressed archive")
        for entry in manifest["layers"]:
            blob = zf.read(entry["file"])
            if entry["file"].endswith(".nmsp"):
                out.append((entry, CompressedNM.from_bytes(blob)))
            else:
                out.append((entry, np.load(io.BytesIO(blob))))
    return out
