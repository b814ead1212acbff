import json
import re
import zipfile

import numpy as np
import pytest

from nmsparse import nn
from nmsparse.archives import (
    FoldedModel,
    load_compressed_archive,
    load_folded_archive,
    save_compressed_archive,
    save_folded_archive,
)
from nmsparse.cli import main
from nmsparse.masks import SparsePattern
from nmsparse.sparse_format import CompressedNM
from nmsparse.tensors import BlockMatrix, WeightTensor4, rearrange_from_blocks, rearrange_to_blocks

PATTERN = SparsePattern(2, 4)


def small_folded_model() -> FoldedModel:
    rng = np.random.default_rng(8)
    blocks = rearrange_to_blocks(WeightTensor4(rng.normal(size=(4, 8, 1, 1))), PATTERN.m)
    values = blocks.values.copy()
    values[:, 1::2] = 0.0  # two of every four entries survive: 2:4 compliant
    sparse = rearrange_from_blocks(BlockMatrix(values, blocks.origin_dims)).values
    model = nn.Model(
        [
            nn.Layer("linear", "fc0", sparse, rng.normal(size=4), eligible=True),
            nn.Layer("linear", "fc1", rng.normal(size=(2, 4, 1, 1)), rng.normal(size=2)),
        ]
    )
    return FoldedModel.from_model(model, {l.name: WeightTensor4(l.weight) for l in model.layers}, PATTERN)


def deflated_copy(src, dst) -> None:
    """Rewrite every member with DEFLATE, the way older versions wrote .nmz files."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w", compression=zipfile.ZIP_DEFLATED) as zout:
        for info in zin.infolist():
            zout.writestr(info.filename, zin.read(info.filename))


@pytest.fixture
def archives(tmp_path):
    folded = small_folded_model()
    stored = tmp_path / "stored.nmz"
    save_compressed_archive(stored, folded, PATTERN)
    deflated = tmp_path / "deflated.nmz"
    deflated_copy(stored, deflated)
    npz = tmp_path / "folded.npz"
    save_folded_archive(npz, folded)
    return {"stored_nmz": stored, "deflated_nmz": deflated, "folded_npz": npz}


def test_deflated_nmz_loads_like_the_stored_archive(archives):
    stored, deflated = archives["stored_nmz"], archives["deflated_nmz"]
    with zipfile.ZipFile(stored) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
    with zipfile.ZipFile(deflated) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}
    got, want = load_compressed_archive(deflated), load_compressed_archive(stored)
    assert [entry for entry, _ in got] == [entry for entry, _ in want]
    assert [type(payload) for _, payload in want] == [CompressedNM, np.ndarray]
    for (_, a), (_, b) in zip(got, want):
        if isinstance(b, CompressedNM):
            assert a.to_bytes() == b.to_bytes()
        else:
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("which", ["stored_nmz", "deflated_nmz", "folded_npz"])
def test_every_byte_flip_loads_or_raises_value_error(archives, which, tmp_path):
    path = archives[which]
    load = load_folded_archive if which == "folded_npz" else load_compressed_archive
    blob = path.read_bytes()
    target = tmp_path / f"flipped{path.suffix}"
    for off in range(len(blob)):
        for flip in (0x01, 0x80):
            corrupt = bytearray(blob)
            corrupt[off] ^= flip
            target.write_bytes(corrupt)
            try:
                load(target)
            except ValueError as exc:
                assert str(target) in str(exc), (off, flip, exc)


def _rewrite_folded_manifest(path, edit):
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    manifest = json.loads(bytes(arrays["manifest"]).decode())
    edit(manifest)
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _rewrite_compressed_manifest(path, edit):
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info.filename) for info in zf.infolist()}
    manifest = json.loads(members["manifest.json"].decode())
    edit(manifest)
    members["manifest.json"] = json.dumps(manifest).encode()
    with zipfile.ZipFile(path, "w") as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)


# name -> (archive, edit of its manifest)
ILL_TYPED_MANIFESTS = {
    "npz_null_stride": ("folded_npz", lambda m: m["layers"][0].update(stride=None)),
    "npz_int_layers": ("folded_npz", lambda m: m.update(layers=5)),
    "nmz_null_layers": ("stored_nmz", lambda m: m.update(layers=None)),
}


@pytest.mark.parametrize("case", sorted(ILL_TYPED_MANIFESTS))
def test_ill_typed_manifest_raises_value_error_naming_the_file(archives, case, capsys):
    which, edit = ILL_TYPED_MANIFESTS[case]
    path = archives[which]
    if which == "folded_npz":
        _rewrite_folded_manifest(path, edit)
        load, argv = load_folded_archive, ["verify", "--weights", str(path), "--pattern", "2:4"]
    else:
        _rewrite_compressed_manifest(path, edit)
        load, argv = load_compressed_archive, ["bench", "--archive", str(path)]
    with pytest.raises(ValueError, match="malformed") as info:
        load(path)
    assert str(path) in str(info.value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err) and str(path) in err
