import hashlib
import io
import json
import re
import time
import zipfile

import numpy as np
import pytest

from nmsparse import nn
from nmsparse.archives import (
    FoldedLayer,
    FoldedModel,
    load_compressed_archive,
    load_folded_archive,
    save_compressed_archive,
    save_folded_archive,
)
from nmsparse.checkpoint import load_checkpoint, save_checkpoint
from nmsparse.cli import main
from nmsparse.errors import PatternViolationError
from nmsparse.masks import SparsePattern
from nmsparse.sparse_format import CompressedNM
from nmsparse.tensors import WeightTensor4, block_layout_inverse, rearrange_to_blocks
from test_checkpoint import _golden_checkpoint

PATTERN = SparsePattern(2, 4)


def as_folded(model: nn.Model, pattern: SparsePattern | None) -> FoldedModel:
    """``model``'s weights, taken as already folded."""
    layers = [FoldedLayer(l.name, l.kind, WeightTensor4(l.weight), l.bias, l.eligible, l.stride, l.padding) for l in model.layers]
    return FoldedModel(layers, pattern)


def small_folded_model() -> FoldedModel:
    rng = np.random.default_rng(8)
    blocks = rearrange_to_blocks(WeightTensor4(rng.normal(size=(4, 8, 1, 1))), PATTERN.m)
    values = blocks.values.copy()
    values[:, 1::2] = 0.0  # two of every four entries survive: 2:4 compliant
    sparse = block_layout_inverse(values, blocks.origin_dims)
    model = nn.Model(
        [
            nn.Layer("linear", "fc0", sparse, rng.normal(size=4), eligible=True),
            nn.Layer("linear", "fc1", rng.normal(size=(2, 4, 1, 1)), rng.normal(size=2)),
        ]
    )
    return as_folded(model, PATTERN)


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
    maxq = tmp_path / "golden.maxq"
    save_checkpoint(maxq, _golden_checkpoint())
    return {"stored_nmz": stored, "deflated_nmz": deflated, "folded_npz": npz, "golden_maxq": maxq}


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


# (name, compress_type, SHA-256 of the member bytes) in archive order.
GOLDEN_MEMBERS = {
    "stored_nmz": [
        ("manifest.json", zipfile.ZIP_STORED, "fd8de88c232d2ae38f3cfbc9bfd9747b9f9f9ec59a8d5324c21f4d8f294127c1"),
        ("fc0.nmsp", zipfile.ZIP_STORED, "e10d61e7282c3d4b0c3aaef0fafb2430e156f3a89738f405bbe91c2c8998ad58"),
        ("fc0.bias.npy", zipfile.ZIP_STORED, "3213a6ddf7e4be9b32a493c3769a4b71b2bed484d9cc8dfafd26dbe063d25922"),
        ("fc1.npy", zipfile.ZIP_STORED, "658f38c7969f09e3a1df1c9c04582fba87cdee6ad070ce48eac43036ef2d4e0f"),
        ("fc1.bias.npy", zipfile.ZIP_STORED, "99feaaf8670399bdbe74cab3030947c2e17a1779d197c7c4d7e1cb876d406228"),
    ],
    "folded_npz": [
        ("manifest.npy", zipfile.ZIP_STORED, "7d609960e8f307c6750e9edf249e0723a75cc6d86e6fdf9139fbaa902cd5d4e5"),
        ("w_fc0.npy", zipfile.ZIP_STORED, "4701d905a04f18ba824800a222183ad8d9187009d40931226e71c3e4aa093db0"),
        ("b_fc0.npy", zipfile.ZIP_STORED, "47ba5ed70e454ffcb16658c0c2a64efde76f53a58f4920882d7329ff9f5dc068"),
        ("w_fc1.npy", zipfile.ZIP_STORED, "fbefea8d19b394527282e4040b0b167363796b760a8116c81414f0eed860837e"),
        ("b_fc1.npy", zipfile.ZIP_STORED, "fe1f42086d569a805c970b1c27c0a11fe155b2ed41bf62c5daf7db3de4595deb"),
    ],
}


@pytest.mark.parametrize("which", sorted(GOLDEN_MEMBERS))
def test_archive_members_match_golden_digests(archives, which):
    with zipfile.ZipFile(archives[which]) as zf:
        got = [(i.filename, i.compress_type, hashlib.sha256(zf.read(i)).hexdigest()) for i in zf.infolist()]
    assert got == GOLDEN_MEMBERS[which]


def test_two_compresses_of_one_folded_archive_are_byte_equal(archives, tmp_path, monkeypatch):
    first, second = tmp_path / "first.nmz", tmp_path / "second.nmz"
    argv = ["compress", "--weights", str(archives["folded_npz"]), "--pattern", "2:4", "--out"]
    assert main([*argv, str(first)]) == 0
    now = time.time()
    monkeypatch.setattr(time, "time", lambda: now + 3600.0)  # the second run is an hour later
    assert main([*argv, str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    with zipfile.ZipFile(second) as zf:
        assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}


def test_failed_compressed_write_leaves_the_old_archive_and_no_temp_file(tmp_path, capsys):
    folded = small_folded_model()  # 2:4 compliant, so 1:4 fails on the first eligible layer
    target = tmp_path / "model.nmz"
    save_compressed_archive(target, folded, PATTERN)
    before = target.read_bytes()
    with pytest.raises(PatternViolationError):
        save_compressed_archive(target, folded, SparsePattern(1, 4))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.nmz"]
    assert target.read_bytes() == before

    weights = tmp_path / "folded.npz"
    save_folded_archive(weights, folded)
    assert main(["compress", "--weights", str(weights), "--pattern", "1:4", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*nonzeros[^\n]*\n", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folded.npz", "model.nmz"]
    assert target.read_bytes() == before


# A .maxq array header holds u64 dims; a numpy overflow warning while sizing one fails the case.
@pytest.mark.parametrize(
    "which",
    ["stored_nmz", "deflated_nmz", "folded_npz",
     pytest.param("golden_maxq", marks=pytest.mark.filterwarnings("error::RuntimeWarning"))],
)
def test_every_byte_flip_loads_or_raises_value_error(archives, which, tmp_path):
    path = archives[which]
    load = {"folded_npz": load_folded_archive, "golden_maxq": load_checkpoint}.get(which, load_compressed_archive)
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
    manifest = edit(manifest, arrays) or manifest  # an edit may return a whole new manifest
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _rewrite_compressed_manifest(path, edit):
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info.filename) for info in zf.infolist()}
    manifest = json.loads(members["manifest.json"].decode())
    manifest = edit(manifest, members) or manifest  # an edit may return a whole new manifest
    members["manifest.json"] = json.dumps(manifest).encode()
    with zipfile.ZipFile(path, "w") as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)


def _edit_layer0(**fields):
    return lambda manifest, _: manifest["layers"][0].update(fields)


def _flatten_dense_layer1(manifest, members):
    """Store the dense layer fc1 as a 2D array, with manifest dims to match."""
    buf = io.BytesIO()
    np.save(buf, np.load(io.BytesIO(members["fc1.npy"])).reshape(2, 4))
    members["fc1.npy"] = buf.getvalue()
    manifest["layers"][1]["dims"] = [2, 4]


# name -> (archive, edit of its manifest and members)
ILL_TYPED_MANIFESTS = {
    "npz_null_stride": ("folded_npz", _edit_layer0(stride=None)),
    "npz_int_layers": ("folded_npz", lambda m, _: m.update(layers=5)),
    "npz_string_eligible": ("folded_npz", _edit_layer0(eligible="no")),
    "npz_dims_unlike_weight": ("folded_npz", _edit_layer0(dims=[4, 4, 1, 1])),
    "npz_short_bias": ("folded_npz", lambda _, arrays: arrays.update(b_fc0=arrays["b_fc0"][:3])),
    "npz_nan_bias": ("folded_npz", lambda _, arrays: arrays.update(b_fc0=np.full_like(arrays["b_fc0"], np.nan))),
    "npz_listed_manifest": ("folded_npz", lambda m, _: [m]),
    "npz_compressed_format": ("folded_npz", lambda m, _: m.update(format="nmsparse-compressed")),
    "npz_version_2": ("folded_npz", lambda m, _: m.update(version=2)),
    "nmz_null_layers": ("stored_nmz", lambda m, _: m.update(layers=None)),
    "nmz_listed_manifest": ("stored_nmz", lambda m, _: [m]),
    "nmz_folded_format": ("stored_nmz", lambda m, _: m.update(format="nmsparse-folded")),
    "nmz_version_2": ("stored_nmz", lambda m, _: m.update(version=2)),
    "nmz_bogus_kind": ("stored_nmz", _edit_layer0(kind="bogus")),
    "nmz_dims_unlike_payload": ("stored_nmz", _edit_layer0(dims=[99, 1, 1, 1])),
    "nmz_missing_bias": ("stored_nmz", _edit_layer0(bias_file="missing.npy")),
    "nmz_flat_dense": ("stored_nmz", _flatten_dense_layer1),
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
