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
