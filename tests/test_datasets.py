import struct

import numpy as np
import pytest

from nmsparse import datasets


def write_idx_images(path, images):
    """Test fixture writer for the IDX image format (big-endian, ubyte)."""
    n, h, w = images.shape
    blob = struct.pack(">IIII", datasets.IDX_IMAGES_MAGIC, n, h, w) + images.astype(np.uint8).tobytes()
    path.write_bytes(blob)


def write_idx_labels(path, labels):
    blob = struct.pack(">II", datasets.IDX_LABELS_MAGIC, len(labels)) + labels.astype(np.uint8).tobytes()
    path.write_bytes(blob)


def test_two_spirals_shape_balance_determinism():
    a = datasets.two_spirals(samples=500, noise=0.02, seed=3)
    b = datasets.two_spirals(samples=500, noise=0.02, seed=3)
    assert a.X.shape == (500, 2) and a.y.shape == (500,)
    assert a.num_classes == 2
    assert abs(int((a.y == 0).sum()) - 250) <= 1
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    c = datasets.two_spirals(samples=500, noise=0.02, seed=4)
    assert not np.array_equal(a.X, c.X)


def test_two_spirals_classes_are_separated():
    # the two spirals should not collapse onto each other
    data = datasets.two_spirals(samples=400, noise=0.0, seed=0)
    r = np.hypot(data.X[:, 0], data.X[:, 1])
    assert r.max() <= 1.2
    assert r.min() >= 0.0


def test_two_gaussians():
    data = datasets.two_gaussians(samples=300, separation=4.0, seed=1)
    assert data.X.shape == (300, 2)
    mean0 = data.X[data.y == 0, 0].mean()
    mean1 = data.X[data.y == 1, 0].mean()
    assert mean0 < -1.0 < 1.0 < mean1


def test_csv_round_trip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n3.5,-1.0,2\n0.0,0.5,1\n")
    data = datasets.from_csv(path, "label")
    np.testing.assert_array_equal(data.X, [[1.0, 2.0], [3.5, -1.0], [0.0, 0.5]])
    np.testing.assert_array_equal(data.y, [0, 2, 1])
    assert data.num_classes == 3
    with pytest.raises(ValueError):
        datasets.from_csv(path, "missing")


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 6, 6)).astype(np.uint8)
    labels = rng.integers(0, 4, size=10).astype(np.uint8)
    write_idx_images(tmp_path / "im.idx", images)
    write_idx_labels(tmp_path / "lb.idx", labels)
    data = datasets.load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")
    assert data.X.shape == (10, 1, 6, 6)
    assert data.X.max() <= 1.0 and data.X.min() >= 0.0
    np.testing.assert_array_equal((data.X[:, 0] * 255).round().astype(np.uint8), images)
    np.testing.assert_array_equal(data.y, labels)


def test_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">I", 0xDEADBEEF))
    with pytest.raises(ValueError):
        datasets.read_idx(path)


def test_idx_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", datasets.IDX_IMAGES_MAGIC, 2, 4, 4) + b"\x00" * 10)
    with pytest.raises(ValueError):
        datasets.read_idx(path)


def test_idx_mismatched_counts(tmp_path):
    rng = np.random.default_rng(1)
    write_idx_images(tmp_path / "im.idx", rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8))
    write_idx_labels(tmp_path / "lb.idx", np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        datasets.load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")


def test_build_dispatch(tmp_path):
    data = datasets.build({"kind": "two_spirals", "samples": 50, "noise": 0.1, "seed": 2})
    assert len(data.y) == 50
    with pytest.raises(ValueError):
        datasets.build({"kind": "mystery"})


def test_idx_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">I", datasets.IDX_IMAGES_MAGIC) + b"\x00\x00")
    with pytest.raises(ValueError, match="truncated IDX header") as info:
        datasets.read_idx(path)
    assert str(path) in str(info.value)


def test_build_passes_keys_to_the_builder_and_uses_its_defaults():
    assert set(datasets.BUILDERS) == {"two_spirals", "two_gaussians", "csv", "idx"}
    data = datasets.build({"kind": "two_gaussians"})
    expected = datasets.two_gaussians()
    np.testing.assert_array_equal(data.X, expected.X)
    assert len(data.y) == 1000
