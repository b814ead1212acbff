"""End-to-end run of the conv architecture on IDX image data."""
import json
import re
import struct

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from nmsparse import datasets, nn, runner, training
from nmsparse.archives import (
    load_compressed_archive,
    load_folded_archive,
    save_compressed_archive,
    save_folded_archive,
)
from nmsparse.checkpoint import load_checkpoint, save_checkpoint
from nmsparse.cli import main
from nmsparse.config import RunConfig
from nmsparse.im2col import col2im, conv_output_size
from nmsparse.masks import SparsePattern
from nmsparse.sparse_format import verify


def make_idx_dataset(tmp_path, samples=96, side=8, seed=0):
    """Bright-quadrant classification: label = quadrant with the most mass."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 64, size=(samples, side, side))
    labels = np.zeros(samples, dtype=np.uint8)
    half = side // 2
    for i in range(samples):
        q = rng.integers(0, 4)
        r0, c0 = (q // 2) * half, (q % 2) * half
        images[i, r0 : r0 + half, c0 : c0 + half] += 160
        labels[i] = q
    im_path, lb_path = tmp_path / "train.images.idx", tmp_path / "train.labels.idx"
    im_path.write_bytes(
        struct.pack(">IIII", datasets.IDX_IMAGES_MAGIC, samples, side, side)
        + images.astype(np.uint8).tobytes()
    )
    lb_path.write_bytes(
        struct.pack(">II", datasets.IDX_LABELS_MAGIC, samples) + labels.tobytes()
    )
    return im_path, lb_path


def test_cnn_idx_training_reaches_compliance_and_learns(tmp_path):
    im_path, lb_path = make_idx_dataset(tmp_path)
    out = tmp_path / "run"
    config = {
        "pattern": {"n": 2, "m": 4},
        "schedule": {"t_i": 0, "t_f": 3},
        "trainer": {
            "arch": "cnn",
            "epochs": 5,
            "batch_size": 32,
            "learning_rate": 0.05,
        },
        "dataset": {"kind": "idx", "images": str(im_path), "labels": str(lb_path)},
        "tau": 0.1,
        "seed": 2,
        "out_dir": str(out),
    }
    cfg_path = tmp_path / "cnn.json"
    cfg_path.write_text(json.dumps(config))

    assert main(["train", "--config", str(cfg_path)]) == 0
    metrics = training.parse_metrics_csv((out / "metrics.csv").read_text())
    assert metrics[-1]["delta"] == 1.0
    assert metrics[-1]["sparsity_conv1"] == 0.5  # 2:4 applied to the interior conv
    assert metrics[-1]["sparsity_conv0"] == 0.0
    assert metrics[-1]["accuracy"] > 0.5  # 4-way task, chance is 0.25

    folded_path = tmp_path / "cnn_folded.npz"
    assert main(["fold", "--ckpt", str(out / "checkpoint.maxq"), "--out", str(folded_path)]) == 0
    assert main(["verify", "--weights", str(folded_path), "--pattern", "2:4"]) == 0

    folded = load_folded_archive(folded_path)
    conv1 = next(l for l in folded.layers if l.name == "conv1")
    assert conv1.eligible
    report = verify(conv1.weight, SparsePattern(2, 4))
    assert report.violating_blocks == 0
    assert report.sparsity >= 0.5

    archive = tmp_path / "cnn.nmz"
    assert main(["compress", "--weights", str(folded_path), "--pattern", "2:4", "--out", str(archive)]) == 0
    assert main(["bench", "--archive", str(archive), "--reps", "2", "--sizes", "16"]) == 0


# The conv lowering and backward pass as they were before im2col became one
# strided copy and backward stopped at layer 0: training through these must
# write the same bytes as training through the library.
def reference_im2col(x, k_h, k_w, stride=1, padding=0):
    b, c, h, w = x.shape
    oh, ow = conv_output_size(h, w, k_h, k_w, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(x, (k_h, k_w), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k_h * k_w, oh * ow)
    return np.ascontiguousarray(cols), (oh, ow)


def reference_backward(model, weights, caches, dlogits):
    grads_w = [np.empty(0)] * len(model.layers)
    grads_b = [np.empty(0)] * len(model.layers)
    dh = dlogits
    for i in reversed(range(len(model.layers))):
        layer, w, cache = model.layers[i], weights[i], caches[i]
        if "relu" in cache:
            dh = dh * cache["relu"]
        if layer.kind == "linear":
            x = cache["x"]
            w2 = w.reshape(layer.c_out, -1)
            grads_w[i] = (dh.T @ x).reshape(w.shape)
            grads_b[i] = dh.sum(axis=0)
            dh = dh @ w2
            if "unflatten" in cache:
                dh = dh.reshape(cache["unflatten"])
        else:
            b, c_out = dh.shape[0], layer.c_out
            k_h, k_w = w.shape[2], w.shape[3]
            dmat = dh.reshape(b, c_out, -1)
            cols = cache["cols"]
            grads_w[i] = np.tensordot(dmat, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
            grads_b[i] = dmat.sum(axis=(0, 2))
            w_mat = w.reshape(c_out, -1)
            dcols = w_mat.T @ dmat
            dh = col2im(dcols, cache["in_shape"], k_h, k_w, layer.stride, layer.padding)
    return grads_w, grads_b


def test_cnn_training_bytes_match_the_reference_lowering(tmp_path, monkeypatch):
    im_path, lb_path = make_idx_dataset(tmp_path, samples=48, side=8, seed=3)
    config = {
        "pattern": {"n": 2, "m": 4},
        "schedule": {"t_i": 0, "t_f": 2},
        "trainer": {"arch": "cnn", "epochs": 3, "batch_size": 16, "learning_rate": 0.05},
        "dataset": {"kind": "idx", "images": str(im_path), "labels": str(lb_path)},
        "tau": 0.1,
        "seed": 7,
        "out_dir": str(tmp_path / "run"),  # the same for both: the checkpoint stores it
    }

    def train():
        _, out = runner.run_training(RunConfig.from_dict(config))
        return [(out / f).read_bytes() for f in ("metrics.csv", "checkpoint.maxq")]

    library = train()
    monkeypatch.setattr(nn, "im2col", reference_im2col)
    monkeypatch.setattr(nn, "backward", reference_backward)
    assert train() == library


def _trained_cnn(tmp_path):
    """A two-epoch CNN run, 2:4 from its second epoch: its config and checkpoint paths."""
    im_path, lb_path = make_idx_dataset(tmp_path, samples=32)
    config = {
        "pattern": {"n": 2, "m": 4},
        "schedule": {"t_i": 0, "t_f": 1},
        "trainer": {"arch": "cnn", "epochs": 2, "batch_size": 16, "learning_rate": 0.05},
        "dataset": {"kind": "idx", "images": str(im_path), "labels": str(lb_path)},
        "seed": 1,
        "out_dir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "cnn.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, tmp_path / "run" / "checkpoint.maxq"


def _assert_one_error_line(capsys, argv, path):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err)
    assert str(path) in err and "stride" in err


def test_resume_from_a_stride_zero_conv_is_one_error_line(tmp_path, capsys):
    _, ckpt_path = _trained_cnn(tmp_path)
    ckpt = load_checkpoint(ckpt_path)
    ckpt.model.layers[1].stride = 0
    ckpt.epoch = 0  # so that resuming runs the conv
    bad = tmp_path / "bad.maxq"
    save_checkpoint(bad, ckpt)
    _assert_one_error_line(capsys, ["train", "--resume", str(bad)], bad)


@pytest.mark.parametrize("stride, padding", [(0, 1), (1, -1)])
def test_folded_conv_with_bad_geometry_is_one_error_line(stride, padding, tmp_path, capsys):
    _, ckpt_path = _trained_cnn(tmp_path)
    good = tmp_path / "folded.npz"
    assert main(["fold", "--ckpt", str(ckpt_path), "--out", str(good)]) == 0
    folded = load_folded_archive(good)
    folded.layers[1].stride, folded.layers[1].padding = stride, padding
    bad = tmp_path / "bad.npz"
    save_folded_archive(bad, folded)
    _assert_one_error_line(capsys, ["verify", "--weights", str(bad), "--pattern", "2:4"], bad)


@pytest.mark.parametrize("stride, padding", [(0, 1), (1, -1)])
def test_compressed_conv_with_bad_geometry_is_rejected_at_load(stride, padding, tmp_path, capsys):
    _, ckpt_path = _trained_cnn(tmp_path)
    good = tmp_path / "folded.npz"
    assert main(["fold", "--ckpt", str(ckpt_path), "--out", str(good)]) == 0
    folded = load_folded_archive(good)
    folded.layers[1].stride, folded.layers[1].padding = stride, padding
    bad = tmp_path / "bad.nmz"
    save_compressed_archive(bad, folded, SparsePattern(2, 4))
    with pytest.raises(ValueError, match="need stride >= 1 and padding >= 0") as info:
        load_compressed_archive(bad)
    assert str(bad) in str(info.value)
    _assert_one_error_line(capsys, ["bench", "--archive", str(bad), "--reps", "1", "--sizes", "4"], bad)
