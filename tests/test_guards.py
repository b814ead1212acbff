"""Each public guard against a malformed argument raises its own error type and message."""
import re
import struct

import numpy as np
import pytest

from nmsparse import nn
from nmsparse.datasets import Dataset, load_idx, read_idx
from nmsparse.errors import DimensionError, FieldError
from nmsparse.im2col import im2col
from nmsparse.masks import (
    WORKER_MIN_WEIGHTS,
    HardMask,
    SparsePattern,
    arg_bottom_per_block,
    build_masks,
    filter_axis_scores,
    hard_mask,
    hard_mask_top_width,
    kernel_axis_scores,
    soft_mask,
)
from nmsparse.sparse_format import bench, compress, conv2d_sparse, spmm
from nmsparse.tensors import BlockMatrix, WeightTensor4, block_layout, block_layout_inverse
from nmsparse.training import TrainConfig

P24 = SparsePattern(2, 4)


def _wide_blocks() -> BlockMatrix:
    """Blocks 8 wide, which a 2:4 pattern does not match."""
    return BlockMatrix(np.ones((2, 8)), (2, 8, 1, 1))


def _compressed():
    return compress(WeightTensor4(np.array([[1.0, 0.0, -2.0, 0.0], [0.0, 3.0, 0.0, 4.0]]).reshape(2, 4, 1, 1)), P24)


def _forward(layers, weights, x):
    return nn.forward(nn.Model(layers), weights, x)


def _conv0():
    return nn.Layer("conv", "conv0", np.ones((2, 1, 3, 3)), np.zeros(2))


def _file(path, blob):
    path.write_bytes(blob)
    return path


def _idx_pair(tmp, labels=2):
    images = _file(tmp / "images.idx", struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(8))
    labels = _file(tmp / "labels.idx", struct.pack(">II", 0x801, labels) + bytes(labels))
    return images, labels


# name -> (call taking a temporary directory, the error type it raises, a fragment of its message)
GUARDS = {
    "masks_pattern_float_n": (lambda _: SparsePattern(2.0, 4), FieldError, "must be integers"),
    "masks_hard_mask_1d_bits": (lambda _: HardMask(np.ones(4)), DimensionError, "mask bits must be 2D"),
    "masks_arg_bottom_width": (
        lambda _: arg_bottom_per_block(_wide_blocks(), P24), DimensionError, "block width 8 does not match pattern 2:4"
    ),
    "masks_hard_mask_width": (
        lambda _: hard_mask(_wide_blocks(), P24, 0.5), DimensionError, "block width 8 does not match pattern 2:4"
    ),
    "masks_top_width_kept": (
        lambda _: hard_mask_top_width(BlockMatrix(np.ones((2, 4)), (2, 4, 1, 1)), 5),
        DimensionError,
        "kept width 5 out of range for m=4",
    ),
    "masks_filter_scores_c_in": (
        lambda _: filter_axis_scores(WeightTensor4(np.ones((2, 6, 1, 1))), P24, 0.1), DimensionError, "c_in=6"
    ),
    "masks_kernel_scores_c_in": (
        lambda _: kernel_axis_scores(WeightTensor4(np.ones((2, 6, 3, 3))), P24, 0.1), DimensionError, "c_in=6"
    ),
    "masks_soft_mask_size": (
        lambda _: soft_mask(HardMask(np.ones((2, 4))), np.ones((1, 4, 1, 1)), np.ones((1, 4, 1, 1))),
        DimensionError,
        "axis scores hold 4 entries, mask needs 8",
    ),
    "masks_build_masks_mode": (
        lambda _: build_masks(WeightTensor4(np.ones((2, 4, 1, 1))), P24, 0.1, 0.5, mode="bogus"),
        ValueError,
        "unknown mask mode 'bogus'",
    ),
    "tensors_block_layout_3d": (lambda _: block_layout(np.ones((2, 4, 1)), 4), DimensionError, "got 3D"),
    "tensors_inverse_size": (
        lambda _: block_layout_inverse(np.ones((2, 4)), (2, 4, 1, 2)), DimensionError, "holds 8 values, target dims need 16"
    ),
    "tensors_weight_3d": (lambda _: WeightTensor4(np.ones((2, 4, 1))), DimensionError, "expected 4D weight, got 3D"),
    "tensors_weight_empty": (lambda _: WeightTensor4(np.ones((0, 4, 1, 1))), DimensionError, "empty weight tensor"),
    "tensors_blocks_1d": (lambda _: BlockMatrix(np.ones(8), (2, 4, 1, 1)), DimensionError, "2D block matrix, got 1D"),
    "tensors_blocks_size": (
        lambda _: BlockMatrix(np.ones((2, 4)), (2, 8, 1, 1)), DimensionError, "cannot come from a tensor of dims"
    ),
    "im2col_kernel_too_large": (lambda _: im2col(np.ones((1, 1, 2, 2)), 3, 3), DimensionError, "does not fit input 2x2"),
    "im2col_3d_input": (lambda _: im2col(np.ones((1, 4, 4)), 3, 3), DimensionError, "(B, C, H, W) input, got 3D"),
    "nn_mlp_one_size": (lambda _: nn.mlp([2], np.random.default_rng(0)), ValueError, "at least input and output"),
    "nn_forward_weight_count": (
        lambda _: _forward([_conv0()], [], np.ones((1, 1, 4, 4))), DimensionError, "0 weight arrays for 1 layers"
    ),
    "nn_forward_conv_input": (
        lambda _: _forward([_conv0()], [np.ones((2, 1, 3, 3))], np.ones((1, 2, 4, 4))),
        DimensionError,
        "layer conv0 expects (B, 1, H, W) input",
    ),
    "nn_forward_unknown_kind": (
        lambda _: _forward([nn.Layer("bogus", "b0", np.ones((2, 4, 1, 1)), np.zeros(2))], [np.ones((2, 4, 1, 1))], np.ones((1, 4))),
        ValueError,
        "unknown layer kind 'bogus'",
    ),
    "sparse_format_spmm_3d": (lambda _: spmm(_compressed(), np.ones((4, 1, 1))), DimensionError, "got 3D"),
    "sparse_format_conv_2d": (lambda _: conv2d_sparse(_compressed(), np.ones((4, 4))), DimensionError, "got 2D"),
    "sparse_format_bench_0_reps": (
        lambda _: bench(_compressed(), np.ones((4, 2)), repetitions=0), ValueError, "need at least one repetition"
    ),
    "datasets_unequal_lengths": (
        lambda _: Dataset(np.ones((3, 2)), np.zeros(2, dtype=np.int64), 2), ValueError, "3 samples but 2 labels"
    ),
    "datasets_no_samples": (
        lambda _: Dataset(np.ones((0, 2)), np.zeros(0, dtype=np.int64), 2), ValueError, "empty dataset"
    ),
    "datasets_idx_under_4_bytes": (
        lambda tmp: read_idx(_file(tmp / "short.idx", b"\x00\x00\x08")), ValueError, "truncated IDX header"
    ),
    "datasets_idx_swapped": (lambda tmp: load_idx(*reversed(_idx_pair(tmp))), ValueError, "expected image data"),
    "datasets_idx_images_as_labels": (
        lambda tmp: load_idx(*[_idx_pair(tmp)[0]] * 2), ValueError, "expected label data"
    ),
    "datasets_idx_counts": (lambda tmp: load_idx(*_idx_pair(tmp, labels=3)), ValueError, "2 images but 3 labels"),
    "training_pattern_without_schedule": (
        lambda _: TrainConfig(pattern=P24), FieldError, "a sparse pattern needs a schedule"
    ),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_public_guard_raises_its_error(case, tmp_path):
    call, error, fragment = GUARDS[case]
    with pytest.raises(error, match=re.escape(fragment)) as info:
        call(tmp_path)
    assert type(info.value) is error


# case -> (c_in, bad build_masks arguments, error, message fragment); several bad arguments pin which check runs first
BAD_MASK_CALLS = {
    "mode": (128, {"mode": "bogus"}, ValueError, "unknown mask mode 'bogus'"),
    "ordering": (128, {"ordering": "bogus"}, ValueError, "unknown ordering 'bogus'"),
    "delta": (128, {"delta": 1.5}, ValueError, "delta must lie in [0, 1], got 1.5"),
    "tau": (128, {"tau": 0.0}, ValueError, "temperature must be positive, got 0.0"),
    "c_in_before_mode": (130, {"mode": "bogus"}, DimensionError, "block width 4 does not divide c_in=130"),
    "mode_before_delta": (128, {"mode": "bogus", "delta": 1.5}, ValueError, "unknown mask mode 'bogus'"),
    "delta_before_tau": (128, {"delta": 1.5, "tau": 0.0}, ValueError, "delta must lie in [0, 1]"),
    "ordering_before_tau": (128, {"ordering": "bogus", "tau": 0.0}, ValueError, "unknown ordering 'bogus'"),
}


@pytest.mark.parametrize("case", sorted(BAD_MASK_CALLS))
def test_build_masks_raises_the_same_error_when_the_worker_thread_serves_the_layer(case):
    c_in, bad, error, fragment = BAD_MASK_CALLS[case]
    for c_out in (4, 256):  # 256 rows put the layer at or above WORKER_MIN_WEIGHTS
        w = WeightTensor4(np.random.default_rng(0).normal(size=(c_out, c_in, 1, 1)))
        with pytest.raises(error, match=re.escape(fragment)) as info:
            build_masks(w, **{"pattern": P24, "tau": 0.1, "delta": 0.5, **bad})
        assert type(info.value) is error
    assert w.values.size >= WORKER_MIN_WEIGHTS
    w = WeightTensor4(np.random.default_rng(0).normal(size=(256, 128, 1, 1)))
    hard, soft = build_masks(w, P24, 0.1, 0.5)  # the worker is free for the next layer
    assert soft.shape == hard.bits.shape == (256 * 32, 4)
