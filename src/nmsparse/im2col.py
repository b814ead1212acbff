"""Patch-matrix lowering for 2D convolution.

Columns are ordered (c_in, k_h, k_w) row-major, matching the flattened
weight matrix used by the dense and sparse GEMM paths.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError


def conv_output_size(h: int, w: int, k_h: int, k_w: int, stride: int, padding: int) -> tuple[int, int]:
    if stride < 1 or padding < 0:
        raise DimensionError(f"stride {stride} must be >= 1 and padding {padding} >= 0")
    oh = (h + 2 * padding - k_h) // stride + 1
    ow = (w + 2 * padding - k_w) // stride + 1
    if oh < 1 or ow < 1:
        raise DimensionError(
            f"kernel ({k_h}x{k_w}, stride {stride}, padding {padding}) does not fit input {h}x{w}"
        )
    return oh, ow


def im2col(x: np.ndarray, k_h: int, k_w: int, stride: int = 1, padding: int = 0) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower a (B, C, H, W) batch to (B, C*k_h*k_w, oh*ow) patch matrices.

    The result is a fresh, writable, C-contiguous array: the input goes into
    a zero-padded buffer, and one copy lays out a strided window view of it.
    """
    if x.ndim != 4:
        raise DimensionError(f"expected a (B, C, H, W) input, got {x.ndim}D")
    b, c, h, w = x.shape
    oh, ow = conv_output_size(h, w, k_h, k_w, stride, padding)
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    s0, s1, s2, s3 = xp.strides
    win = as_strided(xp, (b, c, k_h, k_w, oh, ow), (s0, s1, s2, s3, stride * s2, stride * s3))
    return np.ascontiguousarray(win).reshape(b, c * k_h * k_w, oh * ow), (oh, ow)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    k_h: int,
    k_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Scatter-add a patch matrix back onto the (B, C, H, W) input grid."""
    b, c, h, w = input_shape
    oh, ow = conv_output_size(h, w, k_h, k_w, stride, padding)
    patches = cols.reshape(b, c, k_h, k_w, oh, ow)
    out = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(k_h):
        for j in range(k_w):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += patches[:, :, i, j]
    return out[:, :, padding : padding + h, padding : padding + w]
