"""im2col/col2im against per-position loop references."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nmsparse.errors import DimensionError
from nmsparse.im2col import col2im, conv_output_size, im2col


def loop_im2col(x, k_h, k_w, stride, padding):
    b, c, h, w = x.shape
    oh = (h + 2 * padding - k_h) // stride + 1
    ow = (w + 2 * padding - k_w) // stride + 1
    cols = np.zeros((b, c * k_h * k_w, oh * ow), dtype=x.dtype)
    for n in range(b):
        for ch in range(c):
            for i in range(k_h):
                for j in range(k_w):
                    row = (ch * k_h + i) * k_w + j
                    for y in range(oh):
                        for z in range(ow):
                            r, s = y * stride + i - padding, z * stride + j - padding
                            if 0 <= r < h and 0 <= s < w:
                                cols[n, row, y * ow + z] = x[n, ch, r, s]
    return cols, (oh, ow)


def loop_col2im(cols, input_shape, k_h, k_w, stride, padding):
    """Adds every patch entry onto a zero grid, kernel offsets in (i, j) order."""
    b, c, h, w = input_shape
    oh = (h + 2 * padding - k_h) // stride + 1
    ow = (w + 2 * padding - k_w) // stride + 1
    out = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    patches = cols.reshape(b, c, k_h, k_w, oh, ow)
    for i in range(k_h):
        for j in range(k_w):
            for y in range(oh):
                for z in range(ow):
                    out[:, :, y * stride + i, z * stride + j] += patches[:, :, i, j, y, z]
    return out[:, :, padding : padding + h, padding : padding + w]


geometry = dict(
    b=st.integers(1, 2),
    c=st.integers(1, 3),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    k_h=st.integers(1, 3),
    k_w=st.integers(1, 3),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=200, deadline=None)
@given(**geometry)
@example(b=1, c=2, h=4, w=5, k_h=1, k_w=1, stride=1, padding=0, seed=0)
def test_im2col_matches_loop_and_owns_a_fresh_contiguous_array(b, c, h, w, k_h, k_w, stride, padding, seed):
    assume(h + 2 * padding >= k_h and w + 2 * padding >= k_w)
    x = np.random.default_rng(seed).normal(size=(b, c, h, w))
    cols, size = im2col(x, k_h, k_w, stride, padding)
    want, want_size = loop_im2col(x, k_h, k_w, stride, padding)
    assert size == want_size
    assert cols.shape == want.shape and np.array_equal(cols, want)
    assert cols.flags.writeable and cols.flags.c_contiguous
    assert not np.shares_memory(cols, x)


@settings(max_examples=200, deadline=None)
@given(**geometry)
def test_col2im_is_bitwise_equal_to_ordered_loop(b, c, h, w, k_h, k_w, stride, padding, seed):
    assume(h + 2 * padding >= k_h and w + 2 * padding >= k_w)
    oh, ow = conv_output_size(h, w, k_h, k_w, stride, padding)
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(b, c * k_h * k_w, oh * ow))
    cols[rng.random(cols.shape) < 0.25] = -0.0
    got = col2im(cols, (b, c, h, w), k_h, k_w, stride, padding)
    want = loop_col2im(cols, (b, c, h, w), k_h, k_w, stride, padding)
    assert got.shape == (b, c, h, w)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stride, padding", [(0, 1), (-1, 0), (1, -1)])
def test_bad_geometry_raises_dimension_error(stride, padding):
    with pytest.raises(DimensionError, match="stride"):
        conv_output_size(8, 8, 3, 3, stride, padding)
    with pytest.raises(DimensionError, match="stride"):
        im2col(np.zeros((1, 1, 8, 8)), 3, 3, stride, padding)
