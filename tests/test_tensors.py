import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmsparse.errors import DimensionError
from nmsparse.tensors import (
    BlockMatrix,
    WeightTensor4,
    block_l1_norms,
    block_layout_inverse,
    rearrange_to_blocks,
)


def from_blocks(bm):
    """The 4D tensor a block matrix came from, through the inverse layout."""
    return WeightTensor4(block_layout_inverse(bm.values, bm.origin_dims))


def block_of_coord(dims, m, o, c, kh, kw):
    """Map a 4D weight coordinate to its (block row, column), written out by hand."""
    c_out, c_in, k_h, k_w = dims
    cb, j = divmod(c, m)
    g = ((o * k_h + kh) * k_w + kw) * (c_in // m) + cb
    return g, j


def coord_of_block(dims, m, g, j):
    """Inverse of :func:`block_of_coord`."""
    c_out, c_in, k_h, k_w = dims
    g2, cb = divmod(g, c_in // m)
    g3, kw = divmod(g2, k_w)
    o, kh = divmod(g3, k_h)
    return o, cb * m + j, kh, kw


def random_tensor(rng, dims):
    return WeightTensor4(rng.normal(size=dims))


def test_single_block_identity():
    w = WeightTensor4(np.reshape([1.0, 2.0, 3.0, 4.0], (1, 4, 1, 1)))
    bm = rearrange_to_blocks(w, 4)
    assert bm.values.shape == (1, 4)
    np.testing.assert_array_equal(bm.values, [[1.0, 2.0, 3.0, 4.0]])


def test_two_filters_layout():
    w = WeightTensor4(np.reshape(np.arange(8.0), (2, 4, 1, 1)))
    bm = rearrange_to_blocks(w, 4)
    assert bm.values.shape[0] == 2
    np.testing.assert_array_equal(bm.values[0], w.values[0, :, 0, 0])
    np.testing.assert_array_equal(bm.values[1], w.values[1, :, 0, 0])


def test_block_count_formula():
    # g = c_out * k_h * k_w * c_in / m
    w = random_tensor(np.random.default_rng(0), (1, 8, 3, 3))
    bm = rearrange_to_blocks(w, 4)
    assert bm.values.shape[0] == 1 * 3 * 3 * (8 // 4) == 18


def test_blocks_are_consecutive_input_channels():
    rng = np.random.default_rng(1)
    w = random_tensor(rng, (3, 8, 2, 2))
    m = 4
    bm = rearrange_to_blocks(w, m)
    for g in range(bm.values.shape[0]):
        for j in range(m):
            o, c, kh, kw = coord_of_block(w.dims, m, g, j)
            assert bm.values[g, j] == w.values[o, c, kh, kw]
        # the m entries share (o, kh, kw) and cover consecutive channels
        coords = [coord_of_block(w.dims, m, g, j) for j in range(m)]
        assert len({(o, kh, kw) for o, _, kh, kw in coords}) == 1
        channels = [c for _, c, _, _ in coords]
        assert channels == list(range(channels[0], channels[0] + m))


def test_indivisible_block_width_rejected():
    w = random_tensor(np.random.default_rng(2), (2, 6, 1, 1))
    with pytest.raises(DimensionError):
        rearrange_to_blocks(w, 4)
    with pytest.raises(DimensionError):
        rearrange_to_blocks(w, 1)


def test_round_trip_single_block():
    w = WeightTensor4(np.reshape([0.5, -1.0, 2.0, 0.0], (1, 4, 1, 1)))
    back = from_blocks(rearrange_to_blocks(w, 4))
    np.testing.assert_array_equal(back.values, w.values)


@settings(max_examples=50, deadline=None)
@given(
    c_out=st.integers(1, 5),
    blocks=st.integers(1, 4),
    m=st.integers(2, 8),
    k_h=st.integers(1, 3),
    k_w=st.integers(1, 3),
    seed=st.integers(0, 2**31),
)
def test_round_trip_property(c_out, blocks, m, k_h, k_w, seed):
    dims = (c_out, blocks * m, k_h, k_w)
    w = random_tensor(np.random.default_rng(seed), dims)
    back = from_blocks(rearrange_to_blocks(w, m))
    assert back.dims == w.dims
    np.testing.assert_array_equal(back.values, w.values)


def test_round_trip_randomized_suite():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.choice([2, 4, 8]))
        dims = (
            int(rng.integers(1, 5)),
            m * int(rng.integers(1, 4)),
            int(rng.integers(1, 4)),
            int(rng.integers(1, 4)),
        )
        w = random_tensor(rng, dims)
        back = from_blocks(rearrange_to_blocks(w, m))
        np.testing.assert_array_equal(back.values, w.values)


def test_coordinate_map_is_a_bijection():
    dims = (3, 8, 2, 3)
    m = 4
    g_count = 3 * 2 * 3 * 2
    seen = set()
    for g in range(g_count):
        for j in range(m):
            o, c, kh, kw = coord_of_block(dims, m, g, j)
            assert block_of_coord(dims, m, o, c, kh, kw) == (g, j)
            seen.add((o, c, kh, kw))
    assert len(seen) == 3 * 8 * 2 * 3


def test_block_l1_norms_hand_values():
    bm = BlockMatrix(np.array([[1.0, -2.0, 3.0, -4.0], [0.0, 0.0, 0.0, 0.0]]), (2, 4, 1, 1))
    np.testing.assert_array_equal(block_l1_norms(bm), [10.0, 0.0])


def test_block_l1_norms_against_loop_oracle():
    # integer-valued doubles make every summation order exact
    rng = np.random.default_rng(3)
    vals = rng.integers(-50, 50, size=(40, 8)).astype(np.float64)
    bm = BlockMatrix(vals, (5, 8, 2, 4))
    expected = [sum(abs(x) for x in row) for row in vals]
    np.testing.assert_array_equal(block_l1_norms(bm), expected)


def test_block_l1_norms_permutation_invariant():
    rng = np.random.default_rng(4)
    vals = rng.integers(-100, 100, size=(10, 6)).astype(np.float64)
    bm = BlockMatrix(vals, (5, 6, 1, 2))
    shuffled = BlockMatrix(np.take_along_axis(vals, rng.permuted(np.tile(np.arange(6), (10, 1)), axis=1), axis=1), (5, 6, 1, 2))
    np.testing.assert_array_equal(block_l1_norms(bm), block_l1_norms(shuffled))


def test_weight_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        WeightTensor4(np.full((1, 2, 1, 1), np.nan))


def test_magnitudes_are_abs_values_computed_once_and_read_only():
    w = WeightTensor4(np.reshape([0.5, -1.0, -0.0, 2.0], (1, 4, 1, 1)))
    mags = w.magnitudes
    assert mags.tobytes() == np.abs(w.values).tobytes()
    assert w.magnitudes is mags
    assert not mags.flags.writeable
    assert not np.shares_memory(mags, w.values)
