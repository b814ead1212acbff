import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import correlate2d

from nmsparse.errors import DimensionError, PatternViolationError
from nmsparse.masks import SparsePattern, build_masks
from nmsparse.sparse_format import (
    CompressedNM,
    _csr_matrix,
    bench,
    compress,
    conv2d_sparse,
    decompress,
    spmm,
    verify,
)
from nmsparse.tensors import WeightTensor4, block_layout, block_layout_inverse, rearrange_to_blocks

HEADER = struct.Struct("<4sHBB4IQ")


def masked_tensor(rng, dims, pattern, delta=1.0):
    """Random tensor folded to the pattern (binary fold keeps magnitudes exact)."""
    w = WeightTensor4(rng.uniform(-1.0, 1.0, size=dims))
    hard, _ = build_masks(w, pattern, 0.1, delta=delta)
    bm = rearrange_to_blocks(w, pattern.m)
    vals = block_layout_inverse(bm.values * hard.bits, dims)
    return WeightTensor4(vals)


def dense_conv_oracle(w, x, stride, padding):
    """Plain correlation per (out, in) channel pair via scipy."""
    c_out, c_in = w.shape[0], w.shape[1]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    outs = []
    for o in range(c_out):
        acc = sum(correlate2d(xp[c], w[o, c], mode="valid") for c in range(c_in))
        outs.append(acc[::stride, ::stride])
    return np.stack(outs)


# ------------------------------------------------------------ compression

def test_compress_hand_example():
    w = WeightTensor4(np.reshape([0.0, 1.5, 0.0, -2.0], (1, 4, 1, 1)))
    c = compress(w, SparsePattern(2, 4))
    np.testing.assert_array_equal(c.values, [[1.5, -2.0]])
    np.testing.assert_array_equal(c.indices, [[1, 3]])


def test_compress_pads_underfull_blocks():
    w = WeightTensor4(np.reshape([0.0, 0.0, 0.0, 0.0], (1, 4, 1, 1)))
    c = compress(w, SparsePattern(1, 4))
    np.testing.assert_array_equal(c.values, [[0.0]])
    np.testing.assert_array_equal(c.indices, [[0]])
    w2 = WeightTensor4(np.reshape([0.0, 0.7, 0.0, 0.0], (1, 4, 1, 1)))
    c2 = compress(w2, SparsePattern(2, 4))
    np.testing.assert_array_equal(c2.indices, [[0, 1]])
    np.testing.assert_array_equal(c2.values, np.array([[0.0, 0.7]], dtype=np.float32))


def test_compress_rejects_violations_naming_first_block():
    w = WeightTensor4(np.reshape([1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0], (2, 4, 1, 1)))
    with pytest.raises(PatternViolationError) as exc:
        compress(w, SparsePattern(2, 4))
    assert exc.value.block == 1


def reference_compress(w, pattern):
    """Argsort encoder: nonzero indices first, then zero positions as padding, both ascending."""
    blocks = block_layout(w.values, pattern.m)
    nonzero = blocks != 0.0
    counts = nonzero.sum(axis=1)
    bad = np.nonzero(counts > pattern.n)[0]
    if bad.size:
        raise PatternViolationError(int(bad[0]), "reference")
    order = np.argsort(np.where(nonzero, 0, 1), axis=1, kind="stable")
    indices = np.sort(order[:, : pattern.n], axis=1)
    values = np.take_along_axis(blocks, indices, axis=1)
    return CompressedNM(pattern, w.dims, values.astype(np.float32), indices.astype(np.uint8))


@settings(max_examples=150, deadline=None)
@given(
    m=st.sampled_from([4, 7, 8, 16]),
    n_frac=st.floats(0.0, 1.0),
    c_out=st.integers(1, 3),
    c_in_blocks=st.integers(1, 2),
    kernel=st.sampled_from([(1, 1), (3, 3), (2, 3)]),
    overfull=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=255, n_frac=0.5, c_out=2, c_in_blocks=1, kernel=(1, 1), overfull=False, seed=0)
@example(m=255, n_frac=1.0, c_out=1, c_in_blocks=1, kernel=(3, 3), overfull=True, seed=1)
def test_compress_matches_argsort_reference(m, n_frac, c_out, c_in_blocks, kernel, overfull, seed):
    n = 1 + round(n_frac * (m - 2))
    dims = (c_out, m * c_in_blocks, *kernel)
    g = c_out * c_in_blocks * kernel[0] * kernel[1]
    rng = np.random.default_rng(seed)
    # each block holds 0..n nonzeros (all-zero and under-full blocks included);
    # its zeros are a mix of 0.0 and -0.0, and -0.0 counts as a zero
    counts = rng.integers(0, n + 1, size=g)
    if overfull:
        counts[rng.integers(0, g)] = n + 1
    blocks = np.where(rng.random((g, m)) < 0.5, -0.0, 0.0)
    for b, k in enumerate(counts):
        cols = rng.choice(m, size=k, replace=False)
        blocks[b, cols] = rng.choice([-2.5, -1.0, 0.5, 3.0], size=k)
    w = WeightTensor4(block_layout_inverse(blocks, dims))
    pattern = SparsePattern(n, m)
    try:
        want = reference_compress(w, pattern)
    except PatternViolationError as exc:
        with pytest.raises(PatternViolationError) as got:
            compress(w, pattern)
        assert got.value.block == exc.block
        return
    c = compress(w, pattern)
    assert c.values.tobytes() == want.values.tobytes()  # bytes, so the sign of -0.0 counts
    np.testing.assert_array_equal(c.indices, want.indices)
    assert c.indices.dtype == np.uint8
    assert c.to_bytes() == want.to_bytes()


def test_block_widths_above_255_are_rejected():
    w = np.zeros((1, 300, 1, 1))
    w[0, 280] = 1.5
    with pytest.raises(ValueError, match="one byte"):
        compress(WeightTensor4(w), SparsePattern(1, 300))
    with pytest.raises(ValueError, match="one byte"):
        CompressedNM(SparsePattern(1, 300), (1, 300, 1, 1), [[1.5]], [[280]])


@pytest.mark.parametrize("bad", [[[0, 257]], [[-254, 3]], [[0, 4]], [[2, 1]], [[1, 1]]])
def test_out_of_range_indices_are_rejected_before_the_uint8_cast(bad):
    with pytest.raises(DimensionError, match="strictly increasing"):
        CompressedNM(SparsePattern(2, 4), (1, 4, 1, 1), [[1.0, 2.0]], np.array(bad))


def test_round_trip_on_random_masked_tensors():
    rng = np.random.default_rng(0)
    for _ in range(300):
        m = int(rng.choice([4, 8, 16]))
        n = int(rng.integers(1, m))
        dims = (int(rng.integers(1, 5)), m * int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        w = masked_tensor(rng, dims, SparsePattern(n, m))
        back = decompress(compress(w, SparsePattern(n, m)))
        np.testing.assert_array_equal(
            back.values.astype(np.float32), w.values.astype(np.float32)
        )


def test_metadata_bits_formula():
    for n, m in ((1, 4), (2, 4), (2, 8), (1, 16)):
        rng = np.random.default_rng(n * m)
        w = masked_tensor(rng, (4, m * 2, 3, 3), SparsePattern(n, m))
        c = compress(w, SparsePattern(n, m))
        assert c.metadata_bits == c.g * n * math.ceil(math.log2(m))


def test_serialized_layout_and_size():
    rng = np.random.default_rng(1)
    pattern = SparsePattern(2, 8)
    w = masked_tensor(rng, (3, 16, 2, 2), pattern)
    c = compress(w, pattern)
    blob = c.to_bytes()
    assert blob[:4] == b"NMSP"
    version, n, m = struct.unpack_from("<HBB", blob, 4)
    assert (version, n, m) == (1, 2, 8)
    dims = struct.unpack_from("<4I", blob, 8)
    assert dims == (3, 16, 2, 2)
    (g,) = struct.unpack_from("<Q", blob, 24)
    assert g == c.g
    bits = math.ceil(math.log2(8))
    per_block = 4 * 2 + (2 * bits + 7) // 8
    assert len(blob) == 32 + c.g * per_block
    back = CompressedNM.from_bytes(blob)
    np.testing.assert_array_equal(back.values, c.values)
    np.testing.assert_array_equal(back.indices, c.indices)
    assert back.origin_dims == c.origin_dims


def test_from_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        CompressedNM.from_bytes(b"JUNKJUNKJUNK")


def test_golden_bytes_3_of_7():
    # 3 indices at 3 bits each: the last one straddles the first index byte
    w = WeightTensor4(
        np.reshape([1.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.25, 0.0, 0.0, 3.0, -1.5], (2, 7, 1, 1))
    )
    expected = bytes.fromhex(
        "4e4d5350" "0100" "03" "07"  # magic, version, n, m
        "02000000" "07000000" "01000000" "01000000"  # origin dims
        "0200000000000000"  # block count
        "0000803f" "000000c0" "0000003f" "9801"  # 1.0 -2.0 0.5 | 0 | 3<<3 | 6<<6
        "0000803e" "00004040" "0000c0bf" "aa01"  # 0.25 3.0 -1.5 | 2 | 5<<3 | 6<<6
    )
    c = compress(w, SparsePattern(3, 7))
    assert c.to_bytes() == expected
    back = CompressedNM.from_bytes(expected)
    np.testing.assert_array_equal(back.indices, [[0, 3, 6], [2, 5, 6]])
    np.testing.assert_array_equal(back.values, np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.5]], dtype=np.float32))
    assert back.origin_dims == (2, 7, 1, 1)


def test_golden_bytes_9_of_100():
    # 9 indices at 7 bits each: one full chunk of 8 indices in 7 bytes, then
    # a partial chunk whose one index fills the last byte below a padding bit
    w = np.zeros((2, 100, 1, 1))
    w[0, [0, 7, 15, 31, 50, 63, 64, 98, 99], 0, 0] = [1.0, -2.0, 0.5, 4.0, -0.25, 8.0, -1.5, 3.0, -6.0]
    w[1, [5, 60, 99], 0, 0] = [2.5, -0.75, 1.0]  # under-full: six zeros padded at 0-4 and 6
    expected = bytes.fromhex(
        "4e4d5350" "0100" "09" "64"  # magic, version, n, m
        "02000000" "64000000" "01000000" "01000000"  # origin dims
        "0200000000000000"  # block count
        "0000803f" "000000c0" "0000003f" "00008040" "000080be" "00000041" "0000c0bf" "00004040" "0000c0c0"
        "80c3e323fb01c5" "63"  # 0 7 15 31 50 63 64 98 | 99
        "00000000" "00000000" "00000000" "00000000" "00000000" "00002040" "00000000" "000040bf" "0000803f"
        "80806040281878" "63"  # 0 1 2 3 4 5 6 60 | 99
    )
    c = compress(WeightTensor4(w), SparsePattern(9, 100))
    assert c.to_bytes() == expected
    back = CompressedNM.from_bytes(expected)
    np.testing.assert_array_equal(back.indices, [[0, 7, 15, 31, 50, 63, 64, 98, 99], [0, 1, 2, 3, 4, 5, 6, 60, 99]])
    assert back.values.tobytes() == c.values.tobytes()
    assert back.origin_dims == (2, 100, 1, 1)


def reference_to_bytes(c):
    """Per-block, per-index encoder: the format's definition, written as a loop."""
    n, m = c.pattern.n, c.pattern.m
    bits = max(1, math.ceil(math.log2(m)))
    out = bytearray(HEADER.pack(b"NMSP", 1, n, m, *c.origin_dims, c.g))
    for row_vals, row_idx in zip(c.values, c.indices):
        out += row_vals.astype("<f4").tobytes()
        acc = 0
        for t, ix in enumerate(row_idx):
            acc |= int(ix) << (t * bits)
        out += acc.to_bytes((n * bits + 7) // 8, "little")
    return bytes(out)


@st.composite
def random_compressed(draw):
    m = draw(st.integers(2, 255))
    n = draw(st.integers(1, m - 1))
    dims = (
        draw(st.integers(0, 3)),
        m * draw(st.integers(1, 2)),
        draw(st.integers(1, 2)),
        draw(st.integers(1, 2)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = dims[0] * dims[1] * dims[2] * dims[3] // m
    indices = np.sort(np.argsort(rng.random((g, m)), axis=1)[:, :n], axis=1)
    values = rng.integers(0, 2**32, size=(g, n), dtype=np.uint32).view(np.float32)  # any bit pattern
    return CompressedNM(SparsePattern(n, m), dims, values, indices.astype(np.uint8))


@settings(max_examples=200, deadline=None)
@given(c=random_compressed())
def test_to_bytes_matches_reference_encoder_and_round_trips(c):
    blob = c.to_bytes()
    assert blob == reference_to_bytes(c)
    back = CompressedNM.from_bytes(blob)
    assert back.pattern == c.pattern and back.origin_dims == c.origin_dims
    assert back.values.tobytes() == c.values.tobytes()
    np.testing.assert_array_equal(back.indices, c.indices)
    # decoded arrays are owned, never read-only views into the blob
    assert back.values.flags.writeable and back.indices.flags.writeable


def reference_from_bytes(blob):
    """The bit-array decoder that shipped before the shift codec, kept as its oracle."""
    if len(blob) < HEADER.size:
        raise ValueError("truncated compressed tensor")
    magic, version, n, m, d0, d1, d2, d3, g = HEADER.unpack_from(blob, 0)
    if magic != b"NMSP":
        raise ValueError(f"bad magic {magic!r}")
    if version != 1:
        raise ValueError(f"unsupported version {version}")
    pattern = SparsePattern(n, m)
    bits = (m - 1).bit_length()
    block_bytes = 4 * n + (n * bits + 7) // 8
    expected = HEADER.size + g * block_bytes
    if len(blob) != expected:
        raise ValueError(f"expected {expected} bytes, got {len(blob)}")
    body = np.frombuffer(blob, dtype=np.uint8, offset=HEADER.size).reshape(g, block_bytes)
    values = body[:, : 4 * n].copy().view("<f4")
    unpacked = np.unpackbits(body[:, 4 * n :], axis=1, count=n * bits, bitorder="little")
    indices = np.packbits(unpacked.reshape(g, n, bits), axis=2, bitorder="little")[:, :, 0]
    return CompressedNM(pattern, (d0, d1, d2, d3), values, indices)


@st.composite
def raw_index_fields(draw):
    """A .nmsp blob with arbitrary index-field bytes for every index width 1..8.

    n is a whole number of k = 8 / gcd(bits, 8) index chunks or not; at bits
    1 to 3, n < m <= k, so only the latter. The field bytes are random, so
    they set padding bits and encode indices >= m or out of order.
    """
    bits = draw(st.integers(1, 8))
    m = draw(st.integers(2 ** (bits - 1) + 1, min(2**bits, 255))) if bits > 1 else 2
    k = 8 // math.gcd(bits, 8)
    whole = draw(st.booleans()) and m > k
    n = k * draw(st.integers(1, (m - 1) // k)) if whole else draw(st.integers(1, min(m - 1, 3 * k + 1)))
    g = draw(st.integers(0, 4))
    field_bytes = (n * bits + 7) // 8
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    body = rng.integers(0, 256, size=(g, 4 * n + field_bytes), dtype=np.uint8)
    if draw(st.booleans()):
        # valid increasing indices under random padding bits, so both decoders succeed
        idx = np.sort(np.argsort(rng.random((g, m)), axis=1)[:, :n], axis=1)
        acc = [sum(int(ix) << (t * bits) for t, ix in enumerate(row)) for row in idx]
        pad = [int(b) << (n * bits) for b in rng.integers(0, 2 ** (8 * field_bytes - n * bits), size=g)]
        for row, a, p in zip(body, acc, pad):
            row[4 * n :] = np.frombuffer((a | p).to_bytes(field_bytes, "little"), dtype=np.uint8)
    return HEADER.pack(b"NMSP", 1, n, m, g, m, 1, 1, g) + body.tobytes()


@settings(max_examples=300, deadline=None)
@given(blob=raw_index_fields())
def test_from_bytes_matches_the_bit_array_decoder(blob):
    try:
        want = reference_from_bytes(blob)
    except ValueError:
        with pytest.raises(ValueError):
            CompressedNM.from_bytes(blob)
        return
    got = CompressedNM.from_bytes(blob)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.indices.dtype == np.uint8
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("n,m", [(2, 4), (1, 16), (3, 7), (5, 8)])
def test_from_bytes_on_malformed_input_decodes_or_raises_value_error(n, m):
    rng = np.random.default_rng(n * 100 + m)
    blob = compress(masked_tensor(rng, (2, m, 1, 1), SparsePattern(n, m)), SparsePattern(n, m)).to_bytes()
    variants = [blob[:k] for k in range(len(blob))]
    for pos in range(len(blob)):
        for new in (0x00, 0xFF, blob[pos] ^ 0x01, blob[pos] ^ 0x80):
            variants.append(blob[:pos] + bytes([new]) + blob[pos + 1 :])
    for bad in variants:
        try:
            CompressedNM.from_bytes(bad)
        except ValueError:
            pass


# ------------------------------------------------------------------ kernels

def test_spmm_identity_gather():
    # one 1.0 per block row at a known column acts as a row gather
    pattern = SparsePattern(1, 4)
    vals = np.zeros((4, 4, 1, 1))
    for r in range(4):
        vals[r, (r * 2 + 1) % 4, 0, 0] = 1.0
    c = compress(WeightTensor4(vals), pattern)
    x = np.random.default_rng(2).normal(size=(4, 7))
    out = spmm(c, x)
    for r in range(4):
        np.testing.assert_array_equal(out[r], x[(r * 2 + 1) % 4])


def test_spmm_zero_tensor():
    pattern = SparsePattern(2, 4)
    c = compress(WeightTensor4(np.zeros((3, 8, 1, 1))), pattern)
    x = np.ones((8, 5))
    np.testing.assert_array_equal(spmm(c, x), np.zeros((3, 5)))


def test_spmm_matches_dense_gemm():
    rng = np.random.default_rng(3)
    pattern = SparsePattern(2, 4)
    w = masked_tensor(rng, (64, 64, 1, 1), pattern)
    c = compress(w, pattern)
    x = rng.uniform(-1.0, 1.0, size=(64, 32))
    dense = decompress(c).values.reshape(64, 64)
    assert np.abs(spmm(c, x) - dense @ x).max() <= 1e-5


def test_spmm_vector_input():
    rng = np.random.default_rng(4)
    pattern = SparsePattern(1, 4)
    w = masked_tensor(rng, (8, 8, 1, 1), pattern)
    c = compress(w, pattern)
    x = rng.normal(size=8)
    out = spmm(c, x)
    assert out.shape == (8,)
    dense = decompress(c).values.reshape(8, 8)
    np.testing.assert_allclose(out, dense @ x, atol=1e-12)


def test_spmm_dimension_mismatch():
    rng = np.random.default_rng(5)
    c = compress(masked_tensor(rng, (4, 8, 1, 1), SparsePattern(2, 4)), SparsePattern(2, 4))
    with pytest.raises(DimensionError):
        spmm(c, np.ones((9, 3)))


@settings(max_examples=80, deadline=None)
@given(
    nm=st.sampled_from([(2, 4), (1, 4), (1, 8), (2, 16), (1, 16), (3, 7)]),
    kernel=st.sampled_from([(1, 1), (3, 3)]),
    c_out=st.integers(1, 5),
    c_in_blocks=st.integers(1, 3),
    cols=st.sampled_from([None, 1, 6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_csr_product_and_spmm_agree(nm, kernel, c_out, c_in_blocks, cols, seed):
    # spmm multiplies by the dense matrix; this keeps bench's CSR comparison point checked
    rng = np.random.default_rng(seed)
    pattern = SparsePattern(*nm)
    dims = (c_out, pattern.m * c_in_blocks, *kernel)
    w = masked_tensor(rng, dims, pattern)
    c = compress(WeightTensor4(w.values * (rng.random(dims) < 0.8)), pattern)  # under-full blocks too
    inner = c.matrix_shape[1]
    x = rng.uniform(-1.0, 1.0, size=(inner,) if cols is None else (inner, cols))
    dense = c.operator()
    np.testing.assert_array_equal(dense, decompress(c).values.reshape(c.matrix_shape))
    assert c.operator() is dense
    got, csr = spmm(c, x), _csr_matrix(c) @ x
    assert got.shape == csr.shape == (c_out, *x.shape[1:])
    assert (np.abs(got - csr) <= 1e-12 * (np.abs(dense) @ np.abs(x))).all()


def test_spmm_passes_a_stored_nan_through_like_csr():
    pattern = SparsePattern(2, 4)
    c = compress(masked_tensor(np.random.default_rng(6), (2, 4, 1, 1), pattern), pattern)
    c.values[0, 0] = np.nan  # as a corrupt artifact could carry; the operator is not built yet
    out = spmm(c, np.ones(4))
    assert np.isnan(out[0]) and np.isfinite(out[1])
    assert np.array_equal(np.isnan(_csr_matrix(c) @ np.ones(4)), np.isnan(out))


def test_conv2d_sparse_matches_dense_conv():
    rng = np.random.default_rng(7)
    pattern = SparsePattern(2, 4)
    w = masked_tensor(rng, (8, 8, 3, 3), pattern)
    c = compress(w, pattern)
    x = rng.uniform(-1.0, 1.0, size=(8, 10, 10))
    dense_w = decompress(c).values
    for stride, padding in ((1, 0), (1, 1), (2, 1)):
        got = conv2d_sparse(c, x, stride=stride, padding=padding)
        expected = dense_conv_oracle(dense_w, x, stride, padding)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-5


def test_conv2d_sparse_channel_mismatch():
    rng = np.random.default_rng(8)
    c = compress(masked_tensor(rng, (4, 8, 3, 3), SparsePattern(2, 4)), SparsePattern(2, 4))
    with pytest.raises(DimensionError):
        conv2d_sparse(c, np.zeros((7, 10, 10)))


# ------------------------------------------------------------------ verify

def test_verify_fully_masked_1_16():
    rng = np.random.default_rng(9)
    pattern = SparsePattern(1, 16)
    w = masked_tensor(rng, (4, 32, 3, 3), pattern)
    report = verify(w, pattern)
    assert report.violating_blocks == 0
    assert report.sparsity == pytest.approx(15 / 16, abs=1e-9)


def test_verify_dense_tensor_flags_all_blocks():
    rng = np.random.default_rng(10)
    w = WeightTensor4(rng.uniform(0.5, 1.0, size=(2, 8, 1, 1)))  # no zeros at all
    report = verify(w, SparsePattern(2, 4))
    assert report.blocks == 4
    assert report.violating_blocks == 4


def test_verify_counts_match_popcount_oracle():
    rng = np.random.default_rng(11)
    pattern = SparsePattern(2, 4)
    for _ in range(50):
        vals = rng.normal(size=(4, 8, 1, 1))
        keep = rng.random(size=(4, 8, 1, 1)) < 0.5
        w = WeightTensor4(vals * keep)
        report = verify(w, pattern)
        bm = rearrange_to_blocks(w, 4)
        expected = sum(1 for row in bm.values if int(sum(x != 0 for x in row)) > 2)
        assert report.violating_blocks == expected


# ------------------------------------------------------------------- bench

def test_bench_reports_both_timings():
    rng = np.random.default_rng(12)
    pattern = SparsePattern(2, 4)
    w = masked_tensor(rng, (32, 32, 1, 1), pattern)
    c = compress(w, pattern)
    x = rng.uniform(-1.0, 1.0, size=(32, 16))
    csr_seconds, dense_seconds = bench(c, x, repetitions=2)
    assert csr_seconds > 0 and dense_seconds > 0
