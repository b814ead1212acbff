"""Compressed N:M storage and the CPU kernels that consume it.

Each block stores exactly n single-precision values plus n column indices;
indices are bit-packed at ceil(log2 m) bits each in the serialized form.
Under-full blocks are padded with explicit zeros at the smallest free
indices so every compliant tensor is representable. The kernels multiply
by the decompressed dense f64 matrix, built once per tensor: on CPU without
N:M hardware support a dense GEMM beats a scipy CSR product (see :func:`spmm`).

Serialized layout (little-endian): magic ``NMSP``, version u16, n u8, m u8,
origin dims 4 x u32, block count u64, then per block n x f32 values
followed by the packed index stream, byte-aligned per block. The one-byte
m field limits the format to blocks of at most 255 weights.

Index t of a block sits at bit t * bits of the block's little-endian index
field, bits = ceil(log2 m); the encoder leaves the bits above n * bits zero
and the decoder ignores them. The codec packs k = 8 / gcd(bits, 8) indices
at a time: they fill exactly k * bits / 8 bytes (at most 7), so a chunk is
one integer built with shifts, in uint8 at bits 1, 2, 4 and 8 and in a 4- or
8-byte accumulator otherwise, whose low bytes are written. A last partial
chunk writes only the bytes the field has.
"""
from __future__ import annotations

import math
import struct
import timeit
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DimensionError, PatternViolationError
from .im2col import im2col
from .masks import SparsePattern
from .tensors import Dims4, WeightTensor4, block_layout, block_layout_inverse

MAGIC = b"NMSP"
VERSION = 1
_HEADER = struct.Struct("<4sHBB4IQ")


def _index_bits(m: int) -> int:
    """Serialized width of one block index: ceil(log2 m) bits (m >= 2)."""
    return (m - 1).bit_length()


def _index_chunk(bits: int) -> tuple[int, int, np.dtype]:
    """Indices per chunk, bytes per chunk and the accumulator dtype of one chunk."""
    k = 8 // math.gcd(bits, 8)
    chunk_bytes = k * bits // 8
    return k, chunk_bytes, np.dtype("u1" if chunk_bytes == 1 else "<u4" if chunk_bytes <= 4 else "<u8")


def _pack_indices(indices: np.ndarray, bits: int) -> np.ndarray:
    """(g, n) uint8 indices below 2**bits -> (g, ceil(n*bits/8)) index fields."""
    g, n = indices.shape
    k, chunk_bytes, acc_type = _index_chunk(bits)
    acc = indices[:, ::k].astype(acc_type)
    for s in range(1, k):
        part = indices[:, s::k]
        acc[:, : part.shape[1]] |= np.left_shift(part, s * bits, dtype=acc_type)
    chunks = acc.shape[1]
    field = acc.view(np.uint8).reshape(g, chunks, acc_type.itemsize)[:, :, :chunk_bytes]
    return field.reshape(g, chunks * chunk_bytes)[:, : (n * bits + 7) // 8]


def _unpack_indices(field: np.ndarray, n: int, bits: int) -> np.ndarray:
    """Inverse of :func:`_pack_indices`; the bits above n*bits are ignored."""
    g, field_bytes = field.shape
    k, chunk_bytes, acc_type = _index_chunk(bits)
    chunks, full = -(-n // k), field_bytes // chunk_bytes
    padded = np.zeros((g, chunks, acc_type.itemsize), dtype=np.uint8)
    padded[:, :full, :chunk_bytes] = field[:, : full * chunk_bytes].reshape(g, full, chunk_bytes)
    # a partial last chunk holds only the bytes left in the field
    padded[:, full:, : field_bytes - full * chunk_bytes] = field[:, None, full * chunk_bytes :]
    acc = padded.view(acc_type).reshape(g, chunks)
    out = np.empty((g, n), dtype=np.uint8)
    for s in range(k):
        part = out[:, s::k]
        np.bitwise_and(acc[:, : part.shape[1]] >> (s * bits), (1 << bits) - 1, out=part, casting="unsafe")
    return out


def _value_rows(buffer, g: int, n: int, block_bytes: int) -> np.ndarray:
    """(g,) view of each block's n f32 values as one opaque item, so copies move whole rows."""
    return np.ndarray((g,), f"V{4 * n}", buffer=buffer, offset=_HEADER.size, strides=(block_bytes,))


def _check_block_width(pattern: SparsePattern) -> None:
    if pattern.m > 255:
        raise ValueError(f"pattern {pattern}: the .nmsp header stores m in one byte, so m must be at most 255")


@dataclass(eq=False)
class CompressedNM:
    """N:M compressed tensor: per-block values (g, n) and column indices (g, n)."""

    pattern: SparsePattern
    origin_dims: Dims4
    values: np.ndarray
    indices: np.ndarray
    _operator: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _check_block_width(self.pattern)
        vals = np.asarray(self.values, dtype=np.float32)
        idx = np.asarray(self.indices)
        n, m = self.pattern.n, self.pattern.m
        c_out, c_in, k_h, k_w = self.origin_dims
        if c_in % m != 0:
            raise DimensionError(f"block width {m} does not divide c_in={c_in}")
        g_expected = c_out * c_in * k_h * k_w // m
        if vals.shape != (g_expected, n) or idx.shape != (g_expected, n):
            raise DimensionError(
                f"expected (g={g_expected}, n={n}) values/indices, got {vals.shape}/{idx.shape}"
            )
        # range first: only indices in [0, m) survive the uint8 cast unchanged
        in_range = not idx.size or (idx.min() >= 0 and idx.max() < m)
        idx = idx.astype(np.uint8, copy=False)
        if not in_range or (n > 1 and not (idx[:, 1:] > idx[:, :-1]).all()):
            raise DimensionError("block indices must be strictly increasing in [0, m)")
        self.values = vals
        self.indices = idx
        self.origin_dims = tuple(int(d) for d in self.origin_dims)

    @property
    def g(self) -> int:
        return self.values.shape[0]

    @property
    def metadata_bits(self) -> int:
        """Logical index metadata size: g * n * ceil(log2 m) bits."""
        return self.g * self.pattern.n * _index_bits(self.pattern.m)

    @property
    def matrix_shape(self) -> tuple[int, int]:
        c_out, c_in, k_h, k_w = self.origin_dims
        return c_out, c_in * k_h * k_w

    def operator(self) -> np.ndarray:
        """The dense (c_out, c_in*k_h*k_w) f64 matrix that :func:`spmm` multiplies by, built on first use.

        Built without :class:`WeightTensor4`'s finiteness check: a stored NaN or
        Inf propagates into the product instead of raising. The cache assumes
        values and indices are not modified afterwards.
        """
        if self._operator is None:
            self._operator = np.ascontiguousarray(_decompressed(self)).reshape(self.matrix_shape)
        return self._operator

    def to_bytes(self) -> bytes:
        n, m = self.pattern.n, self.pattern.m
        packed = _pack_indices(self.indices, _index_bits(m))
        block_bytes = 4 * n + packed.shape[1]
        out = np.empty(_HEADER.size + self.g * block_bytes, dtype=np.uint8)
        _HEADER.pack_into(out, 0, MAGIC, VERSION, n, m, *self.origin_dims, self.g)
        values = np.ascontiguousarray(self.values, dtype="<f4")
        _value_rows(out, self.g, n, block_bytes)[:] = values.view(f"V{4 * n}")[:, 0]
        out[_HEADER.size :].reshape(self.g, block_bytes)[:, 4 * n :] = packed
        return out.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompressedNM":
        if len(blob) < _HEADER.size:
            raise ValueError("truncated compressed tensor")
        magic, version, n, m, d0, d1, d2, d3, g = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"unsupported version {version}")
        pattern = SparsePattern(n, m)
        bits = _index_bits(m)
        block_bytes = 4 * n + (n * bits + 7) // 8
        expected = _HEADER.size + g * block_bytes
        if len(blob) != expected:
            raise ValueError(f"expected {expected} bytes, got {len(blob)}")
        body = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size).reshape(g, block_bytes)
        values = _value_rows(blob, g, n, block_bytes).copy().view("<f4").reshape(g, n)
        indices = _unpack_indices(body[:, 4 * n :], n, bits)
        return cls(pattern, (d0, d1, d2, d3), values, indices)


def _block_nonzeros(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, g) nonzero flags, one contiguous row per block column, and each block's nonzero count."""
    nonzero = np.ascontiguousarray(np.not_equal(blocks, 0.0).T)
    return nonzero, nonzero.sum(axis=0, dtype=np.min_scalar_type(blocks.shape[1]))


def compress(w: WeightTensor4, pattern: SparsePattern) -> CompressedNM:
    """Encode a pattern-compliant tensor; raises naming the first bad block."""
    _check_block_width(pattern)
    n, m = pattern.n, pattern.m
    blocks = block_layout(w.values, m)
    nonzero, counts = _block_nonzeros(blocks)
    bad = np.nonzero(counts > pattern.n)[0]
    if bad.size:
        first = int(bad[0])
        raise PatternViolationError(
            first,
            f"block {first} has {int(counts[first])} nonzeros, pattern {pattern} allows {pattern.n}",
        )
    # A block stores all its nonzeros plus zeros at the smallest free indices,
    # so column j is kept iff it is nonzero or fewer than n - count zeros lie
    # left of it, i.e. n - count + (nonzeros left of j) > j.
    reach = n - counts
    kept = np.empty_like(nonzero)
    for j in range(m):
        np.greater(reach, j, out=kept[j])
        kept[j] |= nonzero[j]
        reach += nonzero[j]
    slots = np.flatnonzero(kept.T.copy())  # n per block, row-major
    indices = np.tile(np.arange(m, dtype=np.uint8), blocks.shape[0])[slots]
    values = blocks.reshape(-1)[slots].astype(np.float32)
    return CompressedNM(pattern, w.dims, values.reshape(-1, n), indices.reshape(-1, n))


def _decompressed(c: CompressedNM) -> np.ndarray:
    """The (c_out, c_in, k_h, k_w) f64 array, stored values taken as they are."""
    m = c.pattern.m
    dense = np.zeros((c.g, m), dtype=np.float64)
    rows = np.arange(c.g)[:, None]
    dense[rows, c.indices.astype(np.int64)] = c.values.astype(np.float64)
    return block_layout_inverse(dense, c.origin_dims)


def decompress(c: CompressedNM) -> WeightTensor4:
    """Exact inverse of :func:`compress` on its image (values kept verbatim)."""
    return WeightTensor4(_decompressed(c))


def _csr_matrix(c: CompressedNM) -> sparse.csr_matrix:
    """The (c_out, c_in*k_h*k_w) matrix view in CSR form, holding every stored slot.

    :func:`bench` times it against :meth:`CompressedNM.operator`.
    """
    n, m = c.pattern.n, c.pattern.m
    c_out, c_in, k_h, k_w = c.origin_dims
    # a slot's column depends only on its block's place within the filter
    flat = np.arange(c_in * k_h * k_w).reshape(1, c_in, k_h, k_w)
    slot_cols = block_layout(flat, m)[None]
    blocks_per_filter = c_in // m * k_h * k_w
    per_filter = c.indices.reshape(c_out, blocks_per_filter, n).astype(np.intp)
    cols = np.take_along_axis(slot_cols, per_filter, axis=2)
    indptr = np.arange(c_out + 1) * (blocks_per_filter * n)
    data = c.values.astype(np.float64).ravel()
    return sparse.csr_matrix((data, cols.ravel(), indptr), shape=c.matrix_shape)


def spmm(c: CompressedNM, x: np.ndarray) -> np.ndarray:
    """Multiply the compressed tensor, viewed as (c_out, c_in*k_h*k_w), by x.

    The product is a dense f64 GEMM through the tensor's cached
    :meth:`CompressedNM.operator` at every pattern: without N:M hardware
    support, a BLAS GEMM beats a scipy CSR product of the stored slots
    wherever n/m >= 1/4 (the README's kernel table has the measurements).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise DimensionError(f"expected a vector or matrix input, got {x.ndim}D")
    inner = c.matrix_shape[1]
    if x.shape[0] != inner:
        raise DimensionError(f"inner dims do not agree: weight {inner}, input {x.shape[0]}")
    return c.operator() @ x


def conv2d_sparse(
    c: CompressedNM, input3: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """2D convolution with compressed weights via im2col + spmm."""
    inp = np.asarray(input3, dtype=np.float64)
    if inp.ndim != 3:
        raise DimensionError(f"expected a (C, H, W) input, got {inp.ndim}D")
    c_out, c_in, k_h, k_w = c.origin_dims
    if inp.shape[0] != c_in:
        raise DimensionError(f"input has {inp.shape[0]} channels, weights expect {c_in}")
    cols, (oh, ow) = im2col(inp[None], k_h, k_w, stride, padding)
    return spmm(c, cols[0]).reshape(c_out, oh, ow)


@dataclass(frozen=True)
class ComplianceReport:
    blocks: int
    violating_blocks: int
    sparsity: float


def verify(w: WeightTensor4, pattern: SparsePattern) -> ComplianceReport:
    """Count blocks carrying more than n nonzeros; report achieved sparsity."""
    _, counts = _block_nonzeros(block_layout(w.values, pattern.m))
    return ComplianceReport(
        blocks=counts.size,
        violating_blocks=int((counts > pattern.n).sum()),
        sparsity=(w.values.size - int(counts.sum())) / w.values.size,
    )


def bench(c: CompressedNM, x: np.ndarray, repetitions: int = 5) -> tuple[float, float]:
    """Best-of-N wall time, after one warm-up call, of a CSR product and of
    spmm's dense product on the same data: ``(csr_seconds, dense_seconds)``."""
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    x = np.asarray(x, dtype=np.float64)

    def best(op) -> float:
        op @ x  # warm up
        return min(timeit.repeat(lambda: op @ x, repeat=repetitions, number=1))

    return best(_csr_matrix(c)), best(c.operator())
