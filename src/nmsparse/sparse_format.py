"""Compressed N:M storage and the CPU kernels that consume it.

Each block stores exactly n single-precision values plus n column indices;
indices are bit-packed at ceil(log2 m) bits each in the serialized form.
Under-full blocks are padded with explicit zeros at the smallest free
indices so every compliant tensor is representable. The kernels multiply
through a scipy CSR matrix built once per tensor.

Serialized layout (little-endian): magic ``NMSP``, version u16, n u8, m u8,
origin dims 4 x u32, block count u64, then per block n x f32 values
followed by the packed index stream, byte-aligned per block.
"""
from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DimensionError, PatternViolationError
from .im2col import im2col
from .masks import SparsePattern
from .tensors import BlockMatrix, Dims4, WeightTensor4, rearrange_from_blocks, rearrange_to_blocks

MAGIC = b"NMSP"
VERSION = 1
_HEADER = struct.Struct("<4sHBB4IQ")


def _index_bits(m: int) -> int:
    """Serialized width of one block index: ceil(log2 m) bits (m >= 2)."""
    return (m - 1).bit_length()


@dataclass(eq=False)
class CompressedNM:
    """N:M compressed tensor: per-block values (g, n) and column indices (g, n)."""

    pattern: SparsePattern
    origin_dims: Dims4
    values: np.ndarray
    indices: np.ndarray
    _csr: sparse.csr_matrix | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float32)
        idx = np.asarray(self.indices, dtype=np.uint8)
        n, m = self.pattern.n, self.pattern.m
        c_out, c_in, k_h, k_w = self.origin_dims
        if c_in % m != 0:
            raise DimensionError(f"block width {m} does not divide c_in={c_in}")
        g_expected = c_out * c_in * k_h * k_w // m
        if vals.shape != (g_expected, n) or idx.shape != (g_expected, n):
            raise DimensionError(
                f"expected (g={g_expected}, n={n}) values/indices, got {vals.shape}/{idx.shape}"
            )
        if idx.size and (idx.max() >= m or (n > 1 and not (np.diff(idx.astype(np.int64), axis=1) > 0).all())):
            raise DimensionError("block indices must be strictly increasing in [0, m)")
        self.values = vals
        self.indices = idx
        self.origin_dims = tuple(int(d) for d in self.origin_dims)

    @property
    def g(self) -> int:
        return self.values.shape[0]

    @property
    def index_bits(self) -> int:
        return _index_bits(self.pattern.m)

    @property
    def metadata_bits(self) -> int:
        """Logical index metadata size: g * n * ceil(log2 m) bits."""
        return self.g * self.pattern.n * self.index_bits

    @property
    def matrix_shape(self) -> tuple[int, int]:
        c_out, c_in, k_h, k_w = self.origin_dims
        return c_out, c_in * k_h * k_w

    def csr(self) -> sparse.csr_matrix:
        """The (c_out, c_in*k_h*k_w) matrix view in CSR form, built on first use.

        The cache assumes values and indices are not modified afterwards.
        """
        if self._csr is None:
            n, m = self.pattern.n, self.pattern.m
            c_out, c_in, k_h, k_w = self.origin_dims
            _, kh, kw, cb = np.unravel_index(np.arange(self.g), (c_out, k_h, k_w, c_in // m))
            channel = cb[:, None] * m + self.indices.astype(np.int64)
            cols = channel * (k_h * k_w) + (kh * k_w + kw)[:, None]
            indptr = np.arange(c_out + 1) * (c_in // m * k_h * k_w * n)
            data = self.values.astype(np.float64).ravel()
            self._csr = sparse.csr_matrix((data, cols.ravel(), indptr), shape=self.matrix_shape)
        return self._csr

    def to_bytes(self) -> bytes:
        n, m, bits = self.pattern.n, self.pattern.m, self.index_bits
        header = _HEADER.pack(MAGIC, VERSION, n, m, *self.origin_dims, self.g)
        unpacked = np.unpackbits(self.indices[:, :, None], axis=2, count=bits, bitorder="little")
        packed = np.packbits(unpacked.reshape(self.g, n * bits), axis=1, bitorder="little")
        value_bytes = np.ascontiguousarray(self.values, dtype="<f4").view(np.uint8)
        return header + np.concatenate([value_bytes, packed], axis=1).tobytes()

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
        values = body[:, : 4 * n].copy().view("<f4")
        unpacked = np.unpackbits(body[:, 4 * n :], axis=1, count=n * bits, bitorder="little")
        indices = np.packbits(unpacked.reshape(g, n, bits), axis=2, bitorder="little")[:, :, 0]
        return cls(pattern, (d0, d1, d2, d3), values, indices)


def compress(w: WeightTensor4, pattern: SparsePattern) -> CompressedNM:
    """Encode a pattern-compliant tensor; raises naming the first bad block."""
    bm = rearrange_to_blocks(w, pattern.m)
    nonzero = bm.values != 0.0
    counts = nonzero.sum(axis=1)
    bad = np.nonzero(counts > pattern.n)[0]
    if bad.size:
        first = int(bad[0])
        raise PatternViolationError(
            first,
            f"block {first} has {int(counts[first])} nonzeros, pattern {pattern} allows {pattern.n}",
        )
    # nonzero indices first (ascending), then zero positions ascending as padding
    order = np.argsort(np.where(nonzero, 0, 1), axis=1, kind="stable")
    indices = np.sort(order[:, : pattern.n], axis=1)
    values = np.take_along_axis(bm.values, indices, axis=1)
    return CompressedNM(pattern, w.dims, values.astype(np.float32), indices.astype(np.uint8))


def decompress(c: CompressedNM) -> WeightTensor4:
    """Exact inverse of :func:`compress` on its image (values kept verbatim)."""
    m = c.pattern.m
    dense = np.zeros((c.g, m), dtype=np.float64)
    rows = np.arange(c.g)[:, None]
    dense[rows, c.indices.astype(np.int64)] = c.values.astype(np.float64)
    return rearrange_from_blocks(BlockMatrix(dense, c.origin_dims))


def spmm(c: CompressedNM, x: np.ndarray) -> np.ndarray:
    """Multiply the compressed tensor, viewed as (c_out, c_in*k_h*k_w), by x.

    Only stored entries are read, through the tensor's cached CSR matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise DimensionError(f"expected a vector or matrix input, got {x.ndim}D")
    inner = c.matrix_shape[1]
    if x.shape[0] != inner:
        raise DimensionError(f"inner dims do not agree: weight {inner}, input {x.shape[0]}")
    return c.csr() @ x


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
    pattern: SparsePattern
    blocks: int
    violating_blocks: int
    sparsity: float

    @property
    def compliant(self) -> bool:
        return self.violating_blocks == 0


def verify(w: WeightTensor4, pattern: SparsePattern) -> ComplianceReport:
    """Count blocks carrying more than n nonzeros; report achieved sparsity."""
    bm = rearrange_to_blocks(w, pattern.m)
    counts = (bm.values != 0.0).sum(axis=1)
    return ComplianceReport(
        pattern=pattern,
        blocks=bm.g,
        violating_blocks=int((counts > pattern.n).sum()),
        sparsity=float((w.values == 0.0).mean()),
    )


@dataclass(frozen=True)
class BenchReport:
    matrix_shape: tuple[int, int]
    input_cols: int
    repetitions: int
    sparse_seconds: float
    dense_seconds: float
    flop_reduction: float

    @property
    def speedup(self) -> float:
        return self.dense_seconds / self.sparse_seconds if self.sparse_seconds > 0 else float("inf")


def bench(c: CompressedNM, x: np.ndarray, repetitions: int = 5) -> BenchReport:
    """Best-of-N wall time for the sparse kernel vs a dense GEMM on the same data."""
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    x = np.asarray(x, dtype=np.float64)
    dense = decompress(c).values.reshape(c.matrix_shape)
    spmm(c, x)  # warm up
    dense @ x
    sparse_best = min(_timed(lambda: spmm(c, x)) for _ in range(repetitions))
    dense_best = min(_timed(lambda: dense @ x) for _ in range(repetitions))
    rows, inner = c.matrix_shape
    cols = 1 if x.ndim == 1 else x.shape[1]
    dense_flops = 2.0 * rows * inner * cols
    sparse_flops = 2.0 * c.g * c.pattern.n * cols
    return BenchReport(
        matrix_shape=c.matrix_shape,
        input_cols=cols,
        repetitions=repetitions,
        sparse_seconds=sparse_best,
        dense_seconds=dense_best,
        flop_reduction=dense_flops / sparse_flops,
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
