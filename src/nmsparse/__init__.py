"""N:M structured sparsity: block masks, multi-axis importance, sparse training,
and a compressed runtime format with CPU kernels."""

from .masks import SparsePattern, build_masks, fold
from .sparse_format import compress, spmm
from .tensors import WeightTensor4

__version__ = "0.1.0"

__all__ = ["SparsePattern", "WeightTensor4", "build_masks", "compress", "fold", "spmm"]
