"""Dense 4D weight tensors and their block-matrix view.

A convolution weight of shape (c_out, c_in, k_h, k_w) is regrouped into a
(g, m) block matrix whose rows hold m consecutive input channels at a fixed
(output filter, kernel position). Fully connected weights are handled as
1x1 convolutions. The regrouping is a bijection on coordinates and
round-trips values bit-exactly.

Block rows enumerate (c_out, k_h, k_w, channel-block) lexicographically
with the channel-block fastest, so all blocks of one output filter are
contiguous; the compressed runtime format relies on that ordering.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError

Dims4 = tuple[int, int, int, int]


def block_layout(values: np.ndarray, m: int) -> np.ndarray:
    """Regroup a (c_out, c_in, k_h, k_w) array into (g, m) blocks.

    May return a view of ``values`` when the source layout permits.
    """
    if values.ndim != 4:
        raise DimensionError(f"expected a 4D array, got {values.ndim}D")
    c_in = values.shape[1]
    if m < 2:
        raise DimensionError(f"block width must be >= 2, got {m}")
    if c_in % m != 0:
        raise DimensionError(f"block width {m} does not divide c_in={c_in}")
    return values.transpose(0, 2, 3, 1).reshape(-1, m)


def block_layout_inverse(blocks: np.ndarray, dims: Dims4) -> np.ndarray:
    """Inverse of :func:`block_layout`; restores the 4D layout."""
    c_out, c_in, k_h, k_w = dims
    if blocks.size != c_out * c_in * k_h * k_w:
        raise DimensionError(
            f"block matrix holds {blocks.size} values, target dims need "
            f"{c_out * c_in * k_h * k_w}"
        )
    return blocks.reshape(c_out, k_h, k_w, c_in).transpose(0, 3, 1, 2)


@dataclass(frozen=True, eq=False)
class WeightTensor4:
    """Dense conv weight (c_out, c_in, k_h, k_w), float64, all values finite."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 4:
            raise DimensionError(f"expected 4D weight, got {v.ndim}D")
        if v.size == 0:
            raise DimensionError("empty weight tensor")
        if not np.isfinite(v).all():
            raise ValueError("weight tensor contains NaN/Inf")
        object.__setattr__(self, "values", v)

    @property
    def dims(self) -> Dims4:
        return tuple(self.values.shape)  # type: ignore[return-value]

    @cached_property
    def magnitudes(self) -> np.ndarray:
        """Read-only |values|, computed on first use and shared by later readers.

        Like the finiteness check, it assumes ``values`` is not written after
        the tensor is built.
        """
        mags = np.abs(self.values)
        mags.flags.writeable = False
        return mags


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """(g, m) view of a weight tensor plus the dims needed to map back."""

    values: np.ndarray
    origin_dims: Dims4

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionError(f"expected a 2D block matrix, got {v.ndim}D")
        if v.size != int(np.prod(self.origin_dims)):
            raise DimensionError(
                f"{v.shape} blocks cannot come from a tensor of dims {self.origin_dims}"
            )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "origin_dims", tuple(int(d) for d in self.origin_dims))


def rearrange_to_blocks(w: WeightTensor4, m: int) -> BlockMatrix:
    """Group every m consecutive input channels of ``w`` into one block row."""
    return BlockMatrix(block_layout(w.values, m), w.dims)


def block_l1_norms(bm: BlockMatrix) -> np.ndarray:
    """Per-block sum of absolute values, shape (g,)."""
    return np.abs(bm.values).sum(axis=1)
