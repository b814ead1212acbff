"""Hard N:M masks, multi-axis importance, soft masks, and mask folding.

A hard mask zeroes the m-n smallest-magnitude entries of each selected
block; blocks are selected by l1 norm until a fraction delta of them is
sparsified. On top of the hard mask, each surviving weight is scored along
the filter axis and the kernel axis with a sigmoid of its distance to a
magnitude threshold. The soft mask is the (g, m) f64 block-layout array
b * (1 + filter_score + kernel_score), so kept entries lie in (1, 3);
folding multiplies the weights by it, which preserves the N:M support.

Tie-breaking is everywhere "lowest index wins", so masks are
bit-reproducible across runs. Within a block, each entry's
place in the magnitude order is counted directly: the earlier columns whose
magnitude is <= its own plus the later columns whose magnitude is < its own.
That count is exactly the entry's position in a stable argsort of the row,
without sorting. Blocks are chosen by partitioning their norms at the
boundary value and taking the lowest-index blocks among those equal to it,
which again equals the first ``count`` entries of a stable argsort.
An axis threshold needs two order statistics per row, not a sort: one
single-kth ``np.partition`` at the largest pruned rank, then the minimum of
the entries above it, which is exact under ties.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DegenerateAxisError, DimensionError, FieldError
from .schedule import ORDERINGS
from .tensors import (
    BlockMatrix,
    WeightTensor4,
    block_l1_norms,
    block_layout,
    block_layout_inverse,
    rearrange_to_blocks,
)


@dataclass(frozen=True)
class SparsePattern:
    """Keep at most n of every m consecutive weights along the input channel."""

    n: int
    m: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.m, int)):
            raise FieldError("n" if not isinstance(self.n, int) else "m", "pattern n and m must be integers")
        if not 1 <= self.n < self.m:
            raise FieldError("n", f"need 1 <= n < m, got {self.n}:{self.m}")

    @property
    def sparse_rate(self) -> float:
        return (self.m - self.n) / self.m

    @classmethod
    def parse(cls, text: str) -> "SparsePattern":
        try:
            n_str, m_str = text.split(":")
            n, m = int(n_str), int(m_str)
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"cannot parse sparse pattern {text!r}, expected 'n:m'") from exc
        return cls(n, m)

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"


@dataclass(eq=False)
class HardMask:
    """Binary (g, m) mask; the sparsified blocks are its rows with fewer than m ones.

    In block_width mode rows may carry an intermediate number of ones while
    the kept width ramps from m down to n.
    """

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise DimensionError("mask bits must be 2D")
        self.bits = bits


@dataclass(frozen=True)
class ImportanceParams:
    """Sparse rate p in [0, 1) and sigmoid temperature tau > 0."""

    p: float
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"sparse rate must lie in [0, 1), got {self.p}")
        if not self.tau > 0.0:
            raise ValueError(f"temperature must be positive, got {self.tau}")


def _keep_bits(values: np.ndarray, drop: int) -> np.ndarray:
    """uint8 (g, m) mask zeroing the ``drop`` smallest |values| of each row,
    ties to the lowest column; ``values`` must be finite.

    An entry's position in a stable argsort of its row is the number of
    earlier columns with |v_i| <= |v_j| plus later columns with |v_i| < |v_j|.
    Counting it takes m(m-1)/2 vectorised compares on contiguous columns.
    """
    cols = np.abs(values.T, order="C")
    m = cols.shape[0]
    ranks = np.zeros(cols.shape, dtype=np.min_scalar_type(m - 1))
    for j in range(1, m):
        for i in range(j):
            earlier_not_above = cols[i] <= cols[j]
            ranks[j] += earlier_not_above
            ranks[i] += ~earlier_not_above
    return np.greater_equal(ranks.T, drop, order="C").view(np.uint8)


def arg_bottom_per_block(bm: BlockMatrix, pattern: SparsePattern) -> np.ndarray:
    """Indices of the m-n smallest |values| per block, each row strictly increasing.

    Ties go to the lowest column index.
    """
    if bm.m != pattern.m:
        raise DimensionError(f"block width {bm.m} does not match pattern {pattern}")
    drop = pattern.m - pattern.n
    bottom = _keep_bits(bm.values, drop) == 0
    return np.nonzero(bottom)[1].reshape(bm.g, drop)


def select_sparsify_blocks(
    norms: np.ndarray, delta: float, ordering: str = "l1_descending"
) -> np.ndarray:
    """Indices of the ceil(G*delta) blocks to sparsify, sorted ascending.

    l1_descending picks the largest-norm blocks first; l1_ascending is the
    inverse strategy. Norm ties go to the lowest block index.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    norms = np.asarray(norms, dtype=np.float64)
    count = math.ceil(norms.size * delta)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    keys = -norms if ordering == "l1_descending" else norms
    boundary = np.partition(keys, count - 1)[count - 1]
    chosen = keys < boundary
    ties = np.flatnonzero(keys == boundary)
    chosen[ties[: count - int(chosen.sum())]] = True
    return np.flatnonzero(chosen).astype(np.int64)


def hard_mask(
    bm: BlockMatrix,
    pattern: SparsePattern,
    delta: float,
    ordering: str = "l1_descending",
) -> HardMask:
    """All-ones mask with the bottom m-n entries of each selected block zeroed.

    At delta 1 every block is chosen, so the block norms are not computed.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    if bm.m != pattern.m:
        raise DimensionError(f"block width {bm.m} does not match pattern {pattern}")
    drop = pattern.m - pattern.n
    if delta == 1.0:
        return HardMask(_keep_bits(bm.values, drop))
    chosen = select_sparsify_blocks(block_l1_norms(bm), delta, ordering)
    bits = np.ones((bm.g, bm.m), dtype=np.uint8)
    bits[chosen] = _keep_bits(bm.values[chosen], drop)
    return HardMask(bits)


def hard_mask_top_width(bm: BlockMatrix, kept: int) -> HardMask:
    """Width-ramp variant: every block keeps its ``kept`` largest magnitudes."""
    if not 1 <= kept <= bm.m:
        raise DimensionError(f"kept width {kept} out of range for m={bm.m}")
    drop = bm.m - kept
    if drop == 0:
        return HardMask(np.ones((bm.g, bm.m), dtype=np.uint8))
    return HardMask(_keep_bits(bm.values, drop))


def kept_width_from_delta(delta: float, pattern: SparsePattern) -> int:
    """Kept entries per block for the width-ramp mode: m - round(delta*(m-n)).

    Rounding is half away from zero so the ramp hits its midpoint eagerly.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    x = delta * (pattern.m - pattern.n)
    return pattern.m - int(math.floor(x + 0.5))


def _kept_count(length: int, p: float) -> int:
    if length < 2:
        raise DegenerateAxisError(f"axis vector of length {length} has no threshold")
    k_real = (1.0 - p) * length
    k = int(round(k_real))
    if abs(k_real - k) > 1e-9 * max(1.0, length):
        raise DimensionError(f"(1-p)*length = {k_real} is not an integer")
    if k <= 0 or k >= length:
        raise DegenerateAxisError(f"kept count {k} is degenerate for length {length}")
    return k


def _row_thresholds(mags: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a (rows, L) magnitude array at sparse rate p: the smallest
    kept magnitude, the largest pruned one, and their midpoint.

    Partitions ``mags`` in place.
    """
    r = mags.shape[1] - _kept_count(mags.shape[1], p) - 1
    mags.partition(r, axis=1)
    high, low = mags[:, r + 1 :].min(axis=1), mags[:, r].copy()
    return high, low, (high + low) / 2.0


def _row_scores(mags: np.ndarray, p: float, tau: float) -> np.ndarray:
    """sigmoid((mags - row midpoint) / tau) for a (rows, L) magnitude array,
    computed in one scratch array that first holds the partitioned copy."""
    buf = mags.copy()
    _, _, sigma = _row_thresholds(buf, p)
    np.subtract(mags, sigma[:, None], out=buf)
    buf /= tau
    return expit(buf, out=buf)


def _one_row(v) -> np.ndarray:
    return np.abs(np.asarray(v, dtype=np.float64)).reshape(1, -1)


def importance_threshold(v: np.ndarray, p: float) -> float:
    """Midpoint between the smallest kept and largest pruned magnitude."""
    _, _, sigma = _row_thresholds(_one_row(v), p)
    return float(sigma[0])


def importance_scores(v: np.ndarray, params: ImportanceParams) -> np.ndarray:
    """sigmoid((|v_i| - threshold) / tau); exactly 0.5 at the threshold."""
    return _row_scores(_one_row(v), params.p, params.tau)[0]


def filter_axis_scores(w: WeightTensor4, pattern: SparsePattern, tau: float) -> np.ndarray:
    """Importance of every weight within its output filter's flattened slice."""
    if w.c_in % pattern.m != 0:
        raise DimensionError(f"pattern {pattern} does not divide c_in={w.c_in}")
    mags = np.abs(w.values).reshape(w.c_out, -1)
    return _row_scores(mags, pattern.sparse_rate, tau).reshape(w.dims)


def kernel_axis_scores(w: WeightTensor4, pattern: SparsePattern, tau: float) -> np.ndarray:
    """Importance of every weight within its spatial kernel position's slice."""
    if w.c_in % pattern.m != 0:
        raise DimensionError(f"pattern {pattern} does not divide c_in={w.c_in}")
    # group (k1, k2): one vector of length c_out*c_in per kernel position
    mags = np.abs(w.values.transpose(2, 3, 0, 1), order="C").reshape(w.k_h * w.k_w, -1)
    scores = _row_scores(mags, pattern.sparse_rate, tau)
    return scores.reshape(w.k_h, w.k_w, w.c_out, w.c_in).transpose(2, 3, 0, 1)


def soft_mask(hard: HardMask, sf: np.ndarray, sk: np.ndarray) -> np.ndarray:
    """The (g, m) f64 soft mask b * (1 + filter scores + kernel scores) in block layout."""
    if sf.shape != sk.shape:
        raise DimensionError(f"axis score shapes differ: {sf.shape} vs {sk.shape}")
    if sf.size != hard.bits.size:
        raise DimensionError(f"axis scores hold {sf.size} entries, mask needs {hard.bits.size}")
    m = hard.bits.shape[1]
    soft = np.add(block_layout(sf, m), 1.0)
    soft += block_layout(sk, m)
    soft *= hard.bits
    return soft


def fold(weight: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """weight * the (g, m) soft mask in the 4D weight layout; support shrinks to the mask's."""
    return weight * block_layout_inverse(soft, weight.shape)


def build_masks(
    w: WeightTensor4,
    pattern: SparsePattern,
    tau: float,
    delta: float,
    ordering: str = "l1_descending",
    mode: str = "block_percentage",
) -> tuple[HardMask, np.ndarray]:
    """One full mask pass for a layer: hard mask, both axis queries, soft mask."""
    bm = rearrange_to_blocks(w, pattern.m)
    if mode == "block_width":
        hard = hard_mask_top_width(bm, kept_width_from_delta(delta, pattern))
    elif mode == "block_percentage":
        hard = hard_mask(bm, pattern, delta, ordering)
    else:
        raise ValueError(f"unknown mask mode {mode!r}")
    sf = filter_axis_scores(w, pattern, tau)
    sk = kernel_axis_scores(w, pattern, tau)
    return hard, soft_mask(hard, sf, sk)
