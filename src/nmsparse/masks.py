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
The hard mask ranks every block once and compares each rank with a per-block
threshold: m-n for a chosen block, 0 for a spared one. Below m = 8 the block
norms are the magnitude columns summed left to right, which is how numpy
sums rows that short, so they equal ``block_l1_norms`` bit for bit.
An axis threshold needs two order statistics per row, not a sort: one
single-kth ``np.partition`` at the largest pruned rank, then the minimum of
the entries above it, which is exact under ties.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import parallel
from .errors import DegenerateAxisError, DimensionError, FieldError
from .schedule import MODES, ORDERINGS
from .tensors import (
    BlockMatrix,
    WeightTensor4,
    block_l1_norms,
    block_layout,
    block_layout_inverse,
    rearrange_to_blocks,
)

# Below this many weights, handing the kernel-axis query to the worker (about 0.1 ms) costs more than it
# saves: a 128x128 build_masks took 7-14% longer with it, a 128x256 one 2-13% less.
WORKER_MIN_WEIGHTS = 2**15


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
        _check_tau(self.tau)


def _check_tau(tau: float) -> None:
    if not tau > 0.0:  # also rejects NaN
        raise ValueError(f"temperature must be positive, got {tau}")


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 1.0:  # also rejects NaN
        raise ValueError(f"delta must lie in [0, 1], got {delta}")


def _ranks(cols: np.ndarray) -> np.ndarray:
    """Each entry's place in its block's magnitude order, from (m, g) columns."""
    m = cols.shape[0]
    ranks = np.arange(m - 1, -1, -1, dtype=np.min_scalar_type(m - 1))[:, None].repeat(cols.shape[1], axis=1)  # later columns
    for j in range(1, m):
        for i in range(j):
            earlier_not_above = cols[i] <= cols[j]
            ranks[j] += earlier_not_above
            ranks[i] -= earlier_not_above  # a later column not below i
    return ranks


def _columns(bm: BlockMatrix) -> np.ndarray:
    """The (m, g) magnitude columns of a block matrix, C-contiguous."""
    return np.abs(bm.values.T, order="C")


def _keep_bits(cols: np.ndarray, drop: int | np.ndarray) -> np.ndarray:
    """uint8 (g, m) mask zeroing each block's ``drop`` (an int, or one per
    block) smallest magnitudes, from (m, g) columns; ties to the lowest column."""
    keep = np.empty(cols.shape[::-1], dtype=bool)
    for j, col_ranks in enumerate(_ranks(cols)):  # one strided write per column
        np.greater_equal(col_ranks, drop, out=keep[:, j])
    return keep.view(np.uint8)


def arg_bottom_per_block(bm: BlockMatrix, pattern: SparsePattern) -> np.ndarray:
    """Indices of the m-n smallest |values| per block, each row strictly increasing.

    Ties go to the lowest column index.
    """
    g, m = bm.values.shape
    if m != pattern.m:
        raise DimensionError(f"block width {m} does not match pattern {pattern}")
    drop = pattern.m - pattern.n
    bottom = _keep_bits(_columns(bm), drop) == 0
    return np.nonzero(bottom)[1].reshape(g, drop)


def select_sparsify_blocks(
    norms: np.ndarray, delta: float, ordering: str = "l1_descending"
) -> np.ndarray:
    """Indices of the ceil(G*delta) blocks to sparsify, sorted ascending.

    l1_descending picks the largest-norm blocks first; l1_ascending is the
    inverse strategy. Norm ties go to the lowest block index.
    """
    _check_delta(delta)
    return np.flatnonzero(_chosen_blocks(np.asarray(norms, dtype=np.float64), delta, ordering)).astype(np.int64)


def _chosen_blocks(norms: np.ndarray, delta: float, ordering: str) -> np.ndarray:
    """Boolean over blocks: the ceil(G*delta) that ``select_sparsify_blocks`` picks."""
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    count = math.ceil(norms.size * delta)
    if count == 0:
        return np.zeros(norms.size, dtype=bool)
    keys = -norms if ordering == "l1_descending" else norms
    boundary = np.partition(keys, count - 1)[count - 1]
    chosen = keys < boundary
    ties = np.flatnonzero(keys == boundary)
    chosen[ties[: count - int(chosen.sum())]] = True
    return chosen


def hard_mask(
    bm: BlockMatrix,
    pattern: SparsePattern,
    delta: float,
    ordering: str = "l1_descending",
) -> HardMask:
    """All-ones mask with the bottom m-n entries of each selected block zeroed.

    At delta 0 no block is chosen and at delta 1 every one is, so the block
    norms are not computed.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    if bm.values.shape[1] != pattern.m:
        raise DimensionError(f"block width {bm.values.shape[1]} does not match pattern {pattern}")
    _check_delta(delta)
    if delta == 0.0:
        return HardMask(np.ones(bm.values.shape, dtype=np.uint8))
    cols = _columns(bm)
    drop = pattern.m - pattern.n
    if delta < 1.0:
        # numpy sums a row shorter than 8 left to right, so below m = 8 adding the
        # magnitude columns gives block_l1_norms' bits, about 12x faster
        norms = sum(cols) if pattern.m < 8 else block_l1_norms(bm)
        drop = _chosen_blocks(norms, delta, ordering) * np.uint8(drop)  # 0 spares a block
    return HardMask(_keep_bits(cols, drop))


def hard_mask_top_width(bm: BlockMatrix, kept: int) -> HardMask:
    """Width-ramp variant: every block keeps its ``kept`` largest magnitudes."""
    m = bm.values.shape[1]
    if not 1 <= kept <= m:
        raise DimensionError(f"kept width {kept} out of range for m={m}")
    return HardMask(_keep_bits(_columns(bm), m - kept))


def kept_width_from_delta(delta: float, pattern: SparsePattern) -> int:
    """Kept entries per block for the width-ramp mode: m - round(delta*(m-n)).

    Rounding is half away from zero so the ramp hits its midpoint eagerly.
    """
    _check_delta(delta)
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
    _check_tau(tau)
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
    """Importance of every weight within its output filter's flattened slice, in (g, m) block layout."""
    c_out, c_in, _, _ = w.dims
    if c_in % pattern.m != 0:
        raise DimensionError(f"pattern {pattern} does not divide c_in={c_in}")
    mags = w.magnitudes.reshape(c_out, -1)
    return block_layout(_row_scores(mags, pattern.sparse_rate, tau).reshape(w.dims), pattern.m)


def kernel_axis_scores(w: WeightTensor4, pattern: SparsePattern, tau: float) -> np.ndarray:
    """Importance of every weight within its spatial kernel position's slice, in (g, m) block layout."""
    c_out, c_in, k_h, k_w = w.dims
    if c_in % pattern.m != 0:
        raise DimensionError(f"pattern {pattern} does not divide c_in={c_in}")
    # group (k1, k2): one vector of length c_out*c_in per kernel position; a view for 1x1
    mags = w.magnitudes.transpose(2, 3, 0, 1).reshape(k_h * k_w, -1)
    scores = _row_scores(mags, pattern.sparse_rate, tau)
    return block_layout(scores.reshape(k_h, k_w, c_out, c_in).transpose(2, 3, 0, 1), pattern.m)


def soft_mask(hard: HardMask, sf: np.ndarray, sk: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """The (g, m) f64 soft mask b * (1 + filter scores + kernel scores) from (g, m) scores.

    Written to ``out`` when given, which may be ``sf`` itself; otherwise to a
    new array.
    """
    if not sf.shape == sk.shape == hard.bits.shape:
        raise DimensionError(f"axis scores {sf.shape} and {sk.shape} do not match the mask's {hard.bits.shape}")
    soft = np.add(sf, 1.0, out=out)
    soft += sk
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
    """One full mask pass for a layer: hard mask, both axis queries, soft mask.

    Both axis queries read ``w.magnitudes``, one |w| pass. From
    ``WORKER_MIN_WEIGHTS`` weights the kernel-axis query runs on the worker
    thread, with the same bytes and the same error for a bad argument. The
    soft mask is built in the filter scores' buffer.
    """
    bm = rearrange_to_blocks(w, pattern.m)
    if mode not in MODES:
        raise ValueError(f"unknown mask mode {mode!r}")
    w.magnitudes  # computed here, so the worker only reads it

    def hard_and_filter():
        if mode == "block_width":
            hard = hard_mask_top_width(bm, kept_width_from_delta(delta, pattern))
        else:
            hard = hard_mask(bm, pattern, delta, ordering)
        return hard, filter_axis_scores(w, pattern, tau)

    inline = w.values.size < WORKER_MIN_WEIGHTS
    sk, (hard, sf) = parallel.both(lambda: kernel_axis_scores(w, pattern, tau), hard_and_filter, inline)
    return hard, soft_mask(hard, sf, sk, out=sf)
