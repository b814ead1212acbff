import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nmsparse.errors import DegenerateAxisError, DimensionError
from nmsparse.masks import (
    ImportanceParams,
    _row_thresholds,
    SparsePattern,
    arg_bottom_per_block,
    build_masks,
    filter_axis_scores,
    fold,
    hard_mask,
    hard_mask_top_width,
    importance_scores,
    importance_threshold,
    kept_width_from_delta,
    kernel_axis_scores,
    select_sparsify_blocks,
    soft_mask,
)
from nmsparse.schedule import Schedule, delta as schedule_delta
from nmsparse.tensors import BlockMatrix, WeightTensor4, block_l1_norms, block_layout, rearrange_to_blocks


def bm_of(rows, dims=None):
    rows = np.asarray(rows, dtype=np.float64)
    if dims is None:
        dims = (rows.shape[0], rows.shape[1], 1, 1)
    return BlockMatrix(rows, dims)


# ---------------------------------------------------------------- oracles

def bottom_oracle(row, drop):
    """All drop-subsets, minimal |.| sum, ties to the lexicographically smallest."""
    best = None
    for subset in itertools.combinations(range(len(row)), drop):
        key = (sum(abs(row[i]) for i in subset), subset)
        if best is None or key < best:
            best = key
    return list(best[1])


def select_oracle(norms, frac, ordering):
    count = math.ceil(len(norms) * frac)
    if ordering == "l1_descending":
        order = sorted(range(len(norms)), key=lambda i: (-norms[i], i))
    else:
        order = sorted(range(len(norms)), key=lambda i: (norms[i], i))
    return sorted(order[:count])


def threshold_bounds(v, p):
    """(smallest kept, largest pruned magnitude) of one vector, through the row routine."""
    high, low, _ = _row_thresholds(np.abs(np.asarray(v, dtype=np.float64)).reshape(1, -1), p)
    return float(high[0]), float(low[0])


def threshold_oracle(values, p):
    mags = sorted(abs(v) for v in values)
    kept = round((1 - p) * len(values))
    return mags[-kept], mags[-kept - 1]


def naive_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


# ---------------------------------------------------------------- patterns

def test_pattern_validation():
    SparsePattern(1, 4)
    SparsePattern(2, 4)
    with pytest.raises(ValueError):
        SparsePattern(4, 4)  # query sparse rate would be 0
    with pytest.raises(ValueError):
        SparsePattern(0, 4)
    with pytest.raises(ValueError):
        SparsePattern.parse("5:4")
    assert SparsePattern.parse("2:8") == SparsePattern(2, 8)
    assert str(SparsePattern(1, 16)) == "1:16"


@pytest.mark.parametrize(
    "text, message",
    [
        ("5:4", r"^need 1 <= n < m, got 5:4$"),
        ("2:x", r"^cannot parse sparse pattern '2:x'"),
        ("2:4:8", r"^cannot parse sparse pattern '2:4:8'"),
        ("", r"^cannot parse sparse pattern ''"),
    ],
)
def test_pattern_parse_raises_one_value_error(text, message):
    with pytest.raises(ValueError, match=message) as info:
        SparsePattern.parse(text)
    # an out-of-range pattern is the constructor's own error, not a wrapped parse error
    assert (info.value.__cause__ is None) == (text == "5:4")


# ---------------------------------------------------------- bottom-k per block

def test_arg_bottom_hand_example():
    bm = bm_of([[0.9, 0.1, -0.5, 0.2]])
    np.testing.assert_array_equal(arg_bottom_per_block(bm, SparsePattern(2, 4)), [[1, 3]])


def test_arg_bottom_all_ties_take_lowest_indices():
    bm = bm_of([[0.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(arg_bottom_per_block(bm, SparsePattern(2, 4)), [[0, 1]])


def test_arg_bottom_rows_strictly_increasing():
    rng = np.random.default_rng(0)
    bm = bm_of(rng.normal(size=(64, 8)))
    out = arg_bottom_per_block(bm, SparsePattern(2, 8))
    assert out.shape == (64, 6)
    assert (np.diff(out, axis=1) > 0).all()


def test_arg_bottom_matches_subset_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = int(rng.choice([4, 6, 8, 12]))
        n = int(rng.integers(1, m))
        if rng.random() < 0.5:
            row = rng.normal(size=m)
        else:
            row = rng.integers(-3, 4, size=m).astype(float)  # plenty of ties
        got = arg_bottom_per_block(bm_of([row]), SparsePattern(n, m))[0]
        assert list(got) == bottom_oracle(row, m - n)


# ----------------------------------------------------------- block selection

def test_select_blocks_hand_examples():
    norms = np.array([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(select_sparsify_blocks(norms, 1 / 3), [0])
    np.testing.assert_array_equal(select_sparsify_blocks(norms, 1 / 3, "l1_ascending"), [1])
    assert select_sparsify_blocks(norms, 0.0).size == 0
    np.testing.assert_array_equal(select_sparsify_blocks(norms, 1.0), [0, 1, 2])


def test_select_blocks_matches_sort_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200)[:]:
        g = int(rng.integers(1, 30))
        norms = rng.integers(0, 6, size=g).astype(float)  # ties likely
        frac = float(rng.uniform())
        for ordering in ("l1_descending", "l1_ascending"):
            got = select_sparsify_blocks(norms, frac, ordering)
            assert list(got) == select_oracle(norms, frac, ordering)
            assert got.size == math.ceil(g * frac)


def test_select_blocks_scale_invariant():
    rng = np.random.default_rng(3)
    norms = rng.integers(0, 100, size=25).astype(float)
    for c in (0.5, 2.0, 4.0, 2.0**-10, 3.0):
        np.testing.assert_array_equal(
            select_sparsify_blocks(norms, 0.4), select_sparsify_blocks(c * norms, 0.4)
        )


# ---------------------------------------------------------------- hard masks

def test_hard_mask_delta_one_keeps_top_magnitude():
    rng = np.random.default_rng(4)
    bm = bm_of(rng.normal(size=(32, 4)))
    mask = hard_mask(bm, SparsePattern(1, 4), 1.0)
    assert (mask.bits.sum(axis=1) == 1).all()
    kept_cols = mask.bits.argmax(axis=1)
    np.testing.assert_array_equal(kept_cols, np.abs(bm.values).argmax(axis=1))


def test_hard_mask_delta_zero_is_all_ones():
    bm = bm_of(np.random.default_rng(5).normal(size=(10, 8)))
    mask = hard_mask(bm, SparsePattern(2, 8), 0.0)
    assert mask.bits.all()


def test_unknown_ordering_raises_at_every_delta():
    bm = bm_of(np.random.default_rng(6).normal(size=(6, 4)))
    norms = np.abs(bm.values).sum(axis=1)
    for delta in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="unknown ordering 'bogus'"):
            hard_mask(bm, SparsePattern(2, 4), delta, "bogus")
        with pytest.raises(ValueError, match="unknown ordering 'bogus'"):
            select_sparsify_blocks(norms, delta, "bogus")


def test_hard_mask_two_block_composition():
    bm = bm_of([[1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4]])
    mask = hard_mask(bm, SparsePattern(2, 4), 0.5)
    np.testing.assert_array_equal(mask.bits[0], [0, 0, 1, 1])  # larger l1 norm first
    np.testing.assert_array_equal(mask.bits[1], [1, 1, 1, 1])


def test_hard_mask_zero_counts_per_row():
    rng = np.random.default_rng(6)
    bm = bm_of(rng.normal(size=(50, 8)))
    pattern = SparsePattern(2, 8)
    mask = hard_mask(bm, pattern, 0.37)
    zeros = (mask.bits == 0).sum(axis=1)
    in_t = np.zeros(50, dtype=bool)
    in_t[select_sparsify_blocks(np.abs(bm.values).sum(axis=1), 0.37)] = True
    assert (zeros[in_t] == 6).all()
    assert (zeros[~in_t] == 0).all()


def test_hard_mask_determinism():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(40, 4))
    a = hard_mask(bm_of(vals.copy()), SparsePattern(2, 4), 0.6)
    b = hard_mask(bm_of(vals.copy()), SparsePattern(2, 4), 0.6)
    np.testing.assert_array_equal(a.bits, b.bits)


# ------------------------------------------------------------- width ramp

def test_kept_width_endpoints_and_midpoint():
    p14 = SparsePattern(1, 4)
    assert kept_width_from_delta(0.0, p14) == 4
    assert kept_width_from_delta(1.0, p14) == 1
    assert kept_width_from_delta(0.5, p14) == 2  # 4 - round(1.5), half away from zero


def test_kept_width_monotone_over_cubic_sweep():
    sched = Schedule(0, 90, "cubic")
    pattern = SparsePattern(1, 16)
    widths = [kept_width_from_delta(schedule_delta(t, sched), pattern) for t in range(0, 120)]
    assert widths[0] == 16 and widths[-1] == 1
    assert all(b <= a for a, b in zip(widths, widths[1:]))


def test_width_mode_mask_keeps_top_k():
    rng = np.random.default_rng(8)
    bm = bm_of(rng.normal(size=(20, 8)))
    mask = hard_mask_top_width(bm, 3)
    assert (mask.bits.sum(axis=1) == 3).all()
    order = np.argsort(np.abs(bm.values), axis=1, kind="stable")
    for g in range(20):
        assert set(np.nonzero(mask.bits[g])[0]) == set(order[g, -3:])


# ------------------------------------------------------------- thresholds

def test_threshold_hand_example():
    v = np.array([0.9, 0.5, 0.3, 0.1])
    high, low = threshold_bounds(v, 0.5)
    assert (high, low) == (0.5, 0.3)
    assert importance_threshold(v, 0.5) == pytest.approx(0.4, abs=1e-15)


def test_threshold_equal_magnitudes():
    v = np.full(8, -0.7)
    assert importance_threshold(v, 0.5) == pytest.approx(0.7, abs=1e-15)


def test_threshold_all_zero_vector():
    assert importance_threshold(np.zeros(8), 0.25) == 0.0


def test_threshold_matches_sort_oracle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        length = int(rng.integers(2, 17))
        v = rng.normal(size=length)
        kept_choices = range(1, length)
        kept = int(rng.choice(list(kept_choices)))
        p = 1.0 - kept / length
        high, low = threshold_bounds(v, p)
        assert (high, low) == threshold_oracle(v, p)


def sort_thresholds_reference(mags, kept):
    ordered = np.sort(mags, axis=1)
    length = mags.shape[1]
    return ordered[:, length - kept], ordered[:, length - kept - 1]


@st.composite
def threshold_rows(draw):
    """(rows, L) signed values up to L = 70,000 and a kept count in [1, L-1].

    Kinds: normal floats; small integers (ties everywhere); a palette with
    0.0 and -0.0; all-equal rows. Large arrays come from a drawn seed.
    """
    length = draw(st.one_of(st.integers(2, 16), st.integers(17, 3000), st.integers(60_000, 70_000)))
    rows = draw(st.integers(1, min(64, 200_000 // length)))
    kind = draw(st.sampled_from(["normal", "normal", "integers", "signed_zeros", "all_equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kept = draw(st.sampled_from([1, length - 1, *rng.integers(1, length, size=2).tolist()]))
    if kind == "normal":
        values = rng.normal(size=(rows, length))
    elif kind == "integers":
        values = rng.integers(-4, 5, size=(rows, length)).astype(np.float64)
    elif kind == "signed_zeros":
        values = rng.choice(np.array([0.0, -0.0, 0.5, -0.5, 2.0]), size=(rows, length))
    else:
        values = np.full((rows, length), rng.choice([0.0, -0.0, 1.5]))
    return values, kept


@settings(max_examples=300, deadline=None)
@given(case=threshold_rows())
# a partition leaves the tail unordered; on this input (numpy 2.4, x86-64) the
# entry right after the pruned boundary is not the smallest kept magnitude
@example(case=(np.random.default_rng(155).normal(size=(1, 261)), 160))
def test_thresholds_match_sort_reference_on_long_and_tied_rows(case):
    values, kept = case
    length = values.shape[1]
    p = 1.0 - kept / length
    mags = np.abs(values)
    high_ref, low_ref = sort_thresholds_reference(mags, kept)
    high, low, sigma = _row_thresholds(mags.copy(), p)
    np.testing.assert_array_equal(high, high_ref)
    np.testing.assert_array_equal(low, low_ref)
    np.testing.assert_array_equal(sigma, (high_ref + low_ref) / 2.0)
    for row, h, l in zip(values, high_ref, low_ref):
        assert threshold_bounds(row, p) == (h, l)


def test_threshold_degenerate_cases():
    with pytest.raises(DegenerateAxisError):
        threshold_bounds(np.array([1.0]), 0.5)
    with pytest.raises(DegenerateAxisError):
        threshold_bounds(np.arange(4.0), 0.0)  # kept = len
    with pytest.raises(DimensionError):
        threshold_bounds(np.arange(4.0), 0.3)  # non-integral kept count


# ------------------------------------------------------------------ scores

def test_score_half_at_threshold():
    v = np.array([0.9, 0.5, 0.3, 0.1])
    scores = importance_scores(v, ImportanceParams(0.5, 0.1))
    # 0.5 exactly when |v| equals the 0.4 midpoint; none of these do, but check formula
    sigma = importance_threshold(v, 0.5)
    for val, s in zip(v, scores):
        assert s == pytest.approx(naive_sigmoid((abs(val) - sigma) / 0.1), abs=1e-15)
    assert scores[0] == pytest.approx(naive_sigmoid(5.0), abs=1e-12)  # sigmoid(5) ~ 0.99331


def test_score_exactly_half_when_at_sigma():
    v = np.array([0.4, 0.8, 0.2, 0.6])  # sigma = (0.6 + 0.4)/2 = 0.5 with p=0.5
    scores = importance_scores(v, ImportanceParams(0.5, 0.1))
    assert importance_threshold(v, 0.5) == 0.5
    v2 = np.array([0.5, 0.8, 0.2, 0.6])
    scores2 = importance_scores(v2, ImportanceParams(0.5, 0.1))
    sigma2 = importance_threshold(v2, 0.5)
    assert sigma2 == 0.55
    assert scores2[0] == pytest.approx(naive_sigmoid((0.5 - 0.55) / 0.1), abs=1e-15)
    # construct an exact hit: all equal -> sigma equals the magnitude -> all 0.5
    equal = importance_scores(np.full(4, 0.3), ImportanceParams(0.5, 0.1))
    np.testing.assert_array_equal(equal, 0.5)
    assert scores.shape == (4,)


def test_score_monotone_in_magnitude():
    v = np.array([0.05, 0.1, 0.2, 0.4, 0.5, 0.8, 0.9, 1.0])
    scores = importance_scores(v, ImportanceParams(0.5, 0.1))
    assert (np.diff(scores) > 0).all()


def test_score_saturates_at_tiny_temperature():
    v = np.array([0.9, 0.5, 0.3, 0.1])
    scores = importance_scores(v, ImportanceParams(0.5, 1e-6))
    assert scores[0] >= 1.0 - 1e-9
    assert scores[3] <= 1e-9


def test_importance_params_validation():
    with pytest.raises(ValueError):
        ImportanceParams(1.0, 0.1)
    with pytest.raises(ValueError):
        ImportanceParams(0.5, 0.0)


# ------------------------------------------------------------- axis scores

def test_axis_scores_symmetric_filters_are_half():
    # every filter has identical magnitudes -> sigma equals them -> all 0.5
    w = WeightTensor4(np.full((3, 4, 2, 2), 0.25))
    scores = filter_axis_scores(w, SparsePattern(2, 4), 0.1)
    np.testing.assert_array_equal(scores, 0.5)
    kscores = kernel_axis_scores(w, SparsePattern(2, 4), 0.1)
    np.testing.assert_array_equal(kscores, 0.5)


AXIS_ORACLE_CASES = [
    # (dims, pattern, values): a 3x3 conv, a 1x1 layer whose one kernel-axis
    # slice is the whole tensor, an integer-valued tensor full of magnitude
    # ties, and a 1:16 pattern
    ((4, 8, 3, 3), SparsePattern(2, 4), "normal"),
    ((16, 8, 1, 1), SparsePattern(2, 4), "normal"),
    ((6, 8, 2, 2), SparsePattern(2, 4), "integers"),
    ((3, 32, 2, 1), SparsePattern(1, 16), "normal"),
]


def test_axis_scores_match_per_vector_composition():
    """Filter and kernel scores equal importance_scores on every slice, bit for bit."""
    rng = np.random.default_rng(10)
    tau = 0.1
    for dims, pattern, kind in AXIS_ORACLE_CASES:
        if kind == "integers":
            w = WeightTensor4(rng.integers(-3, 4, size=dims).astype(np.float64))
        else:
            w = WeightTensor4(rng.normal(size=dims))
        params = ImportanceParams(pattern.sparse_rate, tau)
        fscores = filter_axis_scores(w, pattern, tau)
        assert fscores.shape == w.dims
        for i in range(w.dims[0]):
            np.testing.assert_array_equal(
                fscores[i].reshape(-1), importance_scores(w.values[i].reshape(-1), params)
            )
        kscores = kernel_axis_scores(w, pattern, tau)
        assert kscores.shape == w.dims
        for k1 in range(w.dims[2]):
            for k2 in range(w.dims[3]):
                slice_ = w.values[:, :, k1, k2].reshape(-1)
                np.testing.assert_array_equal(
                    kscores[:, :, k1, k2].reshape(-1), importance_scores(slice_, params)
                )


def test_axis_scores_in_unit_interval():
    rng = np.random.default_rng(11)
    w = WeightTensor4(rng.normal(size=(6, 16, 2, 2)))
    for scores in (
        filter_axis_scores(w, SparsePattern(1, 4), 0.1),
        kernel_axis_scores(w, SparsePattern(1, 4), 0.1),
    ):
        assert (scores > 0.0).all() and (scores < 1.0).all()


# -------------------------------------------------------------- soft masks

def soft_mask_loop_oracle(w, bits, pattern, tau):
    """Direct scalar evaluation: b * (1 + filter score + kernel score)."""
    c_out, c_in, k_h, k_w = w.shape
    m = pattern.m
    p = pattern.sparse_rate
    out = np.zeros_like(bits, dtype=np.float64)

    def sigma_of(vec):
        mags = sorted(abs(x) for x in vec)
        kept = round((1 - p) * len(vec))
        return (mags[-kept] + mags[-kept - 1]) / 2.0

    filter_sigmas = [sigma_of(w[i].reshape(-1)) for i in range(c_out)]
    kernel_sigmas = {
        (k1, k2): sigma_of(w[:, :, k1, k2].reshape(-1))
        for k1 in range(k_h)
        for k2 in range(k_w)
    }
    for o in range(c_out):
        for c in range(c_in):
            for kh in range(k_h):
                for kw in range(k_w):
                    g = ((o * k_h + kh) * k_w + kw) * (c_in // m) + c // m
                    j = c % m
                    sf = naive_sigmoid((abs(w[o, c, kh, kw]) - filter_sigmas[o]) / tau)
                    sk = naive_sigmoid((abs(w[o, c, kh, kw]) - kernel_sigmas[(kh, kw)]) / tau)
                    out[g, j] = bits[g, j] * (1.0 + sf + sk)
    return out


def test_soft_mask_annihilated_by_hard_zeros():
    rng = np.random.default_rng(12)
    w = WeightTensor4(rng.normal(size=(2, 4, 1, 1)))
    pattern = SparsePattern(1, 4)
    hard, soft = build_masks(w, pattern, 0.1, delta=1.0)
    assert (soft[hard.bits == 0] == 0.0).all()
    assert ((soft > 1.0) & (soft < 3.0))[hard.bits == 1].all()


def test_soft_mask_value_two_when_scores_are_half():
    w = WeightTensor4(np.full((2, 4, 1, 1), 0.5))
    pattern = SparsePattern(2, 4)
    hard, soft = build_masks(w, pattern, 0.1, delta=0.0)
    np.testing.assert_array_equal(soft, 2.0)


def test_soft_mask_matches_scalar_loop_oracle():
    rng = np.random.default_rng(13)
    w = WeightTensor4(rng.normal(size=(4, 8, 2, 2)))
    pattern = SparsePattern(2, 4)
    tau = 0.1
    hard, soft = build_masks(w, pattern, tau, delta=0.7)
    expected = soft_mask_loop_oracle(w.values, hard.bits, pattern, tau)
    np.testing.assert_allclose(soft, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dims", [(8, 16, 1, 1), (4, 8, 3, 3)])
def test_soft_mask_leaves_its_inputs_unchanged(dims):
    rng = np.random.default_rng(19)
    w = WeightTensor4(rng.normal(size=dims))
    pattern = SparsePattern(2, 4)
    hard = hard_mask(rearrange_to_blocks(w, 4), pattern, 0.5)
    sf = filter_axis_scores(w, pattern, 0.1)
    sk = kernel_axis_scores(w, pattern, 0.1)
    before = (sf.copy(), sk.copy(), hard.bits.copy())
    soft = soft_mask(hard, sf, sk)
    for after, saved in zip((sf, sk, hard.bits), before):
        np.testing.assert_array_equal(after, saved)
    assert not any(np.shares_memory(soft, a) for a in (sf, sk, hard.bits))


@pytest.mark.parametrize("dims", [(8, 16, 1, 1), (4, 8, 3, 3)])
@pytest.mark.parametrize("mode", ["block_percentage", "block_width"])
def test_build_masks_and_axis_queries_leave_the_weights_and_share_no_memory(dims, mode):
    # build_masks shares |w| between the axis queries and may build the soft
    # mask in the filter scores' buffer; none of that may reach the caller's arrays
    rng = np.random.default_rng(20)
    values = rng.normal(size=dims)
    saved = values.tobytes()
    w = WeightTensor4(values)
    pattern = SparsePattern(2, 4)
    hard, soft = build_masks(w, pattern, 0.1, delta=0.5, mode=mode)
    assert values.tobytes() == saved
    assert not np.shares_memory(soft, values)
    assert not np.shares_memory(soft, w.magnitudes)
    sf = filter_axis_scores(w, pattern, 0.1)
    sk = kernel_axis_scores(w, pattern, 0.1)
    for scores in (sf, sk):
        assert not any(np.shares_memory(scores, a) for a in (values, w.magnitudes, soft))
    assert not np.shares_memory(sf, sk)
    np.testing.assert_array_equal(w.magnitudes, np.abs(values))
    assert values.tobytes() == saved


@pytest.mark.parametrize("delta", [-0.5, 1.5, math.nan])
@pytest.mark.parametrize("mode", ["block_percentage", "block_width"])
def test_build_masks_rejects_delta_outside_the_unit_interval(mode, delta):
    w = WeightTensor4(np.random.default_rng(21).normal(size=(4, 8, 1, 1)))
    pattern = SparsePattern(2, 4)
    checks = [lambda: build_masks(w, pattern, 0.1, delta=delta, mode=mode)]
    if mode == "block_percentage":
        checks += [lambda: hard_mask(rearrange_to_blocks(w, 4), pattern, delta),
                   lambda: select_sparsify_blocks(np.ones(8), delta)]
    else:
        checks.append(lambda: kept_width_from_delta(delta, pattern))
    for check in checks:
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\]"):
            check()


@pytest.mark.parametrize("tau", [0.0, -0.1, math.nan])
def test_mask_queries_reject_a_temperature_that_is_not_positive(tau):
    # tau = 0 divides by zero, tau < 0 boosts the smaller kept weights, NaN poisons the soft mask
    w = WeightTensor4(np.random.default_rng(22).normal(size=(4, 8, 3, 3)))
    pattern = SparsePattern(2, 4)
    queries = (filter_axis_scores, kernel_axis_scores, lambda w, p, t: build_masks(w, p, t, delta=0.5))
    for query in queries:
        with pytest.raises(ValueError, match="temperature must be positive"):
            query(w, pattern, tau)


def test_soft_mask_shape_mismatch_raises():
    rng = np.random.default_rng(14)
    w = WeightTensor4(rng.normal(size=(2, 4, 1, 1)))
    pattern = SparsePattern(1, 4)
    bm = rearrange_to_blocks(w, 4)
    hard = hard_mask(bm, pattern, 1.0)
    sf = filter_axis_scores(w, pattern, 0.1)
    other = WeightTensor4(rng.normal(size=(2, 8, 1, 1)))
    sk = kernel_axis_scores(other, pattern, 0.1)
    with pytest.raises(DimensionError):
        soft_mask(hard, sf, sk)


# ------------------------------------------------------------------- fold

def test_fold_with_binary_mask_is_magnitude_pruning():
    rng = np.random.default_rng(15)
    vals = rng.normal(size=(2, 8, 2, 2))
    pattern = SparsePattern(2, 4)
    hard = hard_mask(rearrange_to_blocks(WeightTensor4(vals), 4), pattern, 1.0)
    folded = fold(vals, hard.bits.astype(np.float64))
    np.testing.assert_array_equal(block_layout(folded, 4), block_layout(vals, 4) * hard.bits)
    assert ((block_layout(folded, 4) != 0).sum(axis=1) <= 2).all()


def test_fold_support_containment():
    rng = np.random.default_rng(16)
    w = WeightTensor4(rng.normal(size=(4, 8, 1, 1)))
    pattern = SparsePattern(2, 8)
    hard, soft = build_masks(w, pattern, 0.1, delta=1.0)
    folded = block_layout(fold(w.values, soft), 8)
    assert ((folded != 0).sum(axis=1) <= pattern.n).all()
    # folding again with the same binary support does not change the support
    np.testing.assert_array_equal(folded != 0, (folded * hard.bits) != 0)


# --------------------------------------------------- pipeline determinism

def test_build_masks_bit_identical_across_runs():
    rng = np.random.default_rng(17)
    vals = rng.normal(size=(4, 8, 3, 3))
    out = []
    for _ in range(2):
        hard, soft = build_masks(WeightTensor4(vals.copy()), SparsePattern(2, 8), 0.1, delta=0.42)
        out.append((hard.bits.copy(), soft.copy()))
    np.testing.assert_array_equal(out[0][0], out[1][0])
    np.testing.assert_array_equal(out[0][1], out[1][1])


@pytest.mark.parametrize("dims", [(1024, 1024, 1, 1), (256, 256, 1, 1), (128, 64, 3, 3), (32, 16, 3, 3)])
@pytest.mark.parametrize("pattern", [SparsePattern(2, 4), SparsePattern(2, 8), SparsePattern(1, 16)], ids=str)
def test_build_masks_equals_the_sequential_queries_bit_for_bit(dims, pattern):
    # from 2**15 weights, build_masks runs the kernel-axis query on a worker thread
    values = np.random.default_rng([23, *dims, pattern.m]).normal(size=dims)
    for delta, mode in itertools.product((0.0, 0.6, 1.0), ("block_percentage", "block_width")):
        hard, soft = build_masks(WeightTensor4(values), pattern, 0.1, delta, mode=mode)
        w = WeightTensor4(values)
        bm = rearrange_to_blocks(w, pattern.m)
        if mode == "block_width":
            expected_hard = hard_mask_top_width(bm, kept_width_from_delta(delta, pattern))
        else:
            expected_hard = hard_mask(bm, pattern, delta)
        sf = filter_axis_scores(w, pattern, 0.1)
        sk = kernel_axis_scores(w, pattern, 0.1)
        expected_soft = soft_mask(expected_hard, sf, sk)
        assert hard.bits.tobytes() == expected_hard.bits.tobytes(), (delta, mode)
        assert soft.tobytes() == expected_soft.tobytes(), (delta, mode)


# ------------------------------- sort-free selection vs stable-argsort reference

def argsort_bottom_reference(values, drop):
    order = np.argsort(np.abs(values), axis=1, kind="stable")
    return np.sort(order[:, :drop], axis=1)


def argsort_select_reference(norms, delta, ordering):
    count = math.ceil(norms.size * delta)
    keys = -norms if ordering == "l1_descending" else norms
    return np.sort(np.argsort(keys, kind="stable")[:count])


def argsort_hard_mask_reference(values, pattern, delta, ordering):
    bottom = argsort_bottom_reference(values, pattern.m - pattern.n)
    chosen = argsort_select_reference(np.abs(values).sum(axis=1), delta, ordering)
    bits = np.ones(values.shape, dtype=np.uint8)
    bits[chosen[:, None], bottom[chosen]] = 0
    return bits, chosen


def argsort_top_width_reference(values, kept):
    order = np.argsort(np.abs(values), axis=1, kind="stable")
    bits = np.ones(values.shape, dtype=np.uint8)
    bits[np.arange(values.shape[0])[:, None], order[:, : values.shape[1] - kept]] = 0
    return bits


@st.composite
def tie_heavy_blocks(draw):
    """(g, m) blocks whose entries take 3-4 magnitudes, with 0.0 and -0.0 among them."""
    m = draw(st.sampled_from([4, 8, 16]))
    g = draw(st.integers(1, 24))
    mags = draw(
        st.lists(
            st.floats(min_value=5e-324, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    palette = np.array([0.0, -0.0, *mags, *(-x for x in mags)])
    picks = draw(hnp.arrays(np.intp, (g, m), elements=st.integers(0, palette.size - 1)))
    return palette[picks]


deltas = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))
orderings = st.sampled_from(["l1_descending", "l1_ascending"])


@settings(max_examples=300, deadline=None)
@given(values=tie_heavy_blocks(), data=st.data())
def test_arg_bottom_matches_stable_argsort_on_ties(values, data):
    m = values.shape[1]
    n = data.draw(st.integers(1, m - 1))
    got = arg_bottom_per_block(bm_of(values), SparsePattern(n, m))
    np.testing.assert_array_equal(got, argsort_bottom_reference(values, m - n))


@settings(max_examples=300, deadline=None)
@given(values=tie_heavy_blocks(), delta=deltas, ordering=orderings)
def test_select_blocks_matches_stable_argsort_on_ties(values, delta, ordering):
    norms = np.abs(values).sum(axis=1)
    got = select_sparsify_blocks(norms, delta, ordering)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, argsort_select_reference(norms, delta, ordering))


@settings(max_examples=300, deadline=None)
@given(values=tie_heavy_blocks(), delta=deltas, ordering=orderings, data=st.data())
def test_hard_mask_matches_stable_argsort_on_ties(values, delta, ordering, data):
    m = values.shape[1]
    pattern = SparsePattern(data.draw(st.integers(1, m - 1)), m)
    got = hard_mask(bm_of(values), pattern, delta, ordering)
    bits, chosen = argsort_hard_mask_reference(values, pattern, delta, ordering)
    assert got.bits.dtype == np.uint8 and got.bits.flags.c_contiguous
    np.testing.assert_array_equal(got.bits, bits)
    np.testing.assert_array_equal(np.flatnonzero(got.bits.sum(axis=1) < m), chosen)


@settings(max_examples=300, deadline=None)
@given(values=tie_heavy_blocks(), data=st.data())
def test_hard_mask_top_width_matches_stable_argsort_on_ties(values, data):
    m = values.shape[1]
    kept = data.draw(st.integers(1, m))
    got = hard_mask_top_width(bm_of(values), kept)
    assert got.bits.dtype == np.uint8 and got.bits.flags.c_contiguous
    np.testing.assert_array_equal(got.bits, argsort_top_width_reference(values, kept))


@st.composite
def spread_blocks(draw, widths=(4, 5, 6, 7, 8, 16)):
    """(g, m) blocks whose entries are small integers (ties), +-0.0, or
    +-e^x for a few x drawn from [-20, 20]."""
    m = draw(st.sampled_from(list(widths)))
    g = draw(st.integers(1, 40))
    spread = [math.exp(x) for x in draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))]
    palette = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, *spread, *(-x for x in spread)])
    return palette[draw(hnp.arrays(np.intp, (g, m), elements=st.integers(0, palette.size - 1)))]


@settings(max_examples=300, deadline=None)
@given(values=spread_blocks(), delta=deltas, ordering=orderings, data=st.data())
def test_hard_mask_matches_stable_argsort_oracle_across_widths(values, delta, ordering, data):
    g, m = values.shape
    n = data.draw(st.integers(1, m - 1))
    norms = np.abs(values).sum(axis=1)
    keys = -norms if ordering == "l1_descending" else norms
    chosen = np.argsort(keys, kind="stable")[: math.ceil(g * delta)]
    bottom = np.argsort(np.abs(values), axis=1, kind="stable")[:, : m - n]
    expected = np.ones((g, m), dtype=np.uint8)
    expected[chosen[:, None], bottom[chosen]] = 0
    got = hard_mask(bm_of(values), SparsePattern(n, m), delta, ordering)
    assert got.bits.dtype == np.uint8 and got.bits.flags.c_contiguous
    np.testing.assert_array_equal(got.bits, expected)


@pytest.mark.parametrize("m", range(2, 8))
def test_column_sums_equal_block_l1_norms_below_width_8(m):
    """hard_mask adds the magnitude columns for its block norms below m = 8;
    they must carry block_l1_norms' bits, or it could choose other blocks."""
    rng = np.random.default_rng(m)
    values = rng.normal(size=(65536, m)) * np.exp(rng.uniform(-20.0, 20.0, size=(65536, m)))
    np.testing.assert_array_equal(sum(np.abs(values.T, order="C")), block_l1_norms(bm_of(values)))


def test_hard_mask_at_width_8_chooses_by_block_l1_norms():
    """At m = 8 the column sums tie these two blocks, so the first would win;
    block_l1_norms puts the second ahead by one ulp, and it must be chosen."""
    e = 2.0**-53
    values = np.array([[1.0, 0, 0, 0, 0, 0, 0, 0], [1.0, 0, e, e, 0, 0, 0, 0]])
    bm = bm_of(values)
    norms = block_l1_norms(bm)
    assert norms[1] > norms[0] and sum(np.abs(values.T))[0] == sum(np.abs(values.T))[1]
    got = hard_mask(bm, SparsePattern(4, 8), 0.5)
    np.testing.assert_array_equal(select_sparsify_blocks(norms, 0.5), [1])
    np.testing.assert_array_equal(got.bits, [[1] * 8, [1, 0, 1, 1, 0, 0, 0, 1]])


# --------------------------------------------------------- golden digests

GOLDEN_MASK_DIGESTS = {
    # name: (dims, pattern, delta, mode, SHA-256 of hard.bits + soft)
    "256x256_2of4_d0": (
        (256, 256, 1, 1), SparsePattern(2, 4), 0.0, "block_percentage",
        "9738da0219c00f3289e9527676f2909045587b8059a1269acffab7745b025655",
    ),
    "256x256_2of4_d0.4": (
        (256, 256, 1, 1), SparsePattern(2, 4), 0.4, "block_percentage",
        "ff290b7cf3b41a2c24aeebeb0610b12c25daa8e37f45e6a10d5f4a64ba7c260f",
    ),
    "256x256_2of4_d1": (
        (256, 256, 1, 1), SparsePattern(2, 4), 1.0, "block_percentage",
        "b1c967fc375f432930c6a4fa1d120bf83e632eda4acbf6ba1ad8a67e6c573ac6",
    ),
    "256x256_2of4_width_d0.5": (
        (256, 256, 1, 1), SparsePattern(2, 4), 0.5, "block_width",
        "1092177852194973978e0fdbfcb969f56b06db7e1bb7496aa7ee9d22ad1d0085",
    ),
    "32x16x3x3_2of4_d0.7": (
        (32, 16, 3, 3), SparsePattern(2, 4), 0.7, "block_percentage",
        "116da9c2b6839fe845fc9609b6a0b7c4cd22c1187431933bab9d027403f2bb8b",
    ),
    "64x64_1of16_d0.5": (
        (64, 64, 1, 1), SparsePattern(1, 16), 0.5, "block_percentage",
        "84cc153c97c24573c4a3f0ed8706af20380fac664088e98d4b21c79c60994059",
    ),
    # new names sort after the ones above, so each keeps its seed
    "64x80_2of5_d0.6": (
        (64, 80, 1, 1), SparsePattern(2, 5), 0.6, "block_percentage",
        "e84364c3d709d99e1cbb281dfcea615fd6f7948a45bf1433c649c7b926a60a12",
    ),
    "64x96_2of8_d0.6": (
        (64, 96, 1, 1), SparsePattern(2, 8), 0.6, "block_percentage",
        "54c76a2c9bf299a17b90a445581f15f226dd9aa8a7c30ce16799dd7c3d0329d8",
    ),
    "8x14x3x3_3of7_d0.6": (
        (8, 14, 3, 3), SparsePattern(3, 7), 0.6, "block_percentage",
        "edc2250317c3302c957fdae9fe76fd79e6645e0083c3ba857eb6795f0469aa77",
    ),
}


@pytest.mark.parametrize("seed,name", list(enumerate(sorted(GOLDEN_MASK_DIGESTS))))
def test_build_masks_golden_digests(seed, name):
    """build_masks output bytes are pinned: a speed-up of the mask pass must
    keep every IEEE operation. No BLAS is involved, so this holds on any machine."""
    dims, pattern, delta, mode, digest = GOLDEN_MASK_DIGESTS[name]
    w = WeightTensor4(np.random.default_rng([18, seed]).normal(size=dims))
    hard, soft = build_masks(w, pattern, 0.1, delta, mode=mode)
    assert hashlib.sha256(hard.bits.tobytes() + soft.tobytes()).hexdigest() == digest
