import math

import numpy as np
import pytest

from nmsparse import nn, training
from nmsparse.datasets import two_spirals
from nmsparse.errors import DivergenceError
from nmsparse.masks import SparsePattern
from nmsparse.schedule import Schedule
from nmsparse.sparse_format import verify
from nmsparse.tensors import WeightTensor4, block_layout_inverse


def small_config(**overrides):
    defaults = dict(
        epochs=8,
        batch_size=32,
        learning_rate=0.2,
        momentum=0.9,
        weight_decay=1e-4,
        pattern=SparsePattern(2, 4),
        schedule=Schedule(0, 6),
        tau=0.1,
        seed=0,
    )
    defaults.update(overrides)
    return training.TrainConfig(**defaults)


def fresh_model(seed=0, sizes=(2, 16, 16, 2), pattern=SparsePattern(2, 4)):
    model = nn.mlp(list(sizes), np.random.default_rng(seed))
    model.mark_eligibility(pattern)
    return model


# ------------------------------------------------------------ masked forward

def test_masked_forward_delta_zero_uses_soft_weighted_dense_net():
    # with delta = 0, b is all ones and the forward still applies the soft mask
    rng = np.random.default_rng(1)
    cfg = small_config(pattern=SparsePattern(2, 4), schedule=Schedule(0, 6))
    model = fresh_model(seed=2)
    x = rng.normal(size=(5, 2))
    y = rng.integers(0, 2, size=5)
    masks = training.compute_step_masks(model, cfg, 0.0)
    loss, cache = training.masked_forward(model, masks, cfg, x, y)

    # scalar-path oracle: rebuild each eligible layer's effective weights by hand
    weights = []
    for layer in model.layers:
        if layer.name in masks:
            hard, soft = masks[layer.name]
            assert hard.bits.all()
            eff = np.empty_like(layer.weight)
            m = soft.shape[1]
            c_out, c_in = layer.weight.shape[:2]
            for o in range(c_out):
                for c in range(c_in):
                    g = o * (c_in // m) + c // m
                    eff[o, c, 0, 0] = layer.weight[o, c, 0, 0] * soft[g, c % m]
            weights.append(eff)
        else:
            weights.append(layer.weight)
    logits, _ = nn.forward(model, weights, x)
    np.testing.assert_allclose(cache.logits, logits, rtol=0, atol=1e-12)
    assert math.isfinite(loss)


def test_fold_equivalence_masked_vs_folded_logits():
    rng = np.random.default_rng(3)
    cfg = small_config()
    model = fresh_model(seed=4)
    for d in (0.0, 0.5, 1.0):
        masks = training.compute_step_masks(model, cfg, d)
        folded = training.export_folded(model, masks)
        folded_weights = [folded[l.name].values for l in model.layers]
        for _ in range(20):
            x = rng.normal(size=(8, 2))
            y = rng.integers(0, 2, size=8)
            _, cache = training.masked_forward(model, masks, cfg, x, y)
            logits_folded, _ = nn.forward(model, folded_weights, x)
            assert np.abs(cache.logits - logits_folded).max() <= 1e-12


# -------------------------------------------------------------- ste backward

def unit_soft_masks(model, pattern):
    """Masks whose soft values are all exactly 1 (hard all ones, scores zeroed)."""
    from nmsparse.masks import HardMask
    from nmsparse.tensors import rearrange_to_blocks

    masks = {}
    for layer in model.layers:
        if not layer.eligible:
            continue
        bm = rearrange_to_blocks(WeightTensor4(layer.weight), pattern.m)
        bits = np.ones(bm.values.shape, dtype=np.uint8)
        masks[layer.name] = (
            HardMask(bits),
            np.ones(bm.values.shape),
        )
    return masks


def test_ste_backward_equals_dense_gradient_under_unit_mask():
    rng = np.random.default_rng(5)
    cfg = small_config()
    model = fresh_model(seed=6, sizes=(3, 8, 8, 2))
    masks = unit_soft_masks(model, cfg.pattern)
    x = rng.normal(size=(16, 3))
    y = rng.integers(0, 2, size=16)
    _, cache = training.masked_forward(model, masks, cfg, x, y)
    gw, gb = training.ste_backward(model, cache)

    h = 1e-5
    raw_weights = [l.weight for l in model.layers]
    for li, w in enumerate(raw_weights):
        flat = w.reshape(-1)
        for idx in range(0, flat.size, 7):  # sample coordinates
            orig = flat[idx]
            flat[idx] = orig + h
            up = nn.loss_on_batch(model, raw_weights, x, y)
            flat[idx] = orig - h
            down = nn.loss_on_batch(model, raw_weights, x, y)
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(gw[li].reshape(-1)[idx]), 1e-6)
            assert abs(gw[li].reshape(-1)[idx] - fd) / denom <= 1e-6


def test_ste_delivers_effective_weight_gradient_at_pruned_coordinates():
    # frozen masks: perturb the effective weight at a pruned coordinate and
    # compare the finite difference with what STE assigns to the dense weight
    rng = np.random.default_rng(7)
    cfg = small_config()
    model = fresh_model(seed=8)
    masks = training.compute_step_masks(model, cfg, 1.0)
    x = rng.normal(size=(12, 2))
    y = rng.integers(0, 2, size=12)
    _, cache = training.masked_forward(model, masks, cfg, x, y)
    gw, _ = training.ste_backward(model, cache)

    layer_idx = 1
    layer = model.layers[layer_idx]
    hard, _ = masks[layer.name]
    zero_rows, zero_cols = np.nonzero(hard.bits == 0)
    assert zero_rows.size > 0
    g, j = zero_rows[0], zero_cols[0]
    m = hard.bits.shape[1]
    c_in = layer.weight.shape[1]
    o, c = divmod(g * m + j, c_in)  # 1x1 kernels: block row maps back directly

    eff = [w.copy() for w in cache.weights]
    h = 1e-5
    eff[layer_idx][o, c, 0, 0] += h
    up = nn.loss_on_batch(model, eff, x, y)
    eff[layer_idx][o, c, 0, 0] -= 2 * h
    down = nn.loss_on_batch(model, eff, x, y)
    fd = (up - down) / (2 * h)
    got = gw[layer_idx][o, c, 0, 0]
    assert abs(got - fd) / max(abs(fd), abs(got), 1e-6) <= 1e-4


# -------------------------------------------------------------- sr-ste step

def test_pruned_zero_grad_coordinate_decays_geometrically():
    # update reduces to m <- (1 - lr * sr_weight) * m, bitwise, for 100 steps
    cfg = training.TrainConfig(
        epochs=1,
        batch_size=1,
        learning_rate=0.5,
        momentum=0.0,
        weight_decay=0.25,
        sr_ste_weight=0.5,
        pattern=SparsePattern(2, 4),
        schedule=Schedule(0, 1),
        seed=0,
    )
    model = fresh_model(seed=9, sizes=(2, 8, 8, 2))
    layer = model.layers[1]
    masks = training.compute_step_masks(model, cfg, 1.0)
    hard, soft = masks[layer.name]
    pruned = block_layout_inverse((hard.bits == 0).astype(np.float64), layer.weight.shape) == 1.0

    velocity = training.Velocity.zeros_like(model)
    zero_grads = ([np.zeros_like(l.weight) for l in model.layers], [np.zeros_like(l.bias) for l in model.layers])
    expected = layer.weight[pruned].copy()
    factor = 1.0 - cfg.learning_rate * cfg.sr_weight
    for _ in range(100):
        frozen = {layer.name: (hard, soft)}
        training.sr_ste_step(model, zero_grads, frozen, cfg, cfg.learning_rate, velocity)
        expected = factor * expected
        np.testing.assert_array_equal(layer.weight[pruned], expected)
        assert (np.abs(layer.weight[pruned]) < np.abs(expected) / factor).all()  # strictly shrinking


def test_kept_coordinate_with_saturated_soft_value_gets_no_extra_decay():
    # clip(s, 0, 1) = 1 for kept entries, so only standard weight decay applies
    cfg = small_config(momentum=0.0, weight_decay=0.125, sr_ste_weight=0.5, learning_rate=0.5)
    model = fresh_model(seed=10)
    layer = model.layers[1]
    masks = training.compute_step_masks(model, cfg, 1.0)
    hard, soft = masks[layer.name]
    assert (soft[hard.bits == 1] > 1.0).all()  # saturates the clip
    kept = block_layout_inverse((hard.bits == 1).astype(np.float64), layer.weight.shape) == 1.0
    before = layer.weight[kept].copy()
    zero_grads = ([np.zeros_like(l.weight) for l in model.layers], [np.zeros_like(l.bias) for l in model.layers])
    training.sr_ste_step(model, zero_grads, masks, cfg, cfg.learning_rate, training.Velocity.zeros_like(model))
    np.testing.assert_array_equal(layer.weight[kept], (1.0 - 0.5 * 0.125) * before)


def test_update_trajectory_matches_scalar_oracle():
    # 2-parameter dense problem stepped 10 times against a hand-rolled loop
    cfg = training.TrainConfig(
        epochs=1, batch_size=1, learning_rate=0.1, momentum=0.9, weight_decay=0.01, seed=0
    )
    w0, w1 = 0.7, -1.3
    model = nn.Model([nn.Layer("linear", "fc0", np.array([[[[w0]]], [[[w1]]]], dtype=np.float64).reshape(2, 1, 1, 1), np.zeros(2))])
    model.mark_eligibility(None)
    velocity = training.Velocity.zeros_like(model)
    g0, g1 = 0.3, -0.2

    ew = [w0, w1]
    ev = [0.0, 0.0]
    for _ in range(10):
        grads = ([np.array([g0, g1]).reshape(2, 1, 1, 1)], [np.zeros(2)])
        training.sr_ste_step(model, grads, {}, cfg, cfg.learning_rate, velocity)
        for k, g in enumerate((g0, g1)):
            upd = g + cfg.weight_decay * ew[k]
            ev[k] = cfg.momentum * ev[k] + upd
            ew[k] = ew[k] - cfg.learning_rate * ev[k]
    np.testing.assert_array_equal(model.layers[0].weight.reshape(-1), ew)


# ----------------------------------------------------------------------- fit

def test_fit_reaches_full_compliance_after_ramp():
    data = two_spirals(samples=200, noise=0.01, seed=0)
    cfg = small_config(epochs=6, schedule=Schedule(0, 4), learning_rate=0.1)
    model = fresh_model(seed=11)
    result = training.fit(model, data, cfg)
    assert result.metrics[-1]["delta"] == 1.0
    masks = training.final_masks(model, cfg)
    folded = training.export_folded(model, masks)
    for layer in model.layers:
        if layer.eligible:
            report = verify(folded[layer.name], cfg.pattern)
            assert report.violating_blocks == 0
    # dense layers exported verbatim
    np.testing.assert_array_equal(folded["fc0"].values, model.layers[0].weight)


def test_fit_metrics_structure_and_sparsity_column():
    data = two_spirals(samples=120, noise=0.01, seed=1)
    cfg = small_config(epochs=5, schedule=Schedule(1, 3))
    model = fresh_model(seed=12)
    result = training.fit(model, data, cfg)
    assert len(result.metrics) == 5
    for row in result.metrics:
        assert set(row) == {"epoch", "delta", "lr", "loss", "accuracy", "sparsity_fc0", "sparsity_fc1", "sparsity_fc2"}
    assert result.metrics[0]["delta"] == 0.0
    assert result.metrics[-1]["delta"] == 1.0
    assert result.metrics[0]["sparsity_fc1"] == 0.0
    assert result.metrics[-1]["sparsity_fc1"] == pytest.approx(0.5)  # 2:4 fully applied
    assert result.metrics[-1]["sparsity_fc0"] == 0.0  # dense layer


def test_fit_is_deterministic_for_fixed_seed():
    data = two_spirals(samples=100, noise=0.01, seed=2)
    outs = []
    for _ in range(2):
        cfg = small_config(epochs=3, schedule=Schedule(0, 2), seed=7)
        model = fresh_model(seed=7)
        result = training.fit(model, data, cfg)
        outs.append((training.metrics_to_csv(result.metrics), model.layers[1].weight.copy()))
    assert outs[0][0] == outs[1][0]
    np.testing.assert_array_equal(outs[0][1], outs[1][1])


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_fit_raises_divergence_error_with_location():
    data = two_spirals(samples=64, noise=0.01, seed=3)
    cfg = small_config(epochs=2, schedule=Schedule(0, 1), learning_rate=1e200, lr_schedule="constant")
    model = fresh_model(seed=13)
    with pytest.raises(DivergenceError) as exc:
        training.fit(model, data, cfg)
    assert exc.value.epoch >= 0
    assert exc.value.iteration >= 0


def test_fit_block_width_mode_reaches_compliance():
    data = two_spirals(samples=160, noise=0.01, seed=6)
    cfg = small_config(
        epochs=6,
        pattern=SparsePattern(1, 4),
        schedule=Schedule(0, 4, mode="block_width"),
        learning_rate=0.1,
    )
    model = fresh_model(seed=15, pattern=SparsePattern(1, 4))
    result = training.fit(model, data, cfg)
    # mid-ramp rows keep an intermediate width; final rows keep exactly n
    mid = result.metrics[1]["sparsity_fc1"]
    assert 0.0 < mid < 0.75
    assert result.metrics[-1]["sparsity_fc1"] == pytest.approx(0.75)
    folded = training.export_folded(model, training.final_masks(model, cfg))
    assert verify(folded["fc1"], cfg.pattern).violating_blocks == 0


def test_dense_run_has_no_masks_and_trains():
    data = two_spirals(samples=200, noise=0.01, seed=4)
    cfg = small_config(pattern=None, schedule=None, epochs=6, learning_rate=0.1)
    model = fresh_model(seed=14, pattern=None)
    result = training.fit(model, data, cfg)
    assert result.metrics[-1]["accuracy"] >= result.metrics[0]["accuracy"] - 0.05
    assert all(row["delta"] == 0.0 for row in result.metrics)


def test_metrics_csv_round_trip():
    rows = [
        {"epoch": 0, "delta": 0.0, "lr": 0.2, "loss": 0.6931, "accuracy": 0.5, "sparsity_fc1": 0.0},
        {"epoch": 1, "delta": 0.875, "lr": 0.19, "loss": 0.5, "accuracy": 0.75, "sparsity_fc1": 0.4375},
    ]
    text = training.metrics_to_csv(rows)
    back = training.parse_metrics_csv(text)
    assert back == rows
    assert training.metrics_to_csv(back) == text


# One row per block; 1000 bytes, which is 3 rows of the 32-wide fc1 and of the
# first conv, dividing neither 32 nor 8 output rows; and the default.
BLOCK_SIZES = [1, 1000, training.UPDATE_BLOCK_BYTES]


def test_sr_ste_step_matches_clipped_soft_interpolation_bit_for_bit(monkeypatch):
    # the update gates decay by clip(soft, 0, 1); kept soft values lie in [1, 3]
    # and pruned ones are 0, so the gate is the hard mask itself; the oracle is
    # unblocked, so every block size must reproduce it bit for bit
    for block_bytes in BLOCK_SIZES:
        monkeypatch.setattr(training, "UPDATE_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(21)
        for model, mode, delta in (
            (fresh_model(seed=22, sizes=(2, 32, 32, 2)), "block_percentage", 0.6),
            (fresh_model(seed=23, sizes=(2, 32, 32, 2)), "block_width", 0.5),
            (nn.cnn((4, 6, 6), 3, rng, channels=(8, 8)), "block_percentage", 1.0),
        ):
            cfg = small_config(schedule=Schedule(0, 6, mode=mode), sr_ste_weight=3e-3, weight_decay=2e-4)
            model.mark_eligibility(cfg.pattern)
            masks = training.compute_step_masks(model, cfg, delta)
            assert masks
            grads_w = [rng.normal(size=l.weight.shape) for l in model.layers]
            grads_b = [rng.normal(size=l.bias.shape) for l in model.layers]
            velocity = training.Velocity(
                [rng.normal(size=l.weight.shape) for l in model.layers],
                [rng.normal(size=l.bias.shape) for l in model.layers],
            )
            expected_w, expected_v = [], []
            for i, layer in enumerate(model.layers):
                coeff = cfg.weight_decay
                if layer.name in masks:
                    hard, soft = masks[layer.name]
                    np.testing.assert_array_equal(np.clip(soft, 0.0, 1.0), hard.bits)
                    gate = block_layout_inverse(np.clip(soft, 0.0, 1.0), layer.weight.shape)
                    coeff = cfg.weight_decay * gate + cfg.sr_weight * (1.0 - gate)
                v = cfg.momentum * velocity.w[i] + (grads_w[i] + coeff * layer.weight)
                expected_v.append(v)
                expected_w.append(layer.weight - 0.05 * v)
            training.sr_ste_step(model, (grads_w, grads_b), masks, cfg, 0.05, velocity)
            for i, layer in enumerate(model.layers):
                assert np.array_equal(velocity.w[i], expected_v[i]), (block_bytes, layer.name)
                assert np.array_equal(layer.weight, expected_w[i]), (block_bytes, layer.name)


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES[:2])
def test_fit_final_weights_do_not_depend_on_the_update_block_size(block_bytes, monkeypatch):
    data = two_spirals(samples=96, noise=0.01, seed=8)
    cfg = small_config(epochs=3, schedule=Schedule(0, 2))
    runs = []
    for size in (training.UPDATE_BLOCK_BYTES, block_bytes):
        monkeypatch.setattr(training, "UPDATE_BLOCK_BYTES", size)
        model = fresh_model(seed=9, sizes=(2, 32, 32, 2))
        result = training.fit(model, data, cfg)
        runs.append([l.weight.tobytes() + l.bias.tobytes() for l in model.layers] + [v.tobytes() for v in result.velocity.w])
    assert runs[0] == runs[1]


def test_sr_ste_step_leaves_gradients_unchanged():
    rng = np.random.default_rng(24)
    cfg = small_config()
    model = fresh_model(seed=25, sizes=(2, 32, 32, 2))
    masks = training.compute_step_masks(model, cfg, 0.6)
    grads_w = [rng.normal(size=l.weight.shape) for l in model.layers]
    grads_b = [rng.normal(size=l.bias.shape) for l in model.layers]
    saved = [g.copy() for g in grads_w + grads_b]
    training.sr_ste_step(model, (grads_w, grads_b), masks, cfg, 0.05, training.Velocity.zeros_like(model))
    for g, s in zip(grads_w + grads_b, saved):
        np.testing.assert_array_equal(g, s)
