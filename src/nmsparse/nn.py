"""Minimal feed-forward network with hand-written forward/backward passes.

Layers are 2D convolutions and linear maps with ReLU between them and a
softmax cross-entropy head. All weights live as 4D tensors (linear layers
use 1x1 kernels) so the same masking machinery applies to both kinds.
``forward`` takes the weight arrays explicitly, which lets the trainer swap
in masked weights and lets finite-difference checks perturb the effective
weights directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .im2col import col2im, conv_output_size, im2col
from .masks import SparsePattern


@dataclass(eq=False)
class Layer:
    kind: str  # "conv" | "linear"
    name: str
    weight: np.ndarray  # (c_out, c_in, k_h, k_w) float64
    bias: np.ndarray  # (c_out,) float64
    stride: int = 1
    padding: int = 0
    eligible: bool = False

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]


@dataclass(eq=False)
class Model:
    layers: list[Layer] = field(default_factory=list)

    def parameter_count(self) -> int:
        return sum(l.weight.size + l.bias.size for l in self.layers)

    def mark_eligibility(self, pattern: SparsePattern | None) -> None:
        """Sparsify only interior layers whose input channels the pattern divides."""
        last = len(self.layers) - 1
        for idx, layer in enumerate(self.layers):
            layer.eligible = (
                pattern is not None
                and 0 < idx < last
                and layer.c_in % pattern.m == 0
            )


def check_layer(name: str, kind, dims: tuple, bias_dims: tuple | None, stride, padding) -> None:
    """The one rule for a layer that ``forward`` can run, applied by every artifact reader.

    ``bias_dims`` is None where the reader does not load the bias.
    """
    if kind not in ("conv", "linear"):
        raise ValueError(f"layer {name!r}: unknown kind {kind!r}")
    if len(dims) != 4:
        raise ValueError(f"layer {name!r}: expected a 4D weight, got {len(dims)}D")
    if bias_dims not in (None, tuple(dims[:1])):
        raise ValueError(f"layer {name!r}: weight {tuple(dims)} and bias {bias_dims} do not match")
    if type(stride) is not int or type(padding) is not int or stride < 1 or padding < 0:
        raise ValueError(f"layer {name!r}: need stride >= 1 and padding >= 0, got {stride!r} and {padding!r}")


def _init_weight(rng: np.random.Generator, dims: tuple[int, int, int, int]) -> np.ndarray:
    fan_in = dims[1] * dims[2] * dims[3]
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=dims)


def mlp(sizes: list[int], rng: np.random.Generator) -> Model:
    """Fully connected ReLU network, e.g. sizes=[2, 32, 32, 2]."""
    if len(sizes) < 2:
        raise ValueError("an MLP needs at least input and output sizes")
    if min(sizes) < 1:
        raise ValueError(f"MLP layer sizes (input, hidden..., classes) must be at least 1, got {list(sizes)}")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        dims = (fan_out, fan_in, 1, 1)
        layers.append(
            Layer("linear", f"fc{i}", _init_weight(rng, dims), np.zeros(fan_out))
        )
    return Model(layers)


def cnn(
    input_shape: tuple[int, int, int],
    num_classes: int,
    rng: np.random.Generator,
    channels: tuple[int, int] = (16, 32),
) -> Model:
    """Two 3x3 conv layers (second strided) and a linear head."""
    c, h, w = input_shape
    ch0, ch1 = channels
    layers = [
        Layer("conv", "conv0", _init_weight(rng, (ch0, c, 3, 3)), np.zeros(ch0), stride=1, padding=1),
        Layer("conv", "conv1", _init_weight(rng, (ch1, ch0, 3, 3)), np.zeros(ch1), stride=2, padding=1),
    ]
    for l in layers:
        h, w = conv_output_size(h, w, *l.weight.shape[2:], l.stride, l.padding)
    layers.append(Layer("linear", "fc2", _init_weight(rng, (num_classes, ch1 * h * w, 1, 1)), np.zeros(num_classes)))
    return Model(layers)


def forward(model: Model, weights: list[np.ndarray], x: np.ndarray) -> tuple[np.ndarray, list[dict]]:
    """Run the network with the given per-layer weights; returns (logits, cache)."""
    if len(weights) != len(model.layers):
        raise DimensionError(f"{len(weights)} weight arrays for {len(model.layers)} layers")
    caches: list[dict] = []
    h = x
    last = len(model.layers) - 1
    for i, (layer, w) in enumerate(zip(model.layers, weights)):
        cache: dict = {}
        if layer.kind == "linear":
            if h.ndim > 2:
                cache["unflatten"] = h.shape
                h = h.reshape(h.shape[0], -1)
            w2 = w.reshape(layer.c_out, -1)
            if h.shape[1] != w2.shape[1]:
                raise DimensionError(
                    f"layer {layer.name} expects {w2.shape[1]} features, got {h.shape[1]}"
                )
            pre = h @ w2.T + layer.bias
            cache["x"] = h
        elif layer.kind == "conv":
            if h.ndim != 4 or h.shape[1] != layer.c_in:
                raise DimensionError(f"layer {layer.name} expects (B, {layer.c_in}, H, W) input")
            k_h, k_w = w.shape[2], w.shape[3]
            cols, (oh, ow) = im2col(h, k_h, k_w, layer.stride, layer.padding)
            w_mat = w.reshape(layer.c_out, -1)
            pre = (w_mat @ cols).reshape(h.shape[0], layer.c_out, oh, ow)
            pre += layer.bias[None, :, None, None]
            cache["cols"] = cols
            cache["in_shape"] = h.shape
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
        if i < last:
            cache["relu"] = pre > 0
            h = np.maximum(pre, 0.0)
        else:
            h = pre
        caches.append(cache)
    return h, caches


def backward(
    model: Model,
    weights: list[np.ndarray],
    caches: list[dict],
    dlogits: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the loss w.r.t. the weights used in ``forward`` and the biases.

    The gradient w.r.t. the network input is never needed, so the pass stops
    after layer 0's weight and bias gradients.
    """
    grads_w: list[np.ndarray] = [np.empty(0)] * len(model.layers)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(model.layers)
    dh = dlogits
    for i in reversed(range(len(model.layers))):
        layer, w, cache = model.layers[i], weights[i], caches[i]
        if "relu" in cache:
            dh = dh * cache["relu"]
        if layer.kind == "linear":
            x = cache["x"]
            w2 = w.reshape(layer.c_out, -1)
            grads_w[i] = (dh.T @ x).reshape(w.shape)
            grads_b[i] = dh.sum(axis=0)
            if i == 0:
                break
            dh = dh @ w2
            if "unflatten" in cache:
                dh = dh.reshape(cache["unflatten"])
        else:
            b, c_out = dh.shape[0], layer.c_out
            k_h, k_w = w.shape[2], w.shape[3]
            dmat = dh.reshape(b, c_out, -1)
            cols = cache["cols"]
            grads_w[i] = np.tensordot(dmat, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
            grads_b[i] = dmat.sum(axis=(0, 2))
            if i == 0:
                break
            w_mat = w.reshape(c_out, -1)
            dcols = w_mat.T @ dmat
            dh = col2im(dcols, cache["in_shape"], k_h, k_w, layer.stride, layer.padding)
    return grads_w, grads_b


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    b = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(b), labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits


def predict(logits: np.ndarray) -> np.ndarray:
    return logits.argmax(axis=1)


def loss_on_batch(model: Model, weights: list[np.ndarray], x: np.ndarray, y: np.ndarray) -> float:
    """Loss as a pure function of the weight arrays (finite-difference hook)."""
    logits, _ = forward(model, weights, x)
    return softmax_cross_entropy(logits, y)[0]
