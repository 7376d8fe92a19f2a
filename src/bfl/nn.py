"""Small dense networks with hand-written forward and backward passes.

Everything runs in float64 on plain numpy arrays.  A model is a list of dense
layers; layer ``l`` stores its weight as an (out, in) matrix and its bias as a
length-out vector, and applies ``act(x @ W.T + b)``.  The flattened parameter
vector enumerates layer 0's weight in row-major order, then layer 0's bias,
then layer 1, and so on; `flatten_params` / `unflatten_params` round-trip
bit-exactly.

Gradients are of the mean cross-entropy over the batch, so duplicating every
row of a batch leaves them unchanged.  All functions are pure: they never
mutate their model argument.  Momentum buffers are the one piece of mutable
state and are owned by the caller (one buffer list per client).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass
class DenseLayer:
    """One fully connected layer: act(x @ weight.T + bias)."""

    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = "identity"

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weight must be 2-D and bias 1-D")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError("weight rows must match bias length")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class MlpModel:
    """A stack of dense layers whose dimensions chain."""

    layers: List[DenseLayer] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


def init_mlp(
    dims: Sequence[int],
    hidden_activation: str,
    rng: np.random.Generator,
    out_activation: str = "identity",
) -> MlpModel:
    """Build a model from a dimension list like [in, h1, h2, out].

    Hidden layers use He-style scaling (sqrt(2/fan_in)), the output layer
    Xavier-style (sqrt(1/fan_in)); biases start at zero.
    """
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    if any(d < 1 for d in dims):
        raise ValueError("layer widths must be positive")
    layers = []
    last = len(dims) - 2
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        scale = np.sqrt(1.0 / fan_in) if i == last else np.sqrt(2.0 / fan_in)
        weight = rng.standard_normal((fan_out, fan_in)) * scale
        act = out_activation if i == last else hidden_activation
        layers.append(DenseLayer(weight, np.zeros(fan_out), act))
    return MlpModel(layers)


def _apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _activation_grad(kind: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


def forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Run the batch through the model and return the final activations."""
    out, _ = forward_cached(model, batch)
    return out


def forward_cached(
    model: MlpModel, batch: np.ndarray
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Forward pass that keeps (input, pre-activation, activation) per layer.

    The cache list feeds `backprop_through`; callers that only need outputs
    should use `forward`.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError("batch must be (n, dim)")
    if batch.shape[1] != model.input_dim:
        raise ValueError(
            f"batch dim {batch.shape[1]} does not match model input {model.input_dim}"
        )
    caches = []
    a = batch
    for layer in model.layers:
        z = a @ layer.weight.T + layer.bias
        a_next = _apply_activation(layer.activation, z)
        caches.append((a, z, a_next))
        a = a_next
    return a, caches


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits.

    Uses max-shifted log-softmax so large logits cannot overflow.  The
    returned gradient is (softmax - onehot) / batch_size, i.e. already scaled
    for the mean loss.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must be (n,)")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -float(log_probs[np.arange(n), labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


GradList = List[Tuple[np.ndarray, np.ndarray]]


def backprop_through(
    model: MlpModel,
    caches: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    dout: np.ndarray,
) -> Tuple[GradList, np.ndarray]:
    """Push an upstream gradient back through cached layers.

    Returns per-layer (dweight, dbias) plus the gradient w.r.t. the model's
    input batch, which lets a second network (the sample generator) sit in
    front of this one.
    """
    grads: GradList = [None] * len(model.layers)  # type: ignore[list-item]
    da = dout
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        a_in, z, a_out = caches[i]
        dz = da * _activation_grad(layer.activation, z, a_out)
        grads[i] = (dz.T @ a_in, dz.sum(axis=0))
        da = dz @ layer.weight
    return grads, da


def backward(
    model: MlpModel, batch: np.ndarray, labels: np.ndarray
) -> Tuple[float, GradList]:
    """Mean cross-entropy loss and parameter gradients for one batch."""
    out, caches = forward_cached(model, batch)
    loss, dout = softmax_cross_entropy(out, labels)
    grads, _ = backprop_through(model, caches, dout)
    return loss, grads


@dataclass
class SgdConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")


def init_momentum(model: MlpModel) -> GradList:
    """Zeroed velocity buffers matching the model's parameter shapes."""
    return [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in model.layers]


def sgd_step(
    model: MlpModel, grads: GradList, cfg: SgdConfig, state: GradList
) -> MlpModel:
    """One momentum SGD step; returns the updated model.

    Weight decay is added to the raw gradient (g <- g + wd * w) before the
    velocity update v <- mu * v + g, w <- w - lr * v.  Decay applies to
    weight matrices only, never biases.  `state` holds the velocity buffers
    and is updated in place; the model itself is not mutated.
    """
    if len(grads) != len(model.layers) or len(state) != len(model.layers):
        raise ValueError("grads/state length must match layer count")
    new_layers = []
    for layer, (gw, gb), (vw, vb) in zip(model.layers, grads, state):
        gw = gw + cfg.weight_decay * layer.weight
        vw *= cfg.momentum
        vw += gw
        vb *= cfg.momentum
        vb += gb
        new_layers.append(
            DenseLayer(
                layer.weight - cfg.learning_rate * vw,
                layer.bias - cfg.learning_rate * vb,
                layer.activation,
            )
        )
    return MlpModel(new_layers)


def num_params(model: MlpModel) -> int:
    return sum(l.weight.size + l.bias.size for l in model.layers)


def flatten_params(model: MlpModel) -> np.ndarray:
    """Concatenate all parameters into one float64 vector."""
    parts = []
    for layer in model.layers:
        parts.append(layer.weight.ravel())
        parts.append(layer.bias)
    return np.concatenate(parts).astype(np.float64, copy=False)


def unflatten_params(template: MlpModel, vector: np.ndarray) -> MlpModel:
    """Rebuild a model with the template's shapes from a flat vector."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (num_params(template),):
        raise ValueError(
            f"vector length {vector.shape} does not match template ({num_params(template)},)"
        )
    layers = []
    pos = 0
    for layer in template.layers:
        w = vector[pos : pos + layer.weight.size].reshape(layer.weight.shape).copy()
        pos += layer.weight.size
        b = vector[pos : pos + layer.bias.size].copy()
        pos += layer.bias.size
        layers.append(DenseLayer(w, b, layer.activation))
    return MlpModel(layers)
