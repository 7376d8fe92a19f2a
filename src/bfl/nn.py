"""Small dense networks with hand-written forward and backward passes.

Everything runs in float64 on plain numpy arrays.  A model is one contiguous
parameter vector plus a fixed layout over it: layer ``l`` reads its weight as
an (out, in) matrix and its bias as a length-out vector, and applies
``act(x @ W.T + b)``.  The vector enumerates layer 0's weight in row-major
order, then layer 0's bias, then layer 1, and so on.  Parameter gradients and
momentum buffers are vectors with the same layout, so an update, a delta or
an aggregate is just a vector, and any such vector becomes a model again with
`MlpModel.with_params`.

Gradients are of the mean cross-entropy over the batch, so duplicating every
row of a batch leaves them unchanged.

Stacked models.  A parameter array of shape (m, P) holds m models of one
layout, one per row, and every function below then runs all m at once: a
batch is (m, rows, dim), one batch per model, and traces, gradients and
momentum buffers carry the same leading axis.  Weight views are then
(m, out, in) and bias views (m, 1, out), so each bias broadcasts over its own
model's rows.  `softmax_cross_entropy` takes each model's count of real rows,
so batches of different lengths can share a stack: the padding rows after
the count get a zero gradient and stay out of that model's mean.  A padded
model gets bit for bit the gradient it would get alone only where BLAS
rounds a product's rows alike at either row count.  That holds at the
tests' toy shapes on OpenBLAS's SkylakeX kernel, but a one-row batch, which
numpy multiplies with gemv, not gemm, keeps its bits only among one-row
batches.  It fails on the Haswell kernel (3 rows padded to 4) and at
[784, 128, 128, 10] on SkylakeX (64 rows padded to 128 round the output
layer's product otherwise; 96 padded to 107 do not).

The cross-entropy shift folds `np.maximum` over the class columns, for one
model and a stack alike.  A stack takes faster numpy calls than one model
where those keep the bits: its bias gradients are summed with einsum,
except at layers of width 1, where einsum sums in another order than
`add.reduce`.  Weight decay, for one model or a stack, is one multiply and
one add over the whole vector, with -0.0 in place of each bias's decay
term, so a bias, even an infinite one, never decays.

Aliasing.  Nothing here copies a parameter vector:

* `MlpModel(...)` and `with_params` wrap the given vector or stack;
  `layers[l].weight` and `.bias` are views into it.
* A `Trace` serves one model for life: it owns the buffers of one batch
  shape and holds views of that model's layers, taken when it is built.
  Loops that reuse their traces (the generator fit, local training) build
  one per model and batch shape, and allocate its buffers once.
* `forward_cached` writes every activation into a new `Trace` and returns
  the last one, a view into that trace; the trace's own `forward` reuses
  those buffers for the next batch of the same size.
* `Trace.cross_entropy` writes the logit gradient into the trace's
  buffers and returns it, a view that the next call overwrites.
* `backprop_through` writes the parameter gradient into `trace.grads` and the
  input gradient into the trace's buffers, and returns views of both.
* `sgd_step` updates the model's parameter vector and the momentum state in
  place, and adds weight decay into the gradient vector it is given.

`forward`, `backward` and `softmax_cross_entropy` allocate fresh outputs and
mutate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass
class DenseLayer:
    """One fully connected layer, act(x @ weight.T + bias), as views."""

    weight: np.ndarray  # (out_dim, in_dim), or (m, out_dim, in_dim) stacked
    bias: np.ndarray  # (out_dim,), or (m, 1, out_dim) stacked
    activation: str


def _spans(dims: Sequence[int]) -> List[Tuple[slice, slice]]:
    """Per layer, the slices of its weight and its bias in the flat vector."""
    spans, pos = [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        end = pos + fan_out * fan_in
        spans.append((slice(pos, end), slice(end, end + fan_out)))
        pos = end + fan_out
    return spans


def _views(model: "MlpModel", vector: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per layer, (weight, bias) views into a vector, or a stack of vectors,
    in the model's layout."""
    dims, lead = model.dims, vector.shape[:-1]
    row = lead + (1,) if lead else lead
    return [
        (vector[..., w].reshape(lead + (fan_out, fan_in)), vector[..., b].reshape(row + (fan_out,)))
        for (w, b), fan_in, fan_out in zip(model.spans, dims, dims[1:])
    ]


class MlpModel:
    """A stack of dense layers over one flat float64 parameter vector.

    `dims` lists the widths [in, h1, ..., out] and `activations` one
    activation per layer.  The model wraps `params`, a (P,) vector or an
    (m, P) stack of m models, without copying it; `spans[l]` holds the
    (weight, bias) slices of layer l along its last axis.
    """

    def __init__(
        self, dims: Sequence[int], activations: Sequence[str], params: np.ndarray
    ) -> None:
        dims, activations = tuple(dims), tuple(activations)
        if len(dims) < 2 or len(activations) != len(dims) - 1:
            raise ValueError("need one activation per pair of adjacent dims")
        if any(d < 1 for d in dims):
            raise ValueError("layer widths must be positive")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.dims, self.activations, self.spans = dims, activations, _spans(dims)
        self._wrap(params)

    def _wrap(self, params: np.ndarray) -> "MlpModel":
        params = np.asarray(params, dtype=np.float64)
        size = self.spans[-1][1].stop
        if params.ndim not in (1, 2) or params.shape[-1] != size:
            raise ValueError(
                f"params shape {params.shape} does not match layout ({size},) or (m, {size})"
            )
        self.params = params
        self.layers = tuple(
            DenseLayer(w, b, act) for (w, b), act in zip(_views(self, params), self.activations)
        )
        return self

    def with_params(self, params: np.ndarray) -> "MlpModel":
        """The same layout over another vector or stack, without copying it.

        Shares this model's checked dims, activations and spans; only the
        shape of `params` is checked."""
        model = object.__new__(MlpModel)
        model.dims, model.activations, model.spans = self.dims, self.activations, self.spans
        return model._wrap(params)

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]


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
    last = len(dims) - 2
    acts = [out_activation if i == last else hidden_activation for i in range(last + 1)]
    size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims, dims[1:]))
    model = MlpModel(dims, acts, np.zeros(size))  # which checks the dims
    for i, layer in enumerate(model.layers):
        fan_in = dims[i]
        scale = np.sqrt(1.0 / fan_in) if i == last else np.sqrt(2.0 / fan_in)
        rng.standard_normal(out=layer.weight)
        layer.weight *= scale
    return model


class Trace:
    """Buffers of one pass of a batch through one model, and that model's
    layer views.

    `shape` is the batch's shape without its feature axis: (rows,), or
    (m, rows) for m stacked models.  `z[l]` and `a[l]` hold layer l's
    pre-activation and activation (the same array for identity layers);
    `batch` is the input of the last forward pass.  The backward buffers are
    allocated on the first backward pass: `grads`, the flat parameter
    gradient; `dz[l]`, the gradient at layer l's pre-activation; `da[l]`,
    the gradient at layer l's input.  The cross-entropy buffers are
    allocated on the first `cross_entropy`.

    `forward`, `cross_entropy` and `backward` are the unchecked passes that
    `forward_cached`, `softmax_cross_entropy` and `backprop_through` run
    after their checks.  They read the views prepared when the trace was
    built and write only into the trace's buffers, so a loop that calls
    them over one trace allocates nothing but what it returns to Python.
    The trace serves `model` for life: another model, even one over the
    same parameters, needs its own trace.
    """

    def __init__(self, model: MlpModel, shape: Tuple[int, ...]) -> None:
        self.shape = tuple(shape)
        self.batch: Optional[np.ndarray] = None
        self.z = [np.empty((*self.shape, out)) for out in model.dims[1:]]
        self.a = [z if act == "identity" else np.empty_like(z)
                  for z, act in zip(self.z, model.activations)]
        self.grads: Optional[np.ndarray] = None
        self.dz: List[Optional[np.ndarray]] = []
        self.da: List[np.ndarray] = []
        self.ce: Optional[tuple] = None
        self.model = model
        # Per layer: (activation, weight, weight.mT, bias, z, a, input),
        # where layer 0's input is None for `batch`.
        inputs = [None, *self.a[:-1]]
        self.steps = [
            (layer.activation, layer.weight, layer.weight.mT, layer.bias, z, a, x)
            for layer, z, a, x in zip(model.layers, self.z, self.a, inputs)
        ]

    def _allocate_backward(self) -> None:
        model = self.model
        self.grads = np.empty_like(model.params)
        self.dz = [None if act == "identity" else np.empty_like(z)
                   for z, act in zip(self.z, model.activations)]
        self.da = [np.empty((*self.shape, d)) for d in model.dims[:-1]]
        # Per layer, last layer first: (dz, weight grad, bias grad, its
        # stacked (m, out) view where einsum sums it, else None, da).
        self.back = [(dz, gw, gb, gb[:, 0] if gb.ndim == 3 and gb.shape[-1] > 1 else None, da)
                     for dz, (gw, gb), da in zip(self.dz, _views(model, self.grads), self.da)][::-1]

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """The forward pass of `batch`, of the trace's shape; returns the
        last activation buffer."""
        self.batch = batch
        for act, _, weight_t, bias, z, out, x in self.steps:
            np.matmul(batch if x is None else x, weight_t, out=z)
            np.add(z, bias, out=z)
            if act == "relu":
                np.maximum(z, 0.0, out=out)
            elif act == "tanh":
                np.tanh(z, out=out)
        return out

    def cross_entropy(
        self, labels: np.ndarray, counts: Optional[np.ndarray] = None
    ) -> Tuple[float | np.ndarray, np.ndarray]:
        """`softmax_cross_entropy` of the last forward pass's output, with
        the gradient in the trace's buffer; `labels` must be in range."""
        if self.ce is None:
            self.ce = _ce_buffers(self.a[-1].shape)
        return _cross_entropy(self.a[-1], labels, counts, self.ce)

    def backward(
        self, dout: np.ndarray, param_grads: bool = True, input_grad: bool = True
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """The backward pass of the last forward pass, as `backprop_through`."""
        if self.grads is None:
            self._allocate_backward()
        grads, da = (self.grads if param_grads else None), dout
        for (act, weight, _, _, z, a, x), (dz, gw, gb, gb2, out) in zip(
            reversed(self.steps), self.back
        ):
            if act == "relu":
                np.greater(z, 0.0, out=dz)
                np.multiply(da, dz, out=dz)
            elif act == "tanh":
                np.multiply(a, a, out=dz)
                np.subtract(1.0, dz, out=dz)
                np.multiply(da, dz, out=dz)
            else:
                dz = da
            if param_grads:
                np.matmul(dz.mT, self.batch if x is None else x, out=gw)
                if gb2 is None:
                    np.add.reduce(dz, axis=-2, out=gb, keepdims=gb.ndim == 3)
                else:
                    np.einsum("mrk->mk", dz, out=gb2)
            if x is None and not input_grad:
                return grads, None
            da = np.matmul(dz, weight, out=out)
        return grads, da


def forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Run the batch through the model and return the final activations."""
    out, _ = forward_cached(model, batch)
    return out


def forward_cached(model: MlpModel, batch: np.ndarray) -> Tuple[np.ndarray, Trace]:
    """Forward pass that keeps every layer's pre-activation and activation.

    Returns (output, trace) for a new trace, where the output is the trace's
    last activation buffer.  The trace feeds `backprop_through`; callers
    that only need outputs should use `forward`.
    """
    batch = np.asarray(batch, dtype=np.float64)
    lead = model.params.shape[:-1]
    if batch.ndim != len(lead) + 2 or batch.shape[: len(lead)] != lead:
        raise ValueError("batch must be (n, dim), or (m, n, dim) for m stacked models")
    if batch.shape[-1] != model.input_dim:
        raise ValueError(
            f"batch dim {batch.shape[-1]} does not match model input {model.input_dim}"
        )
    trace = Trace(model, batch.shape[:-1])
    return trace.forward(batch), trace


def _ce_buffers(shape: Tuple[int, ...]) -> tuple:
    """Cross-entropy buffers for logits of `shape`: shifted logits, a
    per-row column, the gradient and its flat view, each row's offset in
    the flat logits, the flat pick index and the picked log-probabilities."""
    lead, classes = shape[:-1], shape[-1]
    dlogits = np.empty(shape)
    offsets = np.arange(0, dlogits.size, classes).reshape(lead)
    return (np.empty(shape), np.empty((*lead, 1)), dlogits, dlogits.reshape(-1),
            offsets, np.empty(lead, dtype=np.intp), np.empty(lead))


def _cross_entropy(
    logits: np.ndarray, labels: np.ndarray, counts: Optional[np.ndarray], buffers: tuple
) -> Tuple[float | np.ndarray, np.ndarray]:
    """The arithmetic of `softmax_cross_entropy`, in the given buffers."""
    shifted, column, dlogits, flat, offsets, picks, picked = buffers
    n = labels.shape[-1]
    np.maximum(logits[..., :1], logits[..., -1:], out=column)  # the shift, folded
    for c in range(1, logits.shape[-1] - 1):
        np.maximum(column, logits[..., c:c + 1], out=column)
    np.subtract(logits, column, out=shifted)
    np.exp(shifted, out=dlogits)
    np.add.reduce(dlogits, axis=-1, keepdims=True, out=column)
    np.log(column, out=column)
    np.subtract(shifted, column, out=shifted)  # now the log-probabilities
    np.add(offsets, labels, out=picks)
    np.take(shifted, picks, out=picked, mode="clip")
    np.exp(shifted, out=dlogits)
    flat[picks] -= 1.0
    if counts is None:
        loss = -(np.add.reduce(picked, axis=-1) / n)
        np.divide(dlogits, n, out=dlogits)
    else:
        counts = np.asarray(counts)
        padding = np.arange(n) >= counts[:, None]
        picked[padding] = 0.0
        loss = -(np.add.reduce(picked, axis=-1) / counts)
        dlogits /= counts[:, None, None]
        dlogits[padding] = 0.0
    return (float(loss) if logits.ndim == 2 else loss), dlogits


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, counts: Optional[np.ndarray] = None
) -> Tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits.

    Uses max-shifted log-softmax so large logits cannot overflow.  The
    returned gradient is (softmax - onehot) / batch_size, i.e. already scaled
    for the mean loss.

    Stacked logits (m, n, classes) take labels (m, n) and return one mean per
    model.  `counts` (m,) then gives each model's number of real rows: its
    rows from that count on are padding, get a zero gradient and stay out of
    its mean, and its gradient is divided by its own count.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ValueError("labels must be (n,), or (m, n) for stacked logits")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[-1]):
        raise ValueError("labels out of range")
    return _cross_entropy(logits, labels, counts, _ce_buffers(logits.shape))


def backprop_through(
    model: MlpModel,
    trace: Trace,
    dout: np.ndarray,
    param_grads: bool = True,
    input_grad: bool = True,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Push an upstream gradient back through the traced forward pass.

    Returns (flat parameter gradient, gradient w.r.t. the model's input
    batch); the input gradient lets a second network (the sample generator)
    sit in front of this one.  Either can be skipped, and is then returned as
    None: a frozen network needs no parameter gradient, and the first
    network of a chain no input gradient.  Both results live in `trace`,
    which must be the trace of `model`'s last forward pass.
    """
    if trace.model is not model:
        raise ValueError("the trace ran another model")
    return trace.backward(dout, param_grads, input_grad)


def backward(
    model: MlpModel, batch: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its flat parameter gradient for one batch."""
    out, trace = forward_cached(model, batch)
    loss, dout = softmax_cross_entropy(out, labels)
    grads, _ = backprop_through(model, trace, dout, input_grad=False)
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


class SgdState(NamedTuple):
    """Momentum SGD buffers, laid out like the parameter vector."""

    velocity: np.ndarray
    scratch: np.ndarray  # holds wd * w and lr * v for the step in progress


def init_momentum(model: MlpModel) -> SgdState:
    """Zeroed velocity (and a scratch vector) matching the model's parameters."""
    return SgdState(np.zeros_like(model.params), np.empty_like(model.params))


def sgd_step(
    model: MlpModel, grads: np.ndarray, cfg: SgdConfig, state: SgdState
) -> MlpModel:
    """One momentum SGD step on the model's parameter vector, in place.

    Weight decay is added to the raw gradient (g <- g + wd * w) before the
    velocity update v <- mu * v + g, w <- w - lr * v.  Decay applies to
    weight matrices only, never biases, and is skipped at zero, where it
    would add only zeros (NaN at an infinite weight).  `grads` receives the
    decay term, `state` the new velocity; returns the (same) model.
    """
    params, (velocity, scratch) = model.params, state
    if grads.shape != params.shape or velocity.shape != params.shape:
        raise ValueError("grads/state must match the parameter vector")
    if cfg.weight_decay != 0.0:
        np.multiply(cfg.weight_decay, params, out=scratch)
        for _, b in model.spans:
            scratch[..., b] = -0.0  # x + -0.0 is x for every x, inf and NaN included
        grads += scratch
    velocity *= cfg.momentum
    velocity += grads
    np.multiply(cfg.learning_rate, velocity, out=scratch)
    params -= scratch
    return model
