"""Test-only reference computations for the network core.

Each one favors obviousness over speed: an explicit triple loop, finite
differences, a closed form, one client trained at a time.  The aggregation and filter oracles that
`bfl oracle` replays stay in `bfl.oracles`.
"""

from typing import Tuple

import numpy as np

from bfl import nn


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Schoolbook matrix product, one scalar multiply at a time."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def central_difference_grads(
    model: nn.MlpModel, batch: np.ndarray, labels: np.ndarray, h: float = 1e-4
) -> np.ndarray:
    """Numerical gradient of the mean cross-entropy w.r.t. every parameter."""
    theta = model.params
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] += h
        up, _ = nn.softmax_cross_entropy(
            nn.forward(model.with_params(bumped), batch), labels
        )
        bumped[i] -= 2.0 * h
        down, _ = nn.softmax_cross_entropy(
            nn.forward(model.with_params(bumped), batch), labels
        )
        grad[i] = (up - down) / (2.0 * h)
    return grad


def constant_gradient_momentum_value(
    w0: float, g: float, lr: float, mu: float, steps: int
) -> float:
    """Closed form for repeated momentum steps with a constant gradient.

    With v_0 = 0 and no decay, v_k = g (1 - mu^k) / (1 - mu), so
    w_K = w0 - lr * g * sum_{k=1..K} (1 - mu^k) / (1 - mu).
    """
    total = sum((1.0 - mu**k) / (1.0 - mu) for k in range(1, steps + 1))
    return w0 - lr * g * total


def local_training_one_client(
    client,
    template: nn.MlpModel,
    global_vector: np.ndarray,
    sgd_cfg: nn.SgdConfig,
    epochs: int,
    batch: int,
    train_rng: np.random.Generator,
) -> Tuple[np.ndarray, int]:
    """One client's local SGD on its own, unstacked: the reference for the
    lockstep `orchestrator.local_training`.

    The client's samples are reshuffled every epoch and walked in batches of
    min(batch, len(client)); returns (local weights minus the broadcast
    vector, sample count).
    """
    count = len(client)
    model = template.with_params(global_vector.copy())
    state = nn.init_momentum(model)
    feats, labels = client.features, client.labels
    bsz = min(batch, count)
    for _ in range(epochs):
        perm = train_rng.permutation(count)
        for start in range(0, count, bsz):
            sel = perm[start : start + bsz]
            out, trace = nn.forward_cached(model, feats[sel])
            _, dout = nn.softmax_cross_entropy(out, labels[sel])
            grads, _ = nn.backprop_through(model, trace, dout, input_grad=False)
            nn.sgd_step(model, grads, sgd_cfg, state)
    return model.params - global_vector, count
