"""Test-only reference computations for the network core.

Each one favors obviousness over speed: an explicit triple loop, finite
differences, a closed form.  The aggregation and filter oracles that
`bfl oracle` replays stay in `bfl.oracles`.
"""

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
