"""A fixed reference computation that tracks how fast this machine runs now.

On a shared machine the same bfl code runs up to 1.5x slower from one second
to the next, because other tenants take the core or its caches.  The
benchmark times a short burst of this reference step between rounds and
states its throughput in reference-step time, which cancels most of that
drift.  The step is a small float64 MLP training step in plain numpy, close
in size and kind to bfl's generator step but independent of bfl, so no
change to bfl can speed it up or slow it down.  Do not edit it: every
normalised figure is relative to it.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

# (fan_in, fan_out) of a 19 -> 64 -> 64 -> 12 -> 16 -> 16 -> 3 ReLU stack,
# the generator and classifier shapes of the acceptance scenario.
LAYERS = ((19, 64), (64, 64), (64, 12), (12, 16), (16, 16), (16, 3))
BATCH = 64
STEPS_PER_BURST = 10


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.weights = [rng.standard_normal((o, i)) * np.sqrt(2.0 / i) for i, o in LAYERS]
        self.biases = [np.zeros(o) for _, o in LAYERS]
        self.velocity = [np.zeros_like(w) for w in self.weights]
        self.updated = [np.zeros_like(w) for w in self.weights]
        self.x = rng.standard_normal((BATCH, LAYERS[0][0]))
        self.y = rng.integers(0, LAYERS[-1][1], size=BATCH)
        self.rows = np.arange(BATCH)

    def step(self) -> None:
        """Forward, softmax cross-entropy, backward and a momentum SGD update
        of the first three layers.  The update goes to a scratch copy, so the
        weights, and with them the cost of every step, never drift."""
        a = self.x
        caches = []
        for w, b in zip(self.weights, self.biases):
            z = a @ w.T + b
            caches.append((a, z))
            a = np.maximum(z, 0.0)
        p = np.exp(a - a.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[self.rows, self.y] -= 1.0
        d = p / BATCH
        for k in range(len(self.weights) - 1, -1, -1):
            a_in, z = caches[k]
            dz = d * (z > 0.0)
            grad = dz.T @ a_in
            d = dz @ self.weights[k]
            if k < 3:
                self.velocity[k] *= 0.9
                self.velocity[k] += grad
                np.subtract(self.weights[k], 1e-3 * self.velocity[k], out=self.updated[k])

    def burst(self) -> Tuple[float, float]:
        """Run STEPS_PER_BURST steps; return (wall, cpu) seconds per step."""
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(STEPS_PER_BURST):
            self.step()
        return ((time.perf_counter() - wall) / STEPS_PER_BURST,
                (time.process_time() - cpu) / STEPS_PER_BURST)
