"""Micro-benchmarks of the two inner loops of a cell, built from `bfl.nn`.

* One generator step: the body of `defense.train_generator`'s loop, with the
  acceptance shapes: generator 19 -> 64 -> 64 -> 12 (tanh out) through the
  frozen classifier 12 -> 16 -> 16 -> 3, batch 64, momentum SGD on the
  generator only.
* One local epoch: the body of `orchestrator.local_training`'s epoch loop on
  an iid-sized shard (600 training samples over 20 clients = 30 rows), batch
  128, so one SGD step on the classifier.

FLOPs and bytes are computed from the shapes, not measured: every dense
layer runs three float64 matmuls per step (forward, weight gradient, input
gradient), each reading both operands and writing its result once.
Elementwise work (activations, softmax, the SGD update) is not counted.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from bfl import nn

GEN_DIMS = (19, 64, 64, 12)
CLS_DIMS = (12, 16, 16, 3)
GEN_BATCH = 64
NOISE_DIM = 16
SHARD_ROWS = 30
LOCAL_BATCH = 128


def dense_costs(dims: Sequence[int], batch: int) -> Tuple[int, int]:
    """Computed (flop, bytes) of one forward plus backward pass."""
    flop = nbytes = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        flop += 3 * 2 * batch * fan_in * fan_out
        nbytes += 3 * 8 * (batch * fan_in + fan_in * fan_out + batch * fan_out)
    return flop, nbytes


def gen_step_costs(gen_dims: Sequence[int], cls_dims: Sequence[int], batch: int) -> Tuple[int, int]:
    gen_flop, gen_bytes = dense_costs(gen_dims, batch)
    cls_flop, cls_bytes = dense_costs(cls_dims, batch)
    return gen_flop + cls_flop, gen_bytes + cls_bytes


def _seconds_per_call(step: Callable[[], None], calls: int, blocks: int = 5) -> float:
    step()
    samples = []
    for _ in range(blocks):
        started = time.perf_counter()
        for _ in range(calls):
            step()
        samples.append((time.perf_counter() - started) / calls)
    return statistics.median(samples)


def _gen_step(rng: np.random.Generator) -> Callable[[], None]:
    num_classes = CLS_DIMS[-1]
    holder = {"gen": nn.init_mlp(GEN_DIMS, "relu", rng, out_activation="tanh")}
    classifier = nn.init_mlp(CLS_DIMS, "relu", rng)
    sgd = nn.SgdConfig(learning_rate=0.01, momentum=0.9, weight_decay=0.0)
    state = nn.init_momentum(holder["gen"])
    # The toy task's input box: blob radius 3 plus two spreads of 0.6 in the
    # two signal axes, two spreads elsewhere.
    lo = np.full(CLS_DIMS[0], -1.2)
    lo[:2] = -4.2
    half = -lo
    rows = np.arange(GEN_BATCH)

    def step() -> None:
        noise = rng.standard_normal((GEN_BATCH, NOISE_DIM))
        labels = rng.integers(0, num_classes, size=GEN_BATCH)
        onehot = np.zeros((GEN_BATCH, num_classes))
        onehot[rows, labels] = 1.0
        raw, gen_caches = nn.forward_cached(holder["gen"], np.hstack([noise, onehot]))
        logits, cls_caches = nn.forward_cached(classifier, lo + half * (raw + 1.0))
        _, dlogits = nn.softmax_cross_entropy(logits, labels)
        _, dsynth = nn.backprop_through(classifier, cls_caches, dlogits)
        grads, _ = nn.backprop_through(holder["gen"], gen_caches, dsynth * half)
        holder["gen"] = nn.sgd_step(holder["gen"], grads, sgd, state)

    return step


def _local_epoch(rng: np.random.Generator) -> Callable[[], None]:
    feats = rng.standard_normal((SHARD_ROWS, CLS_DIMS[0]))
    labels = rng.integers(0, CLS_DIMS[-1], size=SHARD_ROWS)
    holder = {"model": nn.init_mlp(CLS_DIMS, "relu", rng)}
    state = nn.init_momentum(holder["model"])
    sgd = nn.SgdConfig(learning_rate=0.01, momentum=0.9, weight_decay=1e-4)
    bsz = min(LOCAL_BATCH, SHARD_ROWS)

    def epoch() -> None:
        perm = rng.permutation(SHARD_ROWS)
        for start in range(0, SHARD_ROWS, bsz):
            sel = perm[start : start + bsz]
            _, grads = nn.backward(holder["model"], feats[sel], labels[sel])
            holder["model"] = nn.sgd_step(holder["model"], grads, sgd, state)

    return epoch


def run() -> Dict[str, float]:
    """Median microseconds per call over five timed blocks, plus computed costs."""
    rng = np.random.default_rng(0)
    gen_flop, gen_bytes = gen_step_costs(GEN_DIMS, CLS_DIMS, GEN_BATCH)
    steps_per_epoch = -(-SHARD_ROWS // min(LOCAL_BATCH, SHARD_ROWS))
    step_flop, step_bytes = dense_costs(CLS_DIMS, min(LOCAL_BATCH, SHARD_ROWS))
    return {
        "micro.gen_step_us": 1e6 * _seconds_per_call(_gen_step(rng), 200),
        "micro.local_epoch_us": 1e6 * _seconds_per_call(_local_epoch(rng), 1000),
        "micro.gen_step_flop_computed": gen_flop,
        "micro.gen_step_bytes_computed": gen_bytes,
        "micro.local_epoch_flop_computed": steps_per_epoch * step_flop,
        "micro.local_epoch_bytes_computed": steps_per_epoch * step_bytes,
    }
