"""Test-only reference computations for the network core.

Each one favors obviousness over speed: an explicit triple loop, finite
differences, a closed form, one client trained at a time, a generator fit
composed from the checked public passes.  The aggregation and filter
oracles that `bfl oracle` replays stay in `bfl.oracles`.
"""

import collections
from typing import Tuple

import numpy as np

from bfl import defense, nn
from bfl.rng import GEN_INIT, GEN_TRAIN, substream


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


def generator_fit(
    classifier: nn.MlpModel,
    cfg: defense.DefenseConfig,
    master_seed: int,
    round_index: int,
    out_lo: np.ndarray,
    out_hi: np.ndarray,
) -> Tuple[defense.GeneratorModel, int]:
    """`defense.train_generator` composed from the public, checked passes:
    `forward_cached`, `softmax_cross_entropy`, `backprop_through` twice and
    `sgd_step`, with the same draws, stopping rule and buffers reused
    across iterations only through the traces."""
    train_rng = substream(master_seed, GEN_TRAIN, round_index)
    gen = defense.new_generator(
        classifier, cfg, substream(master_seed, GEN_INIT, round_index), out_lo, out_hi
    )
    sgd = nn.SgdConfig(learning_rate=cfg.gen_lr, momentum=0.9, weight_decay=0.0)
    state = nn.init_momentum(gen.backbone)
    window: collections.deque = collections.deque(maxlen=cfg.early_stop_patience)
    noise = np.empty((defense.GEN_BATCH, cfg.noise_dim))
    gen_trace = cls_trace = None
    iterations = 0
    for iterations in range(1, cfg.gen_max_iter + 1):
        train_rng.standard_normal(out=noise)
        labels = train_rng.integers(0, classifier.output_dim, size=defense.GEN_BATCH)
        raw, gen_trace = nn.forward_cached(gen.backbone, gen._condition(noise, labels), gen_trace)
        logits, cls_trace = nn.forward_cached(classifier, gen._scale(raw), cls_trace)
        loss, dlogits = nn.softmax_cross_entropy(logits, labels)
        _, dsynth = nn.backprop_through(classifier, cls_trace, dlogits, param_grads=False)
        grads, _ = nn.backprop_through(
            gen.backbone, gen_trace, dsynth * gen.half, input_grad=False
        )
        nn.sgd_step(gen.backbone, grads, sgd, state)
        window.append(loss)
        if (
            len(window) == cfg.early_stop_patience
            and sum(window) / len(window) < cfg.early_stop_loss
        ):
            break
    return gen, iterations
