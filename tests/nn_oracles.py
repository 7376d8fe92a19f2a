"""Test-only reference computations for the network core and the code
built on it.

Each one favors obviousness over speed: an explicit triple loop, finite
differences, a closed form, an SGD step one layer at a time, one client
trained at a time, a generator fit composed from the checked public passes,
an exhaustive two-means split, an exact rational one, the IPM line-search
objective spelled out.  The aggregation oracles that `bfl oracle` replays
stay in `bfl.oracles`.
"""

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

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


def sgd_step_per_layer(
    model: nn.MlpModel, grads: np.ndarray, cfg: nn.SgdConfig, velocity: np.ndarray
) -> None:
    """`nn.sgd_step` spelled out: g <- g + wd * w on each layer's weight
    slice in turn (biases untouched), then v <- mu * v + g and
    w <- w - lr * v, all in place."""
    if cfg.weight_decay != 0.0:
        for w, _ in model.spans:
            grads[..., w] = grads[..., w] + cfg.weight_decay * model.params[..., w]
    velocity[...] = cfg.momentum * velocity + grads
    model.params[...] = model.params - cfg.learning_rate * velocity


def local_training_one_client(
    client,
    template: nn.MlpModel,
    global_vector: np.ndarray,
    sgd_cfg: nn.SgdConfig,
    epochs: int,
    batch: int,
    train_rng: np.random.Generator,
) -> np.ndarray:
    """One client's local SGD on its own, unstacked: the reference for the
    lockstep `orchestrator.local_training`.

    The client's samples are reshuffled every epoch and walked in batches of
    min(batch, len(client)); returns the local weights minus the broadcast
    vector.
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
    return model.params - global_vector


def generator_fit(
    classifier: nn.MlpModel,
    cfg: defense.DefenseConfig,
    master_seed: int,
    round_index: int,
    out_lo: np.ndarray,
    out_hi: np.ndarray,
) -> Tuple[nn.MlpModel, int, List[float]]:
    """`defense.train_generator` composed from the public, checked passes:
    a generator built by `init_mlp` from the GEN_INIT stream, then per
    iteration `forward_cached`, the box mapping written out,
    `softmax_cross_entropy`, `backprop_through` twice and `sgd_step`, with
    the same draws and fresh traces every iteration.  The stopping rules are
    applied to the full list of losses, which is returned too: the loss stop
    to its trailing window, the plateau stop to the means of its
    non-overlapping windows (`plateau_reached`)."""
    train_rng = substream(master_seed, GEN_TRAIN, round_index)
    classes = classifier.output_dim
    gen = nn.init_mlp(
        [cfg.noise_dim + classes, *defense.GEN_HIDDEN, classifier.input_dim], "relu",
        substream(master_seed, GEN_INIT, round_index), out_activation="tanh",
    )
    half = 0.5 * (out_hi - out_lo)
    state = nn.init_momentum(gen)
    patience = defense.WINDOW
    losses = []
    noise = np.empty((defense.GEN_BATCH, cfg.noise_dim))
    iterations = 0
    for iterations in range(1, cfg.gen_max_iter + 1):
        train_rng.standard_normal(out=noise)
        labels = train_rng.integers(0, classes, size=defense.GEN_BATCH)
        cond = np.hstack([noise, np.eye(classes)[labels]])
        raw, gen_trace = nn.forward_cached(gen, cond)
        logits, cls_trace = nn.forward_cached(classifier, out_lo + half * (raw + 1.0))
        loss, dlogits = nn.softmax_cross_entropy(logits, labels)
        _, dsynth = nn.backprop_through(classifier, cls_trace, dlogits, param_grads=False)
        grads, _ = nn.backprop_through(gen, gen_trace, dsynth * half, input_grad=False)
        nn.sgd_step(gen, grads, defense.GEN_SGD, state)
        losses.append(loss)
        if iterations >= patience and sum(losses[-patience:]) / patience < defense.STOP_LOSS:
            break
        if iterations % patience == 0 and plateau_reached(
            [sum(losses[end - patience : end]) / patience
             for end in range(patience, iterations + 1, patience)]
        ):
            break
    return gen, iterations, losses


def plateau_reached(window_means: Sequence[float]) -> bool:
    """Whether `defense.PLATEAU_WINDOWS` windows have passed since the last
    window whose mean fell below (1 - `defense.PLATEAU_REL_DELTA`) times the
    best earlier mean.  Only a mean that compares below counts, so NaN never
    does."""
    best, since = math.inf, 0
    for mean in window_means:
        since += 1
        if mean < best * (1.0 - defense.PLATEAU_REL_DELTA):
            best, since = mean, 0
    return since >= defense.PLATEAU_WINDOWS


def exhaustive_min_wcss_split(values: Sequence[float]) -> Tuple[int, float]:
    """Try every split of the sorted values; return (split index, WCSS).

    Ties keep the smallest split, i.e. the larger upper cluster.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    assert n >= 2

    def ssd(chunk: List[float]) -> float:
        mean = sum(chunk) / len(chunk)
        return sum((v - mean) ** 2 for v in chunk)

    best_split, best_cost = 1, math.inf
    for split in range(1, n):
        cost = ssd(ordered[:split]) + ssd(ordered[split:])
        if cost < best_cost:
            best_cost = cost
            best_split = split
    return best_split, best_cost


def exact_wcss(lower: Sequence[float], upper: Sequence[float]) -> Fraction:
    """Within-cluster sum of squares of two clusters of finite floats, in
    rational arithmetic: no rounding and no overflow."""

    def ssd(chunk: Sequence[float]) -> Fraction:
        exact = [Fraction(v) for v in chunk]
        mean = sum(exact) / len(exact)
        return sum((v - mean) ** 2 for v in exact)

    return ssd(lower) + ssd(upper)


def exact_min_wcss(values: Sequence[float]) -> Fraction:
    """The least `exact_wcss` over every split of the sorted values."""
    ordered = sorted(float(v) for v in values)
    return min(exact_wcss(ordered[:k], ordered[k:]) for k in range(1, len(ordered)))


def surrogate_loss_per_gamma(
    global_vector: np.ndarray,
    template: nn.MlpModel,
    estimate: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    gamma_grid: Sequence[float],
    n_sampled: int,
    n_malicious: int,
) -> List[float]:
    """Recompute the line-search objective per grid point from scratch.

    The simulated aggregate and the cross-entropy are both spelled out
    directly (log-sum-exp included) rather than routed through the attack
    code, so this doubles as a check of that path.
    """
    out = []
    for gamma in gamma_grid:
        mixed = (
            (n_sampled - n_malicious) * estimate + n_malicious * (-gamma * estimate)
        ) / n_sampled
        model = template.with_params(global_vector + mixed)
        logits = nn.forward(model, features)
        total = 0.0
        for row, label in zip(logits, labels):
            shifted = row - row.max()
            total += math.log(np.exp(shifted).sum()) - shifted[label]
        out.append(total / len(labels))
    return out
