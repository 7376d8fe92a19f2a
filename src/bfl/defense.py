"""Server-side filtering of client updates via generated validation data.

The server never sees client data.  Each round it trains a small conditional
generator whose only teacher is the frozen broadcast model: the generator maps
(noise, class label) to an input the broadcast model classifies as that label,
optimized by cross-entropy through the frozen classifier (Its weights receive
no updates; gradients merely pass through to the generator).  Because the
generator chases whatever regions the classifier currently labels confidently,
the synthesized samples hug the decision boundaries and expose updates that
warp them.

The generator is a plain `nn.MlpModel` ending in tanh; `_to_box` maps its
[-1, 1] output onto the classifier's input box, feature by feature.
Sampling the trained generator with a balanced label schedule yields the
synthetic validation set.  Every candidate vector is read as a full model
(the template's layout over it, without a copy) and scored on that set;
a population-mean or a two-cluster policy, neither with a threshold to set,
then decides which rows of the round's update matrix survive to
aggregation.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import nn
from .data import Dataset
from .rng import GEN_INIT, GEN_TRAIN, SYNTH, substream

FILTER_KINDS = ("adaptive", "cluster")
METRIC_KINDS = ("accuracy", "loss")

GEN_HIDDEN = (64, 64)
GEN_BATCH = 64
GEN_SGD = nn.SgdConfig(learning_rate=0.01, momentum=0.9, weight_decay=0.0)
# The loss stop: a fit ends once the mean loss over the last WINDOW
# iterations falls below STOP_LOSS.
STOP_LOSS = 0.1
WINDOW = 50
# The plateau stop: a fit ends once this many windows of WINDOW iterations
# have passed without the window-mean loss falling below
# (1 - PLATEAU_REL_DELTA) times its best value so far.
PLATEAU_WINDOWS = 4
PLATEAU_REL_DELTA = 0.01


@dataclass
class DefenseConfig:
    """The defense's settings.  The generator's recipe besides its noise
    width and iteration cap is fixed: GEN_HIDDEN, GEN_BATCH, GEN_SGD and
    the two stop rules' constants above."""

    noise_dim: int = 16
    q: int = 64  # synthetic samples per class
    filter: str = "adaptive"
    metric: str = "loss"
    gen_max_iter: int = 2000

    def __post_init__(self) -> None:
        if min(self.noise_dim, self.q, self.gen_max_iter) < 1:
            raise ValueError("noise_dim, q and gen_max_iter must be >= 1")
        if self.filter not in FILTER_KINDS:
            raise ValueError(f"unknown filter {self.filter!r}")
        if self.metric not in METRIC_KINDS:
            raise ValueError(f"unknown metric {self.metric!r}")


def _to_box(
    raw: np.ndarray, lo: np.ndarray, half: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """lo + half * (raw + 1.0): the generator's tanh output in [-1, 1] mapped
    onto the box [lo, lo + 2 * half], written into `out` when given."""
    out = np.add(raw, 1.0, out=out)
    np.multiply(half, out, out=out)
    return np.add(lo, out, out=out)


def train_generator(
    classifier: nn.MlpModel,
    cfg: DefenseConfig,
    master_seed: int,
    round_index: int,
    out_lo: np.ndarray,
    out_hi: np.ndarray,
) -> Tuple[nn.MlpModel, int]:
    """Fit the conditional generator against the frozen classifier; return
    it and the number of iterations consumed.

    The generator is an MLP from [noise, onehot(label)] through GEN_HIDDEN
    relu layers to a tanh layer of the classifier's input width; `_to_box`
    maps its output onto the box [out_lo, out_hi], per feature.  Each
    iteration draws a fresh batch of standard-normal noise and uniform
    labels, pushes it through generator then classifier, and takes one
    GEN_SGD step on the generator alone.  Training stops at the first of
    three conditions:

    - the mean cross-entropy over the last WINDOW iterations (the window
      mean) drops below STOP_LOSS;
    - the loss has plateaued: at the end of each non-overlapping window of
      WINDOW iterations, a window mean below (1 - PLATEAU_REL_DELTA) times
      the best so far becomes the new best, and the fit stops once
      PLATEAU_WINDOWS windows have passed since the last new best;
    - `gen_max_iter` iterations have run.

    A non-finite window mean is never a new best, so a fit against a
    classifier whose outputs are NaN or overflow stops after
    PLATEAU_WINDOWS windows.  The iteration count is the per-round effort
    signal: a crisp, stable classifier is quick to imitate, a drifting one
    is not.

    Everything an iteration touches is prepared once per fit: the noise,
    conditioning and synthetic batches, the flat index of each row's one-hot
    entry, the box's constants broadcast to the batch, and one `nn.Trace`
    per network.  Each trace holds that network's activation, gradient and
    cross-entropy buffers and its layer views.  An iteration writes into
    these buffers with `out=`; it allocates only the label draw, and it
    updates the generator's parameter vector and momentum in place.  The
    classifier trace reads `classifier`'s parameter vector through views
    and never writes it.  Only the gradient with respect to the
    classifier's input is propagated through it: the classifier's parameter
    gradients are never formed, and neither is the gradient with respect to
    the generator's own input.
    """
    num_classes = classifier.output_dim
    gen = nn.init_mlp(
        [cfg.noise_dim + num_classes, *GEN_HIDDEN, classifier.input_dim], "relu",
        substream(master_seed, GEN_INIT, round_index), out_activation="tanh",
    )
    train_rng = substream(master_seed, GEN_TRAIN, round_index)
    state = nn.init_momentum(gen)
    window: collections.deque = collections.deque(maxlen=WINDOW)
    noise = np.empty((GEN_BATCH, cfg.noise_dim))
    cond = np.empty((GEN_BATCH, cfg.noise_dim + num_classes))
    cond_noise, cond_onehot = cond[:, : cfg.noise_dim], cond[:, cfg.noise_dim :]
    # The one-hot columns by flat index: each row's entry for label 0, plus
    # the label, is the entry that gets the 1.
    onehot_base = np.arange(GEN_BATCH) * cond.shape[1] + cfg.noise_dim
    hot, cond_flat = np.empty(GEN_BATCH, dtype=np.intp), cond.reshape(-1)
    synth = np.empty((GEN_BATCH, classifier.input_dim))
    gen_trace = nn.Trace(gen, (GEN_BATCH,))
    cls_trace = nn.Trace(classifier, (GEN_BATCH,))
    # The box's constants, broadcast to a batch once.
    half = np.broadcast_to(0.5 * (out_hi - out_lo), synth.shape).copy()
    low = np.broadcast_to(out_lo, synth.shape).copy()
    best, best_at = np.inf, 0  # the plateau stop's best window mean, and when
    iterations = 0
    for iterations in range(1, cfg.gen_max_iter + 1):
        train_rng.standard_normal(out=noise)
        labels = train_rng.integers(0, num_classes, size=GEN_BATCH)
        np.copyto(cond_noise, noise)
        cond_onehot.fill(0.0)
        np.add(onehot_base, labels, out=hot)
        cond_flat[hot] = 1.0
        _to_box(gen_trace.forward(cond), low, half, synth)
        cls_trace.forward(synth)
        loss, dlogits = cls_trace.cross_entropy(labels)
        _, dsynth = cls_trace.backward(dlogits, param_grads=False)
        np.multiply(dsynth, half, out=dsynth)
        grads, _ = gen_trace.backward(dsynth, input_grad=False)
        nn.sgd_step(gen, grads, GEN_SGD, state)
        window.append(loss)
        if len(window) < WINDOW:
            continue
        mean = sum(window) / len(window)
        if mean < STOP_LOSS:
            break
        if iterations % WINDOW == 0:
            if mean < best * (1.0 - PLATEAU_REL_DELTA):
                best, best_at = mean, iterations
            elif iterations - best_at >= PLATEAU_WINDOWS * WINDOW:
                break
    return gen, iterations


def synthesize(
    gen: nn.MlpModel,
    cfg: DefenseConfig,
    master_seed: int,
    round_index: int,
    out_lo: np.ndarray,
    out_hi: np.ndarray,
) -> Dataset:
    """Sample a class-balanced probe set from a `train_generator` fit:
    exactly `cfg.q` samples per class, in the box [out_lo, out_hi].

    Labels are the conditioning labels, whatever the classifier would say
    about the generated points.  Rows are grouped by class, class 0 first:
    each class's q rows are one generator pass over [noise, onehot(class)],
    where only the noise varies from row to row.
    """
    rng = substream(master_seed, SYNTH, round_index)
    q, noise_dim = cfg.q, cfg.noise_dim
    classes = gen.input_dim - noise_dim
    half = 0.5 * (out_hi - out_lo)
    cond = np.zeros((q, gen.input_dim))
    feats = []
    for c in range(classes):
        cond[:, :noise_dim] = rng.standard_normal((q, noise_dim))
        cond[:, noise_dim:] = np.arange(classes) == c
        feats.append(_to_box(nn.forward(gen, cond), out_lo, half))
    return Dataset(np.vstack(feats), np.repeat(np.arange(classes), q), classes)


def eval_update(
    params: np.ndarray, template: nn.MlpModel, probe: Dataset, metric: str
) -> float | np.ndarray:
    """Score a candidate vector, or each row of an (m, P) stack, read in
    the template's layout, on the synthetic probe set.

    A stack runs as one stacked forward pass over the probe, broadcast to
    every row, and gives one metric per row, bit for bit what that row
    scores alone.  The accuracy of a model whose probe logits are not all
    finite is NaN.
    """
    lead = np.shape(params)[:-1]
    labels = np.broadcast_to(probe.labels, lead + probe.labels.shape)
    logits = nn.forward(
        template.with_params(params), np.broadcast_to(probe.features, lead + probe.features.shape)
    )
    if metric == "accuracy":
        hits = (logits.argmax(axis=-1) == labels).mean(axis=-1)
        acc = np.where(np.isfinite(logits).all(axis=(-2, -1)), hits, np.nan)
        return acc if lead else float(acc)
    if metric == "loss":
        loss, _ = nn.softmax_cross_entropy(logits, labels)
        return loss
    raise ValueError(f"unknown metric {metric!r}")


def score_updates(
    candidates: np.ndarray, template: nn.MlpModel, probe: Dataset, metric: str
) -> np.ndarray:
    """Score the (m, P) stack of candidates in one `eval_update` call: one
    score per row, in row order.

    Accuracy keeps its sign; loss is negated, so higher score is always
    better regardless of metric.  A NaN or infinite metric scores -inf.
    """
    raws = eval_update(candidates, template, probe, metric)
    scores = raws if metric == "accuracy" else -raws
    return np.where(np.isfinite(scores), scores, -np.inf)


def _exact(values: np.ndarray) -> list[int]:
    """The finite `values` as Python ints over one common power-of-two
    denominator, so that their sums, products and comparisons are exact."""
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    den = max(d for _, d in ratios)
    return [p * (den // d) for p, d in ratios]


def kmeans_1d_two(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact two-cluster split of finite scalar scores, minimizing
    within-cluster sum of squares.

    Ranks the scores and scans every split position; with sorted data the
    optimal 2-means partition is always such a prefix/suffix split, so the
    scan is exhaustive.  Equal scores rank by descending row, so among them
    the lowest row counts as the highest score, as the cluster filter's best
    scorer does.  Splitting the n ranked scores after the k-th lowers the
    WCSS by (n * S_k - k * S)**2 / (n * k * (n - k)), with S_k the sum of
    the k lowest and S the sum of all; the scan compares these terms in
    integer arithmetic, so no rounding, overflow or cancellation touches
    the decision and no tolerance is needed.  Exact ties break toward the
    first split, which puts more members alongside the highest score (the
    smaller lower cluster).  Returns (lower rows, upper rows), each
    ascending.
    """
    n = len(values)
    if n < 2:
        raise ValueError("need at least two points to cluster")
    order = np.lexsort((-np.arange(n), values))
    ranked = _exact(values[order])
    total = sum(ranked)
    best_split, best_num, best_den = 1, -1, 1
    prefix = 0
    for k, v in enumerate(ranked[:-1], 1):
        prefix += v
        num, den = (n * prefix - k * total) ** 2, k * (n - k)
        if num * best_den > best_num * den:
            best_split, best_num, best_den = k, num, den
    return np.sort(order[:best_split]), np.sort(order[best_split:])


def filter_updates(scores: np.ndarray, policy: str) -> np.ndarray:
    """Decide which rows of the (m,) `scores` survive; returns them in
    ascending order.

    A non-finite score is rejected under both policies, which see only the
    finite scores:

    adaptive:  keep scores strictly above their mean, compared in exact
               integer arithmetic (n * score > sum), so no rounding or
               overflow moves the threshold.
    cluster:   exact two-means over scores (`kmeans_1d_two`); keep the upper
               cluster, which holds the best-scoring row (the lowest row
               among ties).
    Both keep every finite score when they are all equal (a lone one
    included), and otherwise keep at least the best one; neither has a
    threshold to set.  Both reject everyone only when no score is finite.
    """
    if policy not in FILTER_KINDS:
        raise ValueError(f"unknown filter {policy!r}")
    rows = np.flatnonzero(np.isfinite(scores))
    finite = scores[rows]
    if np.all(finite == finite[:1]):  # none, or all equal to the first
        return rows
    if policy == "adaptive":
        exact = _exact(finite)
        total, n = sum(exact), len(exact)
        return rows[[n * s > total for s in exact]]
    return rows[kmeans_1d_two(finite)[1]]
