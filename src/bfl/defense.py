"""Server-side filtering of client updates via generated validation data.

The server never sees client data.  Each round it trains a small conditional
generator whose only teacher is the frozen broadcast model: the generator maps
(noise, class label) to an input the broadcast model classifies as that label,
optimized by cross-entropy through the frozen classifier (Its weights receive
no updates; gradients merely pass through to the generator).  Because the
generator chases whatever regions the classifier currently labels confidently,
the synthesized samples hug the decision boundaries and expose updates that
warp them.

Sampling the trained generator with a balanced label schedule yields the
synthetic validation set.  Every candidate vector is read as a full model
(the template's layout over it, without a copy) and scored on that set;
fixed-threshold, population-mean, or two-cluster policies then decide which
clients' updates survive to aggregation.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from . import nn
from .data import Dataset
from .rng import GEN_INIT, GEN_TRAIN, SYNTH, substream

FILTER_KINDS = ("fixed", "adaptive", "cluster")
METRIC_KINDS = ("accuracy", "loss")

GEN_HIDDEN = (64, 64)
GEN_BATCH = 64
# The plateau stop: a fit ends once this many windows of
# `early_stop_patience` iterations have passed without the window-mean loss
# falling below (1 - PLATEAU_REL_DELTA) times its best value so far.
PLATEAU_WINDOWS = 4
PLATEAU_REL_DELTA = 0.01


@dataclass
class DefenseConfig:
    noise_dim: int = 16
    q: int = 64  # synthetic samples per class
    filter: str = "adaptive"
    tau: float = 0.5  # only read by the fixed policy
    metric: str = "accuracy"
    gen_lr: float = 0.01
    gen_max_iter: int = 2000
    early_stop_loss: float = 0.1
    early_stop_patience: int = 50

    def __post_init__(self) -> None:
        if self.noise_dim < 1 or self.q < 1:
            raise ValueError("noise_dim and q must be >= 1")
        if self.filter not in FILTER_KINDS:
            raise ValueError(f"unknown filter {self.filter!r}")
        if self.metric not in METRIC_KINDS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.gen_lr <= 0.0 or self.gen_max_iter < 1:
            raise ValueError("bad generator training settings")
        if self.early_stop_loss <= 0.0 or self.early_stop_patience < 1:
            raise ValueError("bad early stopping settings")


@dataclass
class GeneratorModel:
    """Conditional generator: (noise, onehot label) -> synthetic input.

    The backbone ends in tanh; `out_lo`/`out_hi` rescale its [-1, 1] range
    onto the classifier's input domain per feature, with slope `half`.
    """

    backbone: nn.MlpModel
    noise_dim: int
    num_classes: int
    out_lo: np.ndarray
    out_hi: np.ndarray
    half: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.out_lo = np.asarray(self.out_lo, dtype=np.float64)
        self.out_hi = np.asarray(self.out_hi, dtype=np.float64)
        if self.backbone.input_dim != self.noise_dim + self.num_classes:
            raise ValueError("backbone input must be noise_dim + num_classes")
        if self.out_lo.shape != self.out_hi.shape or np.any(self.out_hi <= self.out_lo):
            raise ValueError("need out_lo < out_hi per feature")
        self.half = 0.5 * (self.out_hi - self.out_lo)

    def generate(self, noise: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Map a noise batch plus labels to inputs inside [out_lo, out_hi]."""
        raw = nn.forward(self.backbone, self._condition(noise, labels))
        return self._scale(raw)

    def _condition(self, noise: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """[noise, onehot(labels)] per row."""
        out = np.empty((len(labels), self.noise_dim + self.num_classes))
        out[:, : self.noise_dim] = noise
        out[:, self.noise_dim :] = 0.0
        out[np.arange(len(labels)), self.noise_dim + labels] = 1.0
        return out

    def _scale(
        self, raw: np.ndarray, out: Optional[np.ndarray] = None,
        half: Optional[np.ndarray] = None, low: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """out_lo + half * (raw + 1.0), written into `out` when given.

        `half` and `low` stand in for `self.half` and `self.out_lo` when a
        caller has broadcast them to its batch once: the same values, then
        multiplied and added without broadcasting."""
        out = np.add(raw, 1.0, out=out)
        np.multiply(self.half if half is None else half, out, out=out)
        return np.add(self.out_lo if low is None else low, out, out=out)


def new_generator(
    classifier: nn.MlpModel, cfg: DefenseConfig, rng: np.random.Generator,
    out_lo: np.ndarray, out_hi: np.ndarray,
) -> GeneratorModel:
    num_classes = classifier.output_dim
    dims = [cfg.noise_dim + num_classes, *GEN_HIDDEN, classifier.input_dim]
    backbone = nn.init_mlp(dims, "relu", rng, out_activation="tanh")
    return GeneratorModel(backbone, cfg.noise_dim, num_classes, out_lo, out_hi)


def train_generator(
    classifier: nn.MlpModel,
    cfg: DefenseConfig,
    master_seed: int,
    round_index: int,
    out_lo: np.ndarray,
    out_hi: np.ndarray,
) -> Tuple[GeneratorModel, int]:
    """Fit the generator against the frozen classifier; return it and the
    number of iterations consumed.

    Each iteration draws a fresh batch of standard-normal noise and uniform
    labels, pushes it through generator then classifier, and takes one
    momentum SGD step on the generator alone.  Training stops at the first
    of three conditions:

    - the mean cross-entropy over the last `early_stop_patience` iterations
      (the window mean) drops below `early_stop_loss`;
    - the loss has plateaued: at the end of each non-overlapping window of
      `early_stop_patience` iterations, a window mean below
      (1 - PLATEAU_REL_DELTA) times the best so far becomes the new best,
      and the fit stops once PLATEAU_WINDOWS windows have passed since the
      last new best;
    - `gen_max_iter` iterations have run.

    A non-finite window mean is never a new best, so a fit against a
    classifier whose outputs are NaN or overflow stops after
    PLATEAU_WINDOWS windows.  The iteration count is the per-round effort
    signal: a crisp, stable classifier is quick to imitate, a drifting one
    is not.

    Everything an iteration touches is prepared once per fit: the noise,
    conditioning and synthetic batches, the flat index of each row's one-hot
    entry, the output scaling's constants broadcast to the batch, and one
    `nn.Trace` per network.  Each trace holds that network's activation,
    gradient and cross-entropy buffers and its bound layer views.  An
    iteration writes into these buffers with `out=`; it allocates only the
    label draw, and it updates the generator's parameter vector and
    momentum in place.  The classifier trace reads `classifier`'s parameter
    vector through views and never writes it; the returned generator wraps
    the vector the fit trained.  Only the gradient with respect to the
    classifier's input is propagated through it: the classifier's parameter
    gradients are never formed, and neither is the gradient with respect to
    the generator's own input.
    """
    init_rng = substream(master_seed, GEN_INIT, round_index)
    train_rng = substream(master_seed, GEN_TRAIN, round_index)
    gen = new_generator(classifier, cfg, init_rng, out_lo, out_hi)
    num_classes = classifier.output_dim
    sgd = nn.SgdConfig(learning_rate=cfg.gen_lr, momentum=0.9, weight_decay=0.0)
    state = nn.init_momentum(gen.backbone)
    window: collections.deque = collections.deque(maxlen=cfg.early_stop_patience)
    noise = np.empty((GEN_BATCH, cfg.noise_dim))
    cond = np.empty((GEN_BATCH, cfg.noise_dim + num_classes))
    cond_noise, cond_onehot = cond[:, : cfg.noise_dim], cond[:, cfg.noise_dim :]
    # `_condition` with flat indices: each row's one-hot entry for label 0,
    # plus the label, is the entry that gets the 1.
    onehot_base = np.arange(GEN_BATCH) * cond.shape[1] + cfg.noise_dim
    hot, cond_flat = np.empty(GEN_BATCH, dtype=np.intp), cond.reshape(-1)
    synth = np.empty((GEN_BATCH, classifier.input_dim))
    gen_trace = nn.Trace(gen.backbone, (GEN_BATCH,))
    cls_trace = nn.Trace(classifier, (GEN_BATCH,))
    # The output scaling's constants, broadcast to a batch once.
    half = np.broadcast_to(gen.half, synth.shape).copy()
    low = np.broadcast_to(gen.out_lo, synth.shape).copy()
    best, best_at = np.inf, 0  # the plateau stop's best window mean, and when
    iterations = 0
    for iterations in range(1, cfg.gen_max_iter + 1):
        train_rng.standard_normal(out=noise)
        labels = train_rng.integers(0, num_classes, size=GEN_BATCH)
        np.copyto(cond_noise, noise)
        cond_onehot.fill(0.0)
        np.add(onehot_base, labels, out=hot)
        cond_flat[hot] = 1.0
        gen._scale(gen_trace.forward(cond), synth, half, low)
        cls_trace.forward(synth)
        loss, dlogits = cls_trace.cross_entropy(labels)
        _, dsynth = cls_trace.backward(dlogits, param_grads=False)
        np.multiply(dsynth, half, out=dsynth)
        grads, _ = gen_trace.backward(dsynth, input_grad=False)
        nn.sgd_step(gen.backbone, grads, sgd, state)
        window.append(loss)
        if len(window) < cfg.early_stop_patience:
            continue
        mean = sum(window) / len(window)
        if mean < cfg.early_stop_loss:
            break
        if iterations % cfg.early_stop_patience == 0:
            if mean < best * (1.0 - PLATEAU_REL_DELTA):
                best, best_at = mean, iterations
            elif iterations - best_at >= PLATEAU_WINDOWS * cfg.early_stop_patience:
                break
    return gen, iterations


def synthesize(
    gen: GeneratorModel, q: int, master_seed: int, round_index: int
) -> Dataset:
    """Sample a class-balanced probe set: exactly q samples per class.

    Labels are the conditioning labels, whatever the classifier would say
    about the generated points.  Rows are grouped by class, class 0 first.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    rng = substream(master_seed, SYNTH, round_index)
    feats = []
    labels = []
    for c in range(gen.num_classes):
        noise = rng.standard_normal((q, gen.noise_dim))
        ys = np.full(q, c, dtype=np.int64)
        feats.append(gen.generate(noise, ys))
        labels.append(ys)
    ds = Dataset(np.vstack(feats), np.concatenate(labels), gen.num_classes)
    counts = np.bincount(ds.labels, minlength=gen.num_classes)
    assert np.all(counts == q), "probe set must stay class-balanced"
    return ds


@dataclass
class ScoreEntry:
    client_id: int
    raw_metric: float  # accuracy or mean cross-entropy on the probe set
    score: float  # oriented so that higher always means more trustworthy
    accepted: bool = False


def eval_update(
    params: np.ndarray, template: nn.MlpModel, probe: Dataset, metric: str
) -> float:
    """Score one candidate vector, read in the template's layout, on the
    synthetic probe set."""
    logits = nn.forward(template.with_params(params), probe.features)
    if metric == "accuracy":
        return float((logits.argmax(axis=1) == probe.labels).mean())
    if metric == "loss":
        loss, _ = nn.softmax_cross_entropy(logits, probe.labels)
        return loss
    raise ValueError(f"unknown metric {metric!r}")


def score_updates(
    candidates: Sequence[Tuple[int, np.ndarray]],
    template: nn.MlpModel,
    probe: Dataset,
    metric: str,
) -> List[ScoreEntry]:
    """Evaluate every (client_id, params) candidate, ordered by client id.

    Accuracy keeps its sign; loss is negated, so higher score is always
    better regardless of metric.  A NaN or infinite metric scores -inf.
    """
    entries = []
    for client_id, params in sorted(candidates, key=lambda c: c[0]):
        raw = eval_update(params, template, probe, metric)
        score = (raw if metric == "accuracy" else -raw) if math.isfinite(raw) else -math.inf
        entries.append(ScoreEntry(client_id, raw, score))
    return entries


def kmeans_1d_two(
    points: Sequence[Tuple[int, float]]
) -> Tuple[List[int], List[int]]:
    """Exact two-cluster split of scalar scores, minimizing within-cluster
    sum of squares.

    Sorts the points and scans every split position; with sorted data the
    optimal 2-means partition is always such a prefix/suffix split, so the
    scan is exhaustive.  WCSS ties break toward the split putting more
    members alongside the highest score (the smaller lower cluster).
    Returns (lower ids, upper ids).
    """
    if len(points) < 2:
        raise ValueError("need at least two points to cluster")
    order = sorted(points, key=lambda p: (p[1], p[0]))
    values = np.array([p[1] for p in order], dtype=np.float64)
    n = len(values)
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(values * values)])

    def wcss(lo: int, hi: int) -> float:
        # Sum of squared deviations of values[lo:hi] around their mean.
        s = prefix[hi] - prefix[lo]
        ss = prefix_sq[hi] - prefix_sq[lo]
        return ss - s * s / (hi - lo)

    best_split = 1
    best_cost = np.inf
    for split in range(1, n):
        cost = wcss(0, split) + wcss(split, n)
        if cost < best_cost - 1e-12 or (
            abs(cost - best_cost) <= 1e-12 and split < best_split
        ):
            best_cost = cost
            best_split = split
    lower = sorted(p[0] for p in order[:best_split])
    upper = sorted(p[0] for p in order[best_split:])
    return lower, upper


def filter_updates(
    entries: Sequence[ScoreEntry], policy: str, tau: float
) -> Set[int]:
    """Decide which client ids survive, marking entries in place.

    A non-finite score is rejected under every policy, and the others see
    only the finite scores:

    fixed:     keep scores strictly above the constant threshold tau.
    adaptive:  keep scores strictly above their mean.
    cluster:   exact two-means over scores; keep the cluster that contains
               the best-scoring client (so it is never rejected itself).
    adaptive and cluster keep a lone finite score.  Any policy rejects
    everyone when no score is finite; fixed and adaptive may reject
    everyone otherwise too.
    """
    if policy not in FILTER_KINDS:
        raise ValueError(f"unknown filter {policy!r}")
    finite = [e for e in entries if math.isfinite(e.score)]
    if policy == "fixed":
        accepted = {e.client_id for e in finite if e.score > tau}
    elif len(finite) < 2:
        accepted = {e.client_id for e in finite}
    elif policy == "adaptive":
        mean = sum(e.score for e in finite) / len(finite)
        accepted = {e.client_id for e in finite if e.score > mean}
    else:
        lower, upper = kmeans_1d_two([(e.client_id, e.score) for e in finite])
        best = max(finite, key=lambda e: (e.score, -e.client_id))
        accepted = set(upper if best.client_id in upper else lower)
    for e in entries:
        e.accepted = e.client_id in accepted
    return accepted
