"""Server-side aggregation rules over full client weight vectors.

Each rule maps a non-empty (n, d) matrix of candidate vectors, one row per
client in ascending client id, to a single parameter vector.  Sample counts
weight plain federated averaging only; every robust rule treats the rows
uniformly, and its ties break toward the lower row.  Duplicated rows are
legal and count with multiplicity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

AGGREGATOR_KINDS = (
    "fedavg",
    "coord_median",
    "trimmed_mean",
    "geometric_median",
    "multi_krum",
    "nnm_krum",
)

# geometric_median: Weiszfeld, then the Newton polish, each stop once a step
# moves less than the tolerance or after at most this many steps.
WEISZFELD_TOL = 1e-9
WEISZFELD_MAX_ITER = 1000


@dataclass
class AggregatorConfig:
    kind: str = "fedavg"
    beta: float = 0.1  # assumed compromised fraction for trimming / scoring

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator {self.kind!r}")
        if not 0.0 <= self.beta < 0.5:
            raise ValueError("beta must be in [0, 0.5)")


def fedavg(mat: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Sample-count-weighted mean: sum(|D_i| * w_i) / sum(|D_i|)."""
    weights = np.asarray(counts, dtype=np.float64)
    return (weights[:, None] * mat).sum(axis=0) / weights.sum()


def coord_median(mat: np.ndarray) -> np.ndarray:
    """Coordinate-wise median; even counts take the midpoint of the middle two."""
    return np.median(mat, axis=0)


def trimmed_mean(mat: np.ndarray, beta: float) -> np.ndarray:
    """Coordinate-wise mean after dropping the k = floor(beta*n) extremes per side."""
    n = mat.shape[0]
    k = int(math.floor(beta * n))
    if n - 2 * k < 1:
        raise ValueError(f"trimming {k} per side leaves no updates from n={n}")
    return np.sort(mat, axis=0)[k : n - k].mean(axis=0)


def geometric_objective(point: np.ndarray, mat: np.ndarray) -> float:
    """Sum of Euclidean distances from `point` to each row of `mat`."""
    return float(np.linalg.norm(mat - point, axis=1).sum())


def geometric_median(mat: np.ndarray) -> np.ndarray:
    """The Euclidean geometric median: the point with the least total
    distance to the rows, duplicates counted with multiplicity.

    The median lies in the affine hull of the distinct points, so the
    search runs in the at most n - 1 coordinates of that hull (a QR of the
    points' differences) and maps its result back.  It first tests every
    input point: one whose unit vectors to the other points sum to a norm
    strictly below its multiplicity is the median (Vardi & Zhang, 2000) and
    is returned as it is.  Otherwise Weiszfeld's iteration, in Vardi and
    Zhang's form for an iterate that lands on an input point, starts from
    the coordinate-wise mean and stops once a step moves less than
    WEISZFELD_TOL or after WEISZFELD_MAX_ITER steps.  Damped Newton steps
    under a backtracking line search then polish the result; they stop once
    a step moves less than WEISZFELD_TOL, no step lowers the objective or
    WEISZFELD_MAX_ITER steps have run.  The result never scores worse than
    the mean or the best input point.  An input holding inf or NaN gives
    the mean, which is not finite either.
    """
    mean = mat.mean(axis=0)
    if not np.isfinite(mat).all():
        return mean
    counts = Counter(row.tobytes() for row in mat)  # equal rows count once, weighted
    points = np.array([np.frombuffer(row) for row in counts])
    weight = np.array(list(counts.values()), dtype=np.float64)
    basis, _ = np.linalg.qr((points[1:] - points[0]).T)
    pts = (points - mean) @ basis  # hull coordinates; the mean is at 0
    diff = pts[None, :, :] - pts[:, None, :]  # [k, j]: from point k to point j
    dist = np.sqrt((diff * diff).sum(axis=2))
    pull = weight[None, :, None] * diff / np.where(dist > 0.0, dist, 1.0)[:, :, None]
    on = np.flatnonzero(np.linalg.norm(pull.sum(axis=1), axis=1) < weight)
    if on.size:
        return points[on[0]].copy()
    y = np.zeros(pts.shape[1])
    for _ in range(WEISZFELD_MAX_ITER):
        d = pts - y
        r = np.sqrt((d * d).sum(axis=1))
        if r.all():
            inv = weight / r
            step = inv @ d / inv.sum()
        else:  # on an input point: step off it only as far as that pays
            far = r > 0.0
            inv = weight[far] / r[far]
            push = inv @ d[far]
            step = push / inv.sum() * max(0.0, 1.0 - weight[~far].sum() / np.linalg.norm(push))
        y = y + step
        if math.sqrt(step @ step) < WEISZFELD_TOL:
            break
    y = _newton_polish(pts, weight, y)
    best = points[int(np.argmin(weight @ dist))]
    options = [mean + basis @ y, mean, best]
    return options[int(np.argmin([geometric_objective(x, mat) for x in options]))].copy()


def _newton_polish(pts: np.ndarray, weight: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Damped Newton steps on the weighted distance sum from `y`: each step
    is halved until it lowers the sum or moves less than WEISZFELD_TOL."""
    objective = lambda z: float(weight @ np.sqrt(((pts - z) ** 2).sum(axis=1)))  # noqa: E731
    value = objective(y)
    for _ in range(WEISZFELD_MAX_ITER):
        d = y - pts
        r = np.sqrt((d * d).sum(axis=1))
        if not r.all():  # no gradient on an input point
            break
        u, w = d / r[:, None], weight / r
        hess = np.eye(len(y)) * w.sum() - (u.T * w) @ u
        step = np.linalg.lstsq(hess, -(weight @ u), rcond=None)[0]
        while (trial := objective(y + step)) >= value and math.sqrt(step @ step) >= WEISZFELD_TOL:
            step *= 0.5
        if trial < value:
            y, value = y + step, trial
        if math.sqrt(step @ step) < WEISZFELD_TOL:
            break
    return y


def _krum_cap(n: int, beta: float) -> int:
    """Assumed compromised count M = ceil(beta * n)."""
    return int(math.ceil(beta * n))


def _krum_peers(n: int, beta: float) -> int:
    """Peers each multi-krum score sums over: n - M - 2."""
    return n - _krum_cap(n, beta) - 2


def min_updates(cfg: AggregatorConfig) -> int:
    """Fewest updates the configured rule can aggregate.

    The krum rules (nnm_krum ends in multi-krum) need at least one peer per
    score.  Every other rule takes any non-empty set: trimming
    floor(beta * n) < n / 2 per side always leaves an update.  The peer count
    never falls as n grows, so every larger set is aggregable too.
    """
    if cfg.kind not in ("multi_krum", "nnm_krum"):
        return 1
    n = 1
    while _krum_peers(n, cfg.beta) < 1:
        n += 1
    return n


def _pairwise_sq(mat: np.ndarray) -> np.ndarray:
    """[i, j]: the squared Euclidean distance between rows i and j, formed
    one row at a time, in O(n * d) memory."""
    return np.stack([((row - mat) ** 2).sum(axis=1) for row in mat])


def multi_krum_scores(mat: np.ndarray, beta: float) -> List[float]:
    """Per-row sum of squared distances to its n - M - 2 nearest peers."""
    n = mat.shape[0]
    closest = _krum_peers(n, beta)
    if closest < 1:
        raise ValueError(f"n={n}, beta={beta} leaves no peers to score against")
    sq = _pairwise_sq(mat)
    scores = []
    for i in range(n):
        others = np.delete(sq[i], i)
        scores.append(float(np.sort(others)[:closest].sum()))
    return scores


def multi_krum(mat: np.ndarray, beta: float) -> Tuple[Set[int], np.ndarray]:
    """Keep the n - ceil(beta*n) lowest-scoring rows and average them;
    returns the kept rows and their average.

    Score ties break toward the lower row.  The kept rows are averaged in
    score order.  The average is unweighted: selection already encodes the
    trust judgement, so sample counts do not get a second vote.
    """
    scores = multi_krum_scores(mat, beta)
    n = len(mat)
    chosen = sorted(range(n), key=lambda i: (scores[i], i))[: n - _krum_cap(n, beta)]
    return set(chosen), mat[chosen].mean(axis=0)


def nnm_mix(mat: np.ndarray, beta: float) -> np.ndarray:
    """Replace each row by the mean of its n - M nearest rows (itself included).

    Distance ties break toward the lower row.
    """
    n = mat.shape[0]
    neighborhood = n - _krum_cap(n, beta)
    if neighborhood < 1:
        raise ValueError(f"n={n}, beta={beta} leaves an empty neighborhood")
    nearest = np.argsort(_pairwise_sq(mat), axis=1, kind="stable")[:, :neighborhood]
    return np.stack([mat[rows].mean(axis=0) for rows in nearest])


def nnm_krum(mat: np.ndarray, beta: float) -> Tuple[Set[int], np.ndarray]:
    """Nearest-neighbor mixing followed by multi-krum on the mixed rows."""
    return multi_krum(nnm_mix(mat, beta), beta)


def aggregate(mat: np.ndarray, cfg: AggregatorConfig, counts: Sequence[int]) -> np.ndarray:
    """Dispatch to the configured rule and return the new global vector.

    `mat` holds one candidate vector per row, in ascending client id, and
    `counts` each row's sample count, which only fedavg reads."""
    if len(mat) == 0:
        raise ValueError("no updates to aggregate")
    if cfg.kind == "fedavg":
        return fedavg(mat, counts)
    if cfg.kind == "coord_median":
        return coord_median(mat)
    if cfg.kind == "trimmed_mean":
        return trimmed_mean(mat, cfg.beta)
    if cfg.kind == "geometric_median":
        return geometric_median(mat)
    if cfg.kind == "multi_krum":
        return multi_krum(mat, cfg.beta)[1]
    if cfg.kind == "nnm_krum":
        return nnm_krum(mat, cfg.beta)[1]
    raise ValueError(f"unknown aggregator {cfg.kind!r}")
