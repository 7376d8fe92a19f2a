"""Independent reference implementations for cross-checking the fast paths.

Everything here favors obviousness over speed: explicit Python loops and
exhaustive scans.  `rule_mismatches` is the one equivalence suite for the
robust aggregation rules: it draws the random cases and compares each rule
with its oracle.  Acceptance criteria 4 and 5 run it, and so does the
command line (`bfl oracle <rule>`), so the equivalence evidence can be
regenerated outside the test suite.  The oracles that only tests use (the
network core's, the generator fit, the two-means split and the IPM
line-search objective) live with the tests.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Set, Tuple

import numpy as np

from . import aggregators

ORACLE_RULES = ("multi_krum", "nnm_krum", "coord_median", "trimmed_mean", "geometric_median")


def brute_force_multi_krum(
    vectors: Sequence[np.ndarray], ids: Sequence[int], beta: float
) -> Tuple[Set[int], np.ndarray]:
    """Literal transcription of the scoring rule, loops only."""
    n = len(vectors)
    m_cap = math.ceil(beta * n)
    closest = n - m_cap - 2
    assert closest >= 1
    scores = []
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            d = 0.0
            for x, y in zip(vectors[i], vectors[j]):
                d += (x - y) ** 2
            dists.append(d)
        dists.sort()
        scores.append(sum(dists[:closest]))
    ranked = sorted(range(n), key=lambda i: (scores[i], ids[i]))
    chosen = ranked[: n - m_cap]
    avg = np.zeros_like(vectors[0])
    for i in chosen:
        avg = avg + vectors[i]
    return {ids[i] for i in chosen}, avg / len(chosen)


def brute_force_nnm_mix(
    vectors: Sequence[np.ndarray], ids: Sequence[int], beta: float
) -> List[np.ndarray]:
    """Per-update nearest-neighbor means (self included), loops only."""
    n = len(vectors)
    keep = n - math.ceil(beta * n)
    assert keep >= 1
    mixed = []
    for i in range(n):
        dists = []
        for j in range(n):
            d = 0.0
            for x, y in zip(vectors[i], vectors[j]):
                d += (x - y) ** 2
            dists.append((d, ids[j], j))
        dists.sort()
        sel = [j for _, _, j in dists[:keep]]
        avg = np.zeros_like(vectors[0])
        for j in sel:
            avg = avg + vectors[j]
        mixed.append(avg / keep)
    return mixed


def sort_based_median(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Per-coordinate median via an explicit sort of Python floats."""
    n = len(vectors)
    dim = vectors[0].size
    out = np.zeros(dim)
    for d in range(dim):
        col = sorted(float(v[d]) for v in vectors)
        mid = n // 2
        out[d] = col[mid] if n % 2 else 0.5 * (col[mid - 1] + col[mid])
    return out


def sort_based_trimmed_mean(vectors: Sequence[np.ndarray], beta: float) -> np.ndarray:
    """Per-coordinate trimmed mean via an explicit sort-and-slice."""
    n = len(vectors)
    k = math.floor(beta * n)
    assert n - 2 * k >= 1
    dim = vectors[0].size
    out = np.zeros(dim)
    for d in range(dim):
        col = sorted(float(v[d]) for v in vectors)
        kept = col[k : n - k]
        out[d] = sum(kept) / len(kept)
    return out


def grid_search_geometric_median(
    points: np.ndarray, levels: int = 12, cells: int = 40
) -> Tuple[np.ndarray, float]:
    """Refined 2-D grid search for the minimum total Euclidean distance.

    Starts on the padded bounding box of the points and zooms in around the
    best grid point.  The zoom window spans four cells on each side: near a
    degenerate minimum the valley floor is a slanted cone, so the best
    sampled point can sit a few cells sideways of the true argmin, and a
    tighter window can zoom right past it.  The input points themselves are
    also evaluated, because the median of a spread-out triangle is exactly
    its middle vertex and no grid point hits a vertex exactly.
    """
    assert points.shape[1] == 2

    def objective(x, y):
        return float(np.hypot(points[:, 0] - x, points[:, 1] - y).sum())

    lo = points.min(axis=0) - 1.0
    hi = points.max(axis=0) + 1.0
    best_xy = (0.0, 0.0)
    best = np.inf
    for x, y in points:
        val = objective(x, y)
        if val < best:
            best = val
            best_xy = (x, y)
    for _ in range(levels):
        xs = np.linspace(lo[0], hi[0], cells + 1)
        ys = np.linspace(lo[1], hi[1], cells + 1)
        for x in xs:
            for y in ys:
                val = objective(x, y)
                if val < best:
                    best = val
                    best_xy = (x, y)
        step = np.array([xs[1] - xs[0], ys[1] - ys[0]])
        lo = np.array(best_xy) - 4.0 * step
        hi = np.array(best_xy) + 4.0 * step
    return np.array(best_xy), best


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.allclose(got, want, rtol=1e-12, atol=0.0))


def _case_matches(rule: str, rng: np.random.Generator) -> bool:
    """Draw one random case for `rule` and compare the rule with its oracle.

    beta is one of 0.1, 0.2, 0.3; n runs from the rule's smallest aggregable
    set (at least 2) to 9; vectors have 1-5 standard normal coordinates and
    sample counts 1-49.  geometric_median takes 2-D points scaled by
    U(0.5, 3), since its grid oracle is 2-D.  The rules are looked up on the
    `aggregators` module at call time, so a replaced rule is what gets checked.
    """
    beta = float(rng.choice([0.1, 0.2, 0.3]))
    cfg = aggregators.AggregatorConfig(rule, beta)
    low = max(2, aggregators.min_updates(cfg))
    n = int(rng.integers(low, 10))
    if rule == "geometric_median":
        mat = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3.0)
    else:
        mat = rng.standard_normal((n, int(rng.integers(1, 6))))
    updates = [
        aggregators.ClientUpdate(i, row, int(rng.integers(1, 50))) for i, row in enumerate(mat)
    ]
    vectors = list(mat)
    ids = list(range(n))
    if rule == "multi_krum":
        got_ids, got = aggregators.multi_krum(updates, beta)
        want_ids, want = brute_force_multi_krum(vectors, ids, beta)
        return got_ids == want_ids and _close(got, want)
    if rule == "nnm_krum":
        mixed = aggregators.nnm_mix(updates, beta)
        want_mixed = brute_force_nnm_mix(vectors, ids, beta)
        if not all(_close(m.params, w) for m, w in zip(mixed, want_mixed)):
            return False
        got_ids, got = aggregators.nnm_krum(updates, beta)
        want_ids, want = brute_force_multi_krum([m.params for m in mixed], ids, beta)
        return got_ids == want_ids and _close(got, want)
    if rule == "coord_median":
        return bool(np.array_equal(aggregators.coord_median(updates), sort_based_median(vectors)))
    if rule == "trimmed_mean":
        return _close(aggregators.trimmed_mean(updates, beta), sort_based_trimmed_mean(vectors, beta))
    found = aggregators.geometric_median(updates, cfg.weiszfeld_tol, cfg.weiszfeld_max_iter)
    _, want_objective = grid_search_geometric_median(mat)
    return abs(aggregators.geometric_objective(found, mat) - want_objective) <= 1e-6


def rule_mismatches(rule: str, cases: int, seed: int) -> List[int]:
    """Indices of the cases, of `cases` drawn from `seed`, where a robust rule
    and its oracle disagree.

    Krum id sets must be equal and coord_median exactly equal; every other
    vector must agree to a relative 1e-12, and the Weiszfeld objective must
    be within 1e-6 of the refined grid's.  nnm_krum checks its mixed vectors
    first, then multi-krum over them.
    """
    if rule not in ORACLE_RULES:
        raise ValueError(f"no oracle for {rule!r}")
    rng = np.random.default_rng(seed)
    return [case for case in range(cases) if not _case_matches(rule, rng)]
