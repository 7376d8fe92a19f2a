"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS/FAIL line with the
measured values (run pytest with -rA or -s to see the lines for passing
tests).  The experiment cells all use the pinned desk-scale scenario: three
gaussian blobs on a 12-dimensional input (class signal in the first two
axes), 20 clients, 10 sampled per round, 30 rounds, 5 local epochs, and a
near-iid dirichlet partition.  Heavy runs are cached at module level and
shared between criteria, so running this file executes each cell once.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from bfl import attacks, defense, nn, oracles, orchestrator, rng
from bfl.aggregators import AggregatorConfig, ClientUpdate, geometric_median
from bfl.config import config_from_dict
from bfl.data import Dataset
from bfl.defense import ScoreEntry, filter_updates, kmeans_1d_two
from bfl.orchestrator import compute_tpr_tnr, emit_report, run_experiment

import nn_oracles

SEED = 42
GAMMA_GRID = attacks.AttackConfig().gamma_grid


def acceptance_config(attack="none", filt=None, seed=SEED, alpha=100.0):
    obj = {
        "seed": seed,
        "rounds": 30,
        "clients": 20,
        "sampled_per_round": 10,
        "local_epochs": 5,
        "batch": 128,
        "hidden_dims": [16, 16],
        "sgd": {"learning_rate": 0.01, "momentum": 0.9, "weight_decay": 1e-4},
        "dataset": {"kind": "toy", "num_classes": 3, "per_class": 300,
                    "radius": 3.0, "spread": 0.6, "dims": 12},
        "partition": {"alpha": alpha},
        "attack": {"kind": attack, "epsilon": 0.3 if attack != "none" else 0.0},
        "aggregator": {"kind": "fedavg"},
        "defense": {"filter": filt, "metric": "loss"} if filt else None,
    }
    return config_from_dict(obj)


_runs = {}


def cell(attack="none", filt=None, seed=SEED, alpha=100.0):
    key = (attack, filt, seed, alpha)
    if key not in _runs:
        _runs[key] = run_experiment(acceptance_config(attack, filt, seed, alpha))
    return _runs[key]


def verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_defense_restores_accuracy():
    started = time.perf_counter()
    benign = cell()
    poisoned = cell("sign_flip")
    adaptive = cell("sign_flip", "adaptive")
    cluster = cell("sign_flip", "cluster")
    wall = time.perf_counter() - started
    accs = (benign.final_acc, poisoned.final_acc, adaptive.final_acc, cluster.final_acc)
    ok = (
        accs[0] >= 0.95
        and accs[1] <= 0.55
        and accs[2] >= 0.90
        and accs[3] >= 0.90
        and wall <= 120.0
    )
    verdict(
        1,
        ok,
        f"benign={accs[0]:.3f} (>=0.95) flip+fedavg={accs[1]:.3f} (<=0.55) "
        f"flip+adaptive={accs[2]:.3f} flip+cluster={accs[3]:.3f} (>=0.90) "
        f"wall={wall:.1f}s (<=120)",
    )


def test_criterion_2_detection_rates_per_attack():
    rows = []
    ok = True
    for attack in ("random_noise", "sign_flip", "label_flip", "ipm"):
        for filt in ("adaptive", "cluster"):
            report = cell(attack, filt)
            assert any(r.malicious_sampled for r in report.rounds)
            ok = ok and report.mean_tpr >= 0.95 and report.mean_tnr >= 0.80
            rows.append(f"{attack}/{filt}:tpr={report.mean_tpr:.2f},tnr={report.mean_tnr:.2f}")
    verdict(2, ok, " ".join(rows) + " (tpr>=0.95, tnr>=0.80)")


def test_criterion_3_generator_effort_tracks_heterogeneity():
    means = {}
    rhos = []
    for alpha in (0.1, 100.0):
        per_seed = []
        for seed in range(5):
            report = cell("none", "adaptive", seed=seed, alpha=alpha)
            iters = [r.gan_iters for r in report.rounds]
            per_seed.append(float(np.mean(iters)))
            if alpha == 100.0:
                rho, _ = spearmanr(iters, [r.round for r in report.rounds])
                rhos.append(float(rho))
        means[alpha] = float(np.mean(per_seed))
    ok = means[0.1] > means[100.0] and all(r < 0.0 for r in rhos)
    verdict(
        3,
        ok,
        f"mean_gen_iters alpha=0.1: {means[0.1]:.1f} > alpha=100: {means[100.0]:.1f}; "
        f"spearman(iters, round) at alpha=100 in [{min(rhos):.2f}, {max(rhos):.2f}] (<0)",
    )


def test_criterion_4_robust_rules_match_brute_force():
    rules = ("multi_krum", "nnm_krum", "coord_median", "trimmed_mean")
    bad = {rule: oracles.rule_mismatches(rule, 100, seed=7) for rule in rules}
    verdict(
        4,
        not any(bad.values()),
        ", ".join(f"{rule} {100 - len(cases)}/100" for rule, cases in bad.items())
        + " match their loops-only oracles",
    )


def test_criterion_5_weiszfeld_matches_grid_search():
    bad = oracles.rule_mismatches("geometric_median", 20, seed=11)
    triangle = [
        ClientUpdate(0, np.array([0.0, 0.0]), 1),
        ClientUpdate(1, np.array([1.0, 0.0]), 1),
        ClientUpdate(2, np.array([0.5, np.sqrt(3.0) / 2.0]), 1),
    ]
    cfg = AggregatorConfig("geometric_median")
    center = geometric_median(triangle, cfg.weiszfeld_tol, cfg.weiszfeld_max_iter)
    tri_ok = np.allclose(center, [0.5, 0.28868], atol=1e-3)
    verdict(
        5,
        not bad and tri_ok,
        f"objective within 1e-6 of the refined grid on {20 - len(bad)}/20 cases; "
        f"equilateral triangle -> ({center[0]:.5f}, {center[1]:.5f})",
    )


def _relu_margin(model, batch):
    margin = np.inf
    _, trace = nn.forward_cached(model, batch)
    for layer, z in zip(model.layers, trace.z):
        if layer.activation == "relu":
            margin = min(margin, float(np.abs(z).min()))
    return margin


def test_criterion_6_gradient_check():
    gen = np.random.default_rng(13)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < 20:
        attempts += 1
        assert attempts < 400, "could not find enough kink-free draws"
        depth = int(gen.integers(1, 4))
        dims = [int(gen.integers(2, 6))]
        dims += [int(gen.integers(2, 7)) for _ in range(depth)]
        dims.append(int(gen.integers(2, 5)))
        model = nn.init_mlp(dims, "relu", gen)
        batch = gen.standard_normal((int(gen.integers(2, 8)), dims[0]))
        labels = gen.integers(0, dims[-1], size=batch.shape[0])
        # finite differences straddle the relu kink when a unit's input is
        # within the step of zero; those draws are invalid checks, not bugs
        if _relu_margin(model, batch) < 1e-3:
            continue
        checked += 1
        _, flat = nn.backward(model, batch, labels)
        fd = nn_oracles.central_difference_grads(model, batch, labels)
        worst = max(worst, np.abs(flat - fd).max() / max(np.abs(fd).max(), 1e-12))
    verdict(6, worst < 1e-4, f"worst relative gradient error {worst:.2e} over 20 nets (<1e-4)")


def _ssd(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(((arr - arr.mean()) ** 2).sum()) if arr.size else 0.0


def test_criterion_7_filters_match_their_definitions():
    gen = np.random.default_rng(17)
    cluster_ok = adaptive_ok = fixed_ok = 0
    for case in range(50):
        n = int(gen.integers(2, 13))
        scores = gen.standard_normal(n) * float(gen.uniform(0.1, 3.0))
        if case % 3 == 0 and n >= 4:
            scores[: n // 2] += 10.0
        lower, upper = kmeans_1d_two(list(enumerate(scores)))
        got_cost = _ssd(scores[lower]) + _ssd(scores[upper])
        _, want_cost = nn_oracles.exhaustive_min_wcss_split(scores)
        if abs(got_cost - want_cost) <= 1e-9 and sorted(lower + upper) == list(range(n)):
            cluster_ok += 1

        entries = [ScoreEntry(i, s, s) for i, s in enumerate(scores)]
        got_adaptive = filter_updates(entries, "adaptive", 0.0)
        if got_adaptive == {i for i, s in enumerate(scores) if s > np.mean(scores)}:
            adaptive_ok += 1
        tau = float(gen.uniform(-1.0, 1.0))
        got_fixed = filter_updates(entries, "fixed", tau)
        if got_fixed == {i for i, s in enumerate(scores) if s > tau}:
            fixed_ok += 1
    ok = cluster_ok == 50 and adaptive_ok == 50 and fixed_ok == 50
    verdict(
        7,
        ok,
        f"cluster wcss {cluster_ok}/50 match exhaustive split, "
        f"adaptive {adaptive_ok}/50, fixed {fixed_ok}/50 match set-builder forms",
    )


def test_criterion_8_ipm_line_search_attains_grid_max():
    gen = np.random.default_rng(19)
    ok_cases = 0
    for _ in range(20):
        dims = [int(gen.integers(2, 5)), int(gen.integers(3, 7)), int(gen.integers(2, 4))]
        model = nn.init_mlp(dims, "relu", gen)
        vec = model.params
        estimate = gen.standard_normal(vec.size) * 0.1
        feats = gen.standard_normal((12, dims[0]))
        labels = gen.integers(0, dims[-1], size=12)
        proxy = Dataset(feats, labels, dims[-1])
        n_sampled = int(gen.integers(4, 11))
        n_bad = int(gen.integers(1, n_sampled))
        gamma_star, losses = attacks.ipm_line_search(
            vec, model, estimate, proxy, GAMMA_GRID, n_sampled, n_bad
        )
        want = nn_oracles.surrogate_loss_per_gamma(
            vec, model, estimate, feats, labels, GAMMA_GRID, n_sampled, n_bad
        )
        at_star = losses[GAMMA_GRID.index(gamma_star)]
        if np.allclose(losses, want, rtol=1e-9) and at_star == max(losses):
            ok_cases += 1
    verdict(8, ok_cases == 20, f"{ok_cases}/20 cases: gamma* attains the grid max loss")


def test_criterion_9_reports_are_reproducible(tmp_path):
    first = cell("sign_flip", "adaptive")
    second = run_experiment(acceptance_config("sign_flip", "adaptive"))
    paths_a = emit_report(first, str(tmp_path / "a"), "cell")
    paths_b = emit_report(second, str(tmp_path / "b"), "cell")
    identical = all(
        open(pa, "rb").read() == open(pb, "rb").read()
        for pa, pb in zip(paths_a, paths_b)
    )
    import json

    payload = json.loads(open(paths_a[1]).read())
    recomputed = True
    for row in payload["rounds"]:
        sampled = set(row["accepted"]) | set(row["rejected"])
        tpr, tnr = compute_tpr_tnr(
            sampled, set(row["accepted"]), set(row["malicious_sampled"])
        )
        recomputed = recomputed and row["tpr"] == tpr and row["tnr"] == tnr
    verdict(
        9,
        identical and recomputed,
        f"csv+json byte-identical across reruns: {identical}; "
        f"tpr/tnr re-derived from id columns match: {recomputed}",
    )
