"""Seeded property tests of whole runs over small cells.

Each example is a cell of at most 3 rounds and 8 clients, with at most 30
generator iterations and 9 probe samples per class, drawn over every
attack x filter x aggregator x metric.  A sign flip or label flip may
scale by 1e200, which overflows the logits.  Every run must complete,
accept only sampled clients, never accept a candidate whose score is not
finite, keep a finite global vector, and emit the same bytes when it runs
again.  Under the adaptive and cluster filters a round with no attacker
sampled accepts someone; the fixed filter's constant threshold may reject
honest candidates too.
"""

import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bfl import defense, orchestrator
from bfl.aggregators import AGGREGATOR_KINDS, AggregatorConfig, min_updates
from bfl.attacks import ATTACK_KINDS
from bfl.config import config_from_dict
from bfl.defense import FILTER_KINDS, METRIC_KINDS

COMBOS = list(itertools.product(ATTACK_KINDS, FILTER_KINDS, AGGREGATOR_KINDS, METRIC_KINDS))


def make_cell(kind, policy, aggregator, metric, seed=0, rounds=2, clients=6, sampled=None,
              epochs=1, batch=8, epsilon=0.3, gamma=None, q=5, gen_max_iter=20):
    attack = {"kind": kind, "epsilon": epsilon}
    if gamma is not None and kind in ("sign_flip", "label_flip"):
        attack["gamma"] = gamma
    return {
        "seed": seed,
        "rounds": rounds,
        "clients": clients,
        "sampled_per_round": sampled or clients,
        "local_epochs": epochs,
        "batch": batch,
        "hidden_dims": [8],
        "dataset": {"per_class": 24},
        "attack": attack,
        "aggregator": {"kind": aggregator},
        # Loss scores are at most 0, so the fixed filter's threshold is below.
        "defense": {"filter": policy, "metric": metric, "q": q, "gen_max_iter": gen_max_iter,
                    **({"tau": -1.0} if (policy, metric) == ("fixed", "loss") else {})},
    }


@st.composite
def cells(draw):
    combo = draw(st.sampled_from(COMBOS))
    clients = draw(st.integers(4, 8))
    return make_cell(
        *combo,
        seed=draw(st.integers(0, 1000)),
        rounds=draw(st.integers(1, 3)),
        clients=clients,
        sampled=draw(st.integers(min_updates(AggregatorConfig(combo[2])), clients)),
        epochs=draw(st.integers(1, 2)),
        batch=draw(st.sampled_from([8, 64])),
        epsilon=draw(st.sampled_from([0.0, 0.3, 0.6])),
        gamma=draw(st.sampled_from([None, 1e200])),
        q=draw(st.integers(1, 9)),
        gen_max_iter=draw(st.integers(1, 30)),
    )


def every_combo(test):
    """Run `test` on one cell of every combination first, one in two of
    them with a sign or label flip by 1e200."""
    for k, combo in enumerate(COMBOS):
        test = example(cell=make_cell(*combo, seed=k, gamma=1e200 if k % 2 else None))(test)
    return test


def _emitted_bytes(report, out_dir):
    return [Path(path).read_bytes() for path in orchestrator.emit_report(report, out_dir, "cell")]


@settings(max_examples=40)
@every_combo
# An accuracy of 1/C once scored the NaN models of this cell as finite,
# and the cluster filter accepted them.
@example(cell=make_cell("sign_flip", "cluster", "fedavg", "accuracy", seed=1, rounds=3, gamma=1e200))
# Honest candidates tie on accuracy here, and adaptive once rejected them all.
@example(cell=make_cell("none", "adaptive", "fedavg", "accuracy", seed=2, rounds=3, epsilon=0.0))
@given(cell=cells())
def test_small_defended_cells(cell):
    cfg = config_from_dict(cell)
    schedule = orchestrator.Schedule.build(cfg)
    decisions, finite = [], []
    filter_updates, evaluate_global = defense.filter_updates, orchestrator.evaluate_global

    def spy_filter(scores, *args):
        kept = filter_updates(scores, *args)
        decisions.append((scores, kept))
        return kept

    def spy_evaluate(params, *args):
        finite.append(bool(np.isfinite(params).all()))
        return evaluate_global(params, *args)

    with mock.patch.object(defense, "filter_updates", spy_filter), \
            mock.patch.object(orchestrator, "evaluate_global", spy_evaluate):
        report = orchestrator.run_experiment(cfg, schedule)
    assert len(report.rounds) == len(decisions) == cfg.rounds
    assert finite == [True] * cfg.rounds
    for rec, (sampled, _), (scores, kept) in zip(report.rounds, schedule.rounds, decisions):
        assert rec.accepted == [sampled[r] for r in kept]
        assert sorted(rec.accepted + rec.rejected) == list(sampled)
        assert np.isfinite(scores[kept]).all()
        if cfg.defense.filter != "fixed" and not rec.malicious_sampled:
            assert len(kept)
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as again:
        assert _emitted_bytes(report, first) == _emitted_bytes(
            orchestrator.run_experiment(cfg), again
        )
