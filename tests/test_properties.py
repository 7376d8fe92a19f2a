"""Seeded property tests of whole runs over small cells.

Each example is a cell of at most 3 rounds and 8 clients, with at most 30
generator iterations and 9 probe samples per class, drawn over every
attack x filter x aggregator x metric.  Any attack may take `gamma` 1e200:
a sign flip or label flip by 1e200 overflows the logits, random_noise's
noise has that standard deviation, and ipm's payload that scale.  Every
run must complete, accept only sampled clients, never accept a candidate
whose score is not finite, keep a finite global vector, and emit the same
bytes when it runs again, and a round with no attacker sampled must
accept someone.

A second test writes small IDX sets, some of them broken, and checks that
each one is either refused at load or runs a defended round.
"""

import itertools
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bfl import defense, orchestrator
from bfl.aggregators import AGGREGATOR_KINDS, AggregatorConfig, min_updates
from bfl.attacks import ATTACK_KINDS
from bfl.config import ConfigError, config_from_dict
from bfl.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from bfl.defense import FILTER_KINDS, METRIC_KINDS

COMBOS = list(itertools.product(ATTACK_KINDS, FILTER_KINDS, AGGREGATOR_KINDS, METRIC_KINDS))


def make_cell(kind, policy, aggregator, metric, seed=0, rounds=2, clients=6, sampled=None,
              epochs=1, batch=8, epsilon=0.3, gamma=None, q=5, gen_max_iter=20):
    attack = {"kind": kind, "epsilon": epsilon}
    if gamma is not None and kind != "none":
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
        "defense": {"filter": policy, "metric": metric, "q": q, "gen_max_iter": gen_max_iter},
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
    them with `gamma` 1e200 (but for the attack `none`)."""
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
        if not rec.malicious_sampled:
            assert len(kept)
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as again:
        assert _emitted_bytes(report, first) == _emitted_bytes(
            orchestrator.run_experiment(cfg), again
        )


IDX_MAGIC = {"images": IDX_IMAGE_MAGIC, "labels": IDX_LABEL_MAGIC}
IDX_NAMES = ("train_images", "train_labels", "test_images", "test_labels")


def idx_files(train, test):
    """The four files of an IDX set as bytes, from `train` and `test`, each
    (images, rows, cols, labels)."""
    files = {}
    for split, (count, rows, cols, labels) in (("train", train), ("test", test)):
        pixels = bytes(7 * i % 256 for i in range(count * rows * cols))
        files[f"{split}_images"] = struct.pack(">IIII", IDX_MAGIC["images"], count, rows, cols) + pixels
        files[f"{split}_labels"] = struct.pack(">II", IDX_MAGIC["labels"], len(labels)) + bytes(labels)
    return files


@st.composite
def idx_sets(draw):
    """An IDX set of 0-12 images of 0-4 x 0-4 pixels a split, labelled 0-4,
    and at most one fault: test images of a drawn shape, a label file of a
    drawn count, a file cut short or one with the other kind's magic."""
    side = st.integers(0, 4) | st.integers(1, 4)  # a side of 0 in one draw of ten
    shape = (draw(side), draw(side))
    splits = []
    for _ in range(2):  # train, test
        count = draw(st.integers(0, 12))
        splits.append([count, *shape, draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))])
    fault = draw(st.sampled_from([None, None, None, "shape", "labels", "truncated", "magic"]))
    name = draw(st.sampled_from(IDX_NAMES))
    split = splits[name.startswith("test")]
    if fault == "shape":
        split[1:3] = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    elif fault == "labels":
        split[3] = draw(st.lists(st.integers(0, 4), max_size=12))
    files = idx_files(*splits)
    if fault == "truncated":
        files[name] = files[name][: -draw(st.integers(1, len(files[name])))]
    elif fault == "magic":
        other = IDX_MAGIC["labels" if name.endswith("images") else "images"]
        files[name] = struct.pack(">I", other) + files[name][4:]
    return files


def idx_cell(clients, policy):
    return {"rounds": 1, "clients": clients, "sampled_per_round": clients, "local_epochs": 1,
            "batch": 8, "hidden_dims": [4], "defense": {"filter": policy, "q": 2, "gen_max_iter": 5}}


@settings(max_examples=100)
# Images of 0 columns, and test images of another shape: both once passed
# the load and then died in round 1.
@example(files=idx_files((12, 28, 0, [0, 1, 2] * 4), (6, 28, 0, [0, 1, 2] * 2)),
         cell=idx_cell(4, "adaptive"))
@example(files=idx_files((12, 4, 4, [0, 1, 2] * 4), (6, 2, 2, [0, 1, 2] * 2)),
         cell=idx_cell(4, "cluster"))
@given(files=idx_sets(), cell=st.builds(idx_cell, st.integers(1, 3), st.sampled_from(FILTER_KINDS)))
def test_every_idx_set_that_loads_runs(files, cell):
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in files.items():
            Path(tmp, name).write_bytes(blob)
        cell = {**cell, "dataset": {"kind": "idx", **{name: str(Path(tmp, name)) for name in files}}}
        try:
            cfg = config_from_dict(cell)
        except ConfigError:
            return
        report = orchestrator.run_experiment(cfg)
        assert len(report.rounds) == 1
        for path in orchestrator.emit_report(report, tmp, "cell"):
            assert Path(path).stat().st_size
