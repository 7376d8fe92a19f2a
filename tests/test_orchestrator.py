import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nn_oracles
from bfl import attacks, defense, nn, orchestrator, rng
from bfl.cli import main
from bfl.config import (
    ConfigError,
    DefenseConfig,
    ExperimentConfig,
    IdxDatasetSpec,
    config_from_dict,
    load_json,
)
from bfl.data import Dataset, make_toy_blobs, polygon_centers


def small_config(**overrides):
    base = {
        "seed": 5,
        "rounds": 2,
        "clients": 5,
        "sampled_per_round": 3,
        "local_epochs": 1,
        "batch": 64,
        "hidden_dims": [8],
        "dataset": {"kind": "toy", "per_class": 24},
    }
    base.update(overrides)
    return config_from_dict(base)


# ---------------------------------------------------------------- tpr/tnr


def test_tpr_tnr_basic_counts():
    sampled = {0, 1, 2, 3, 4, 5, 6, 7}
    malicious = {0, 1, 2, 3}
    accepted = {3, 4, 5, 6, 7}  # one bad slips through, all good kept
    tpr, tnr = orchestrator.compute_tpr_tnr(sampled, accepted, malicious)
    assert tpr == 0.75
    assert tnr == 1.0


def test_tpr_tnr_good_rejected():
    tpr, tnr = orchestrator.compute_tpr_tnr({0, 1, 2, 3}, {0}, {2, 3})
    assert tpr == 1.0
    assert tnr == 0.5


def test_tpr_convention_no_malicious_sampled():
    tpr, tnr = orchestrator.compute_tpr_tnr({0, 1}, {0, 1}, {5})
    assert tpr == 0.0
    assert tnr == 1.0


def test_tnr_convention_all_malicious():
    tpr, tnr = orchestrator.compute_tpr_tnr({0, 1}, set(), {0, 1})
    assert tpr == 1.0
    assert tnr == 1.0


def test_accepted_must_be_sampled():
    with pytest.raises(ValueError):
        orchestrator.compute_tpr_tnr({0, 1}, {2}, set())


# ---------------------------------------------------------- local training


def shard_fixture():
    data = make_toy_blobs(3, 3, 20, polygon_centers(3, 3.0), 0.5, 2)
    return data


def test_local_training_shapes():
    shard = shard_fixture()
    model = nn.init_mlp([2, 8, 3], "relu", rng.substream(0, rng.MODEL_INIT))
    vec = model.params
    [delta] = orchestrator.local_training(
        [shard], model, vec, nn.SgdConfig(), epochs=1, batch=16,
        plan=orchestrator.batch_plan([len(shard)], [rng.substream(0, rng.CLIENT_TRAIN, 1, 0)], 1, 16),
    )
    assert delta.shape == vec.shape
    assert np.all(np.isfinite(delta))
    assert np.linalg.norm(delta) > 0.0


def test_local_training_deterministic():
    shard = shard_fixture()
    model = nn.init_mlp([2, 8, 3], "relu", rng.substream(0, rng.MODEL_INIT))
    vec = model.params
    out = []
    for _ in range(2):
        [delta] = orchestrator.local_training(
            [shard], model, vec, nn.SgdConfig(), epochs=2, batch=16,
            plan=orchestrator.batch_plan([len(shard)], [rng.substream(9, rng.CLIENT_TRAIN, 4, 2)], 2, 16),
        )
        out.append(delta)
    np.testing.assert_array_equal(out[0], out[1])


def test_local_training_reduces_loss():
    shard = shard_fixture()
    model = nn.init_mlp([2, 8, 3], "relu", rng.substream(1, rng.MODEL_INIT))
    vec = model.params
    [delta] = orchestrator.local_training(
        [shard], model, vec, nn.SgdConfig(learning_rate=0.05), epochs=10, batch=60,
        plan=orchestrator.batch_plan([len(shard)], [rng.substream(1, rng.CLIENT_TRAIN, 1, 0)], 10, 60),
    )
    before, _ = nn.softmax_cross_entropy(nn.forward(model, shard.features), shard.labels)
    trained = model.with_params(vec + delta)
    after, _ = nn.softmax_cross_entropy(nn.forward(trained, shard.features), shard.labels)
    assert after < before


def test_local_training_batch_clamps_to_shard():
    shard = shard_fixture()
    model = nn.init_mlp([2, 8, 3], "relu", rng.substream(0, rng.MODEL_INIT))
    vec = model.params
    [big] = orchestrator.local_training(
        [shard], model, vec, nn.SgdConfig(), 1, 10_000,
        orchestrator.batch_plan([len(shard)], [rng.substream(0, rng.CLIENT_TRAIN, 1, 0)], 1, 10_000),
    )
    [exact] = orchestrator.local_training(
        [shard], model, vec, nn.SgdConfig(), 1, 60,
        orchestrator.batch_plan([len(shard)], [rng.substream(0, rng.CLIENT_TRAIN, 1, 0)], 1, 60),
    )
    np.testing.assert_array_equal(big, exact)


SHARD_ROWS = st.one_of(st.integers(1, 4), st.integers(1, 300))


@settings(max_examples=40)
@given(
    shards=st.lists(st.tuples(SHARD_ROWS, st.booleans()), min_size=1, max_size=8),
    batch=st.integers(1, 128),
    epochs=st.integers(1, 3),
)
@example(shards=[(1, False), (2, True), (1, False), (30, False), (300, True)], batch=16, epochs=2)
# At the third step, the 5- and 37-row shards both take a 5-row batch and
# the 32-row shard, between them in size, takes 16 rows.
@example(shards=[(37, False), (5, False), (32, True)], batch=16, epochs=3)
def test_lockstep_matches_one_client_at_a_time(shards, batch, epochs):
    # Shards of 1-300 rows, some with rotated labels, give one-row batches
    # next to taller ones, ragged last batches and clients that finish early.
    parent = make_toy_blobs(4, 3, 200, polygon_centers(3, 3.0), 0.6, 12)
    draw = np.random.default_rng(len(shards) * 1000 + batch)
    clients = []
    for k, (size, flip) in enumerate(shards):
        idx = np.sort(draw.choice(len(parent), size, replace=False))
        client = Dataset(parent.features[idx], parent.labels[idx], parent.num_classes)
        clients.append(attacks.rotate_labels(client) if flip else client)
    model = nn.init_mlp([12, 16, 16, 3], "relu", rng.substream(3, rng.MODEL_INIT))
    vec = model.params
    streams = lambda: [rng.substream(3, rng.CLIENT_TRAIN, epochs, k) for k in range(len(clients))]
    lockstep = orchestrator.local_training(
        clients, model, vec, nn.SgdConfig(), epochs, batch,
        orchestrator.batch_plan([len(c) for c in clients], streams(), epochs, batch),
    )
    assert len(lockstep) == len(clients)
    for client, train_rng, delta in zip(clients, streams(), lockstep):
        want = nn_oracles.local_training_one_client(
            client, model, vec, nn.SgdConfig(), epochs, batch, train_rng
        )
        assert delta.tobytes() == want.tobytes()


# ------------------------------------------------------------- datasets


def test_build_datasets_toy_box():
    cfg = small_config(dataset={"kind": "toy", "per_class": 24, "dims": 5,
                                "radius": 3.0, "spread": 0.5})
    train, test, lo, hi = orchestrator.build_datasets(cfg)
    assert train.dim == 5 and test.dim == 5
    assert len(train) + len(test) == 3 * 24
    np.testing.assert_allclose(lo[:2], [-4.0, -4.0])
    np.testing.assert_allclose(hi[:2], [4.0, 4.0])
    np.testing.assert_allclose(lo[2:], [-1.0, -1.0, -1.0])
    np.testing.assert_allclose(hi[2:], [1.0, 1.0, 1.0])
    # the box is a two-spread calibration region, not a hard bound, so a
    # small gaussian tail can poke out of it
    inside = (train.features >= lo) & (train.features <= hi)
    assert inside.mean() > 0.9


def test_idx_dataset_with_missing_files_is_rejected_at_load(tmp_path, capsys):
    names = ("train_images", "train_labels", "test_images", "test_labels")
    dataset = {"kind": "idx", **{name: str(tmp_path / name) for name in names}}
    # More clients than the default toy set has training rows: the load must
    # fail on the paths, before any dataset is built.
    obj = {"dataset": dataset, "clients": 700, "sampled_per_round": 10, "rounds": 1}
    with pytest.raises(ConfigError, match="^dataset: train_images: no such file '.*train_images'$"):
        config_from_dict(obj)
    for name in names[:3]:
        (tmp_path / name).write_bytes(b"")
    with pytest.raises(ConfigError, match="^dataset: test_labels: no such file"):
        config_from_dict(obj)
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    assert "test_labels: no such file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("images, labels", [(40, 39), (30, 40)])
def test_run_on_a_broken_idx_set_exits_2(tmp_path, capsys, images, labels):
    # 40 images with 39 labels, or a 40-image header over 30 images of data:
    # both are config errors, caught at load before any output is written.
    write_idx_pair(str(tmp_path / "train"), np.zeros((images, 2, 2)), np.arange(labels) % 3)
    write_idx_pair(str(tmp_path / "test"), np.zeros((6, 2, 2)), np.arange(6) % 3)
    if images < labels:
        header = struct.pack(">IIII", 0x00000803, labels, 2, 2)
        body = (tmp_path / "train-images").read_bytes()[16:]
        (tmp_path / "train-images").write_bytes(header + body)
    names = {f"{split}_{kind}": str(tmp_path / f"{split}-{kind}")
             for split in ("train", "test") for kind in ("images", "labels")}
    path = tmp_path / "idx.json"
    path.write_text(json.dumps({"dataset": {"kind": "idx", **names}, "clients": 5,
                                "sampled_per_round": 2, "rounds": 1}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dataset: train_")
    assert "Traceback" not in err
    assert not out.exists()


def write_idx_pair(prefix, images, labels):
    n, rows, cols = images.shape
    with open(f"{prefix}-images", "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(f"{prefix}-labels", "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.astype(np.uint8).tobytes())


def test_build_datasets_idx_loads_when_present(tmp_path):
    gen = np.random.default_rng(0)
    train_imgs = gen.integers(0, 256, size=(12, 2, 2), dtype=np.uint8)
    train_lbls = np.arange(12, dtype=np.uint8) % 3
    test_imgs = gen.integers(0, 256, size=(6, 2, 2), dtype=np.uint8)
    test_lbls = np.arange(6, dtype=np.uint8) % 3
    write_idx_pair(str(tmp_path / "train"), train_imgs, train_lbls)
    write_idx_pair(str(tmp_path / "test"), test_imgs, test_lbls)
    cfg = small_config()
    cfg.dataset = IdxDatasetSpec(
        train_images=str(tmp_path / "train-images"),
        train_labels=str(tmp_path / "train-labels"),
        test_images=str(tmp_path / "test-images"),
        test_labels=str(tmp_path / "test-labels"),
    )
    train, test, lo, hi = orchestrator.build_datasets(cfg)
    assert len(train) == 12 and len(test) == 6
    assert train.dim == 4
    np.testing.assert_array_equal(lo, np.zeros(4))
    np.testing.assert_array_equal(hi, np.ones(4))
    assert train.features.max() <= 1.0


# ------------------------------------------------------------ round loop


def test_run_benign_no_defense_accepts_everyone():
    report = orchestrator.run_experiment(small_config())
    assert len(report.rounds) == 2
    for rec in report.rounds:
        assert rec.rejected == []
        assert len(rec.accepted) == 3
        assert rec.malicious_sampled == []
        assert rec.tpr == 0.0 and rec.tnr == 1.0
        assert rec.gan_iters == 0
        assert 0.0 <= rec.acc <= 1.0
    assert report.final_acc == report.rounds[-1].acc
    assert report.mean_tpr == 0.0 and report.mean_tnr == 1.0


def test_a_schedule_is_read_only_and_kept_to_its_key():
    schedule = orchestrator.Schedule.build(small_config())
    with pytest.raises(ValueError, match="read-only"):
        schedule.template.params[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        schedule.template.layers[0].weight[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        schedule.shards[0].features[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        schedule.test.labels[0] = 0
    # Another attack, aggregator or defense may share it; another seed may not.
    shared = small_config(attack={"kind": "sign_flip", "epsilon": 0.4}, aggregator={"kind": "coord_median"})
    assert orchestrator.run_experiment(shared, schedule).rounds == orchestrator.run_experiment(shared).rounds
    with pytest.raises(ValueError, match="other schedule fields"):
        orchestrator.run_experiment(small_config(seed=6), schedule)


def test_run_is_deterministic():
    cfg_dict = {
        "seed": 11,
        "rounds": 2,
        "clients": 5,
        "sampled_per_round": 3,
        "local_epochs": 1,
        "hidden_dims": [8],
        "dataset": {"kind": "toy", "per_class": 24},
        "attack": {"kind": "sign_flip", "epsilon": 0.4},
        "defense": {"q": 9, "gen_max_iter": 30, "metric": "loss"},
    }
    a = orchestrator.run_experiment(config_from_dict(cfg_dict))
    b = orchestrator.run_experiment(config_from_dict(cfg_dict))
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.acc == rb.acc
        assert ra.accepted == rb.accepted
        assert ra.rejected == rb.rejected
        assert ra.gan_iters == rb.gan_iters
    assert a.final_acc == b.final_acc


def test_run_attack_without_defense_keeps_everything():
    cfg = small_config(attack={"kind": "sign_flip", "epsilon": 0.4})
    report = orchestrator.run_experiment(cfg)
    saw_malicious = False
    for rec in report.rounds:
        assert rec.rejected == []
        assert rec.tpr == 0.0
        assert rec.tnr == 1.0
        saw_malicious = saw_malicious or bool(rec.malicious_sampled)
        assert set(rec.malicious_sampled) <= set(rec.accepted)
    assert saw_malicious


def test_ipm_cell_with_every_sampled_client_compromised_completes():
    # 9 of 10 clients are compromised; at seed 0 round 1 samples only them.
    cfg = small_config(
        seed=0, rounds=5, clients=10, sampled_per_round=5,
        attack={"kind": "ipm", "epsilon": 0.9},
    )
    report = orchestrator.run_experiment(cfg)
    assert len(report.rounds) == 5
    assert len(report.rounds[0].malicious_sampled) == 5


def test_reject_all_round_carries_weights_forward():
    # accuracy scores live in [0, 1], so a fixed threshold of 1.5 rejects
    # every candidate and the global model must never move
    cfg = small_config(
        rounds=3,
        defense={"filter": "fixed", "tau": 1.5, "q": 9, "gen_max_iter": 30},
    )
    report = orchestrator.run_experiment(cfg)
    accs = [rec.acc for rec in report.rounds]
    for rec in report.rounds:
        assert rec.accepted == []
        assert sorted(rec.rejected) == rec.rejected and len(rec.rejected) == 3
        assert rec.gan_iters > 0
    assert len(set(accs)) == 1


def test_zero_rounds_still_reports_final_acc():
    report = orchestrator.run_experiment(small_config(rounds=0))
    assert report.rounds == []
    assert 0.0 <= report.final_acc <= 1.0


def test_defended_run_mixes_accept_and_reject():
    cfg = small_config(
        clients=6,
        sampled_per_round=4,
        defense={"filter": "adaptive", "metric": "loss", "q": 9, "gen_max_iter": 30},
    )
    report = orchestrator.run_experiment(cfg)
    for rec in report.rounds:
        assert set(rec.accepted) | set(rec.rejected) == set(rec.accepted + rec.rejected)
        assert len(rec.accepted) + len(rec.rejected) == 4
        # strictly-above-mean acceptance can never keep everyone
        assert 0 < len(rec.accepted) < 4


def test_mnist_shaped_config_runs_a_round():
    cell = load_json(str(Path(__file__).resolve().parent.parent / "configs" / "mnist_shaped.json"))
    cell["rounds"] = 1
    cell["defense"]["gen_max_iter"] = 50
    cfg = config_from_dict(cell)
    assert (cfg.dataset.dims, cfg.dataset.num_classes, cfg.hidden_dims) == (784, 10, (128, 128))
    [record] = orchestrator.run_experiment(cfg).rounds
    assert 0 < record.gan_iters <= 50 and math.isfinite(record.acc)
    assert len(record.accepted) + len(record.rejected) == cfg.sampled_per_round


# A sign flip that overflows: attackers' candidates score NaN on the loss.
OVERFLOW_CELL = {
    "seed": 0, "rounds": 5, "clients": 10, "sampled_per_round": 5, "local_epochs": 2,
    "attack": {"kind": "sign_flip", "epsilon": 0.3, "gamma": 1e200},
    "defense": {"metric": "loss", "gen_max_iter": 100},
}


@pytest.mark.parametrize("policy", ["adaptive", "cluster"])
def test_no_nan_scored_attacker_reaches_the_global_model(policy, monkeypatch):
    decisions, weights = [], []
    filter_updates, evaluate_global = defense.filter_updates, orchestrator.evaluate_global

    def spy_filter(entries, *args):
        decisions.append(entries)
        return filter_updates(entries, *args)

    def spy_evaluate(params, *args):
        weights.append(params.copy())
        return evaluate_global(params, *args)

    monkeypatch.setattr(defense, "filter_updates", spy_filter)
    monkeypatch.setattr(orchestrator, "evaluate_global", spy_evaluate)
    cfg = config_from_dict({**OVERFLOW_CELL, "defense": {**OVERFLOW_CELL["defense"], "filter": policy}})
    report = orchestrator.run_experiment(cfg)
    nan_scored = [e for entries in decisions for e in entries if math.isnan(e.raw_metric)]
    attackers = {cid for rec in report.rounds for cid in rec.malicious_sampled}
    assert nan_scored and {e.client_id for e in nan_scored} <= attackers
    assert not any(e.accepted for e in nan_scored)
    assert all(rec.tpr == 1.0 for rec in report.rounds if rec.malicious_sampled)
    assert len(weights) == 5 and all(np.isfinite(w).all() for w in weights)


# --------------------------------------------------------------- reports


def test_emit_report_byte_identical_across_runs(tmp_path):
    cfg_dict = {
        "seed": 3,
        "rounds": 2,
        "clients": 5,
        "sampled_per_round": 3,
        "local_epochs": 1,
        "hidden_dims": [8],
        "dataset": {"kind": "toy", "per_class": 24},
        "attack": {"kind": "random_noise", "epsilon": 0.4},
        "defense": {"q": 9, "gen_max_iter": 30, "metric": "loss"},
    }
    paths = []
    for tag in ("one", "two"):
        report = orchestrator.run_experiment(config_from_dict(cfg_dict))
        paths.append(orchestrator.emit_report(report, str(tmp_path / tag), "run"))
    for left, right in zip(*paths):
        with open(left, "rb") as fh:
            first = fh.read()
        with open(right, "rb") as fh:
            second = fh.read()
        assert first == second


def test_emit_report_leaves_out_round_timings(tmp_path):
    report = orchestrator.run_experiment(small_config())
    csv_path, json_path = orchestrator.emit_report(report, str(tmp_path), "run")
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "round,acc,tpr,tnr,accepted,rejected,gan_iters"
    assert len(lines) == 1 + len(report.rounds)
    with open(json_path) as fh:
        payload = json.load(fh)
    assert payload["rounds"]
    assert all("wall_ms" not in r for r in payload["rounds"])


def test_json_report_recomputes_detection_rates(tmp_path):
    cfg = small_config(
        clients=6,
        sampled_per_round=4,
        attack={"kind": "sign_flip", "epsilon": 0.34},
        defense={"filter": "adaptive", "metric": "loss", "q": 9, "gen_max_iter": 30},
    )
    report = orchestrator.run_experiment(cfg)
    _, json_path = orchestrator.emit_report(report, str(tmp_path), "run")
    with open(json_path) as fh:
        payload = json.load(fh)
    assert payload["config"]["seed"] == cfg.seed
    for row in payload["rounds"]:
        sampled = set(row["accepted"]) | set(row["rejected"])
        tpr, tnr = orchestrator.compute_tpr_tnr(
            sampled, set(row["accepted"]), set(row["malicious_sampled"])
        )
        assert row["tpr"] == tpr
        assert row["tnr"] == tnr
    attacked = [r for r in payload["rounds"] if r["malicious_sampled"]]
    if attacked:
        assert payload["mean_tpr"] == pytest.approx(
            sum(r["tpr"] for r in attacked) / len(attacked)
        )
        assert payload["mean_tnr"] == pytest.approx(
            sum(r["tnr"] for r in attacked) / len(attacked)
        )


def test_evaluate_global_matches_direct_accuracy():
    shard = shard_fixture()
    model = nn.init_mlp([2, 8, 3], "relu", rng.substream(2, rng.MODEL_INIT))
    vec = model.params
    acc = orchestrator.evaluate_global(vec, model, shard)
    logits = nn.forward(model, shard.features)
    expect = float(np.mean(np.argmax(logits, axis=1) == shard.labels))
    assert acc == expect


# At epsilon 0.9, with 10 clients and 5 sampled, the filter leaves fewer
# than the four updates a Krum rule needs in most rounds of these cells.
KRUM_CELL = {"seed": 0, "clients": 10, "sampled_per_round": 5, "rounds": 3}


@pytest.mark.parametrize("rule", ["multi_krum", "nnm_krum"])
@pytest.mark.parametrize("filt, attack", [("adaptive", "sign_flip"), ("cluster", "ipm")])
def test_defended_krum_falls_back_to_median_when_few_survive(
    tmp_path, monkeypatch, rule, filt, attack
):
    calls = []
    real = orchestrator.aggregate

    def spy(updates, cfg):
        calls.append((len(updates), cfg.kind))
        return real(updates, cfg)

    monkeypatch.setattr(orchestrator, "aggregate", spy)
    cfg = config_from_dict({
        **KRUM_CELL,
        "aggregator": {"kind": rule},
        "attack": {"kind": attack, "epsilon": 0.9},
        "defense": {"filter": filt, "q": 9, "gen_max_iter": 30},
    })
    report = orchestrator.run_experiment(cfg)
    assert len(report.rounds) == 3
    fell = [r.aggregator_fallback for r in report.rounds if r.accepted]
    assert "coord_median" in fell
    assert calls == [
        (len(r.accepted), r.aggregator_fallback or rule) for r in report.rounds if r.accepted
    ]
    assert all((n < 4) == (kind == "coord_median") for n, kind in calls)
    _, json_path = orchestrator.emit_report(report, str(tmp_path), "krum")
    with open(json_path) as fh:
        rounds = json.load(fh)["rounds"]
    # The key appears only in the rounds that fell back.
    assert [r.get("aggregator_fallback") for r in rounds] == [
        r.aggregator_fallback for r in report.rounds
    ]
