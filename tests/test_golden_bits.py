"""Bit-level pins of the training arithmetic.

Every other test compares floats with a tolerance, or reruns the same code
twice; neither notices when a change reorders a float operation or a random
draw.  The sha256 digests below pin the exact bytes of one local-training
delta, three generator fits (iteration count and final parameters: one
stops on its loss, one on a loss plateau, one runs to `gen_max_iter`), the
probe set sampled from the first of them, one client partition and
the emitted reports of two short
defended cells, of one undefended cell on ragged shards and of a defended
Krum cell whose last round falls back to the median.  A digest may
change only with a deliberate change of the arithmetic, recorded in
CHANGES.md.
"""

import hashlib

import numpy as np

import nn_oracles
from bfl import data, defense, nn, orchestrator, rng
from bfl.config import config_from_dict
from bfl.defense import DefenseConfig
from bfl.orchestrator import emit_report, run_experiment
from test_orchestrator import KRUM_CELL

SEED = 7
LOCAL_DELTA = "819d3018f7a7de1da0537c95a6975f1b36674934a2af0ffd7f4e444b3620e0bf"
GEN_ITERS = 79
GEN_PARAMS = "4eb8ac97338765d4c4ac225d08715dadfec888e65a02e06a9340a08a0e9d6077"
# `synthesize`'s probe from that generator: its features, and its labels as int64.
PROBE = (
    "f2b946b50efaef28ed9e347999822264838f03f9bab011623ee2f9c35dbe0437",
    "c28e6bc011fe0164f4d8356fff2317883832038a7abfff9caa57b2407fa1e240",
)
# An 8-D noise fit whose loss never drops below 1e-4: it stops at the cap.
CAPPED_CFG = DefenseConfig(noise_dim=8, gen_max_iter=150, early_stop_loss=1e-4)
CAPPED_PARAMS = "0ddc18a7095f7fc9c3bab7e5d081c95224b2421e4748004be9ee39477fdd7a5d"
# The untrained broadcast model at default settings: the window-mean loss
# levels off just above `early_stop_loss`, and the plateau stop ends the fit.
PLATEAU_ITERS = 900
PLATEAU_PARAMS = "edbc721c30d54b98c13c6aed6c8b9393df99f6f89c270cb6b2de358ecdfcc670"
REPORTS = {
    "ipm_cluster": (
        "a163a54d445d12e336b1ddb4fb64fee6bc6ec32dc5c4e889423859d2741dcf6f",
        "6c582303dd5270ef0c2eda3ffa9c3756685b5e780ef40e039d9c9c9f91596395",
    ),
    "sign_flip_overflow": (
        "7b50004d42612cd013bf907b8f562c716dc745cbb51b62af02c65668c6a67ebf",
        "5e8bfb119e2f0365ac3df135201908da6a161697cad341e4b58666c3214f1767",
    ),
}
RAGGED_REPORT = (
    "710b50ca807052df6b7344dcf11ce6c686728be48e46de3e8840549db01458fa",
    "ac7be8f7611d532ccea9c6be6fc74d831a6ec4cd77519a65994071fe19c05eb7",
)
# The client shards of RAGGED_CELL (seed 42, alpha 0.05), their index arrays
# concatenated in client order as int64.
RAGGED_PARTITION = "067824876676b8c6d958eae043e47303957eaab6fe82a8e80f069239ea923e23"
FALLBACK_REPORT = (
    "b518fdf51cbd1a9fe7b559c27b2f11ce2f976650159d2bd8fbb54bf2b560e7ad",
    "c06022b2d6ec455a03796da974395a4f01da975e057cb8ef4946ebcb5fc39070",
)

CELLS = {
    # The benchmark's defended_iid scenario, shortened to three rounds: IPM
    # with its line search, the cluster filter on loss scores, fedavg.
    "ipm_cluster": {
        "rounds": 3,
        "local_epochs": 5,
        "dataset": {"dims": 12},
        "attack": {"kind": "ipm", "epsilon": 0.3},
        "defense": {"filter": "cluster", "metric": "loss", "gen_max_iter": 400},
    },
    # A sign flip that overflows the logits: its candidates score NaN, which
    # the filter rejects, so the pins cover the non-finite scores too.
    "sign_flip_overflow": {
        "rounds": 4,
        "local_epochs": 5,
        "dataset": {"dims": 12},
        "attack": {"kind": "sign_flip", "epsilon": 0.3, "gamma": 1e200},
        "defense": {"filter": "cluster", "metric": "loss", "gen_max_iter": 200},
    },
}
# Skewed shards at seed 42: ten one-row clients, others of 2-30 rows and
# three of 136-172 rows.  In batches of 16 the large shards take several
# steps per epoch, and most shards end an epoch on a short batch.
RAGGED_CELL = {"seed": 42, "rounds": 10, "batch": 16, "partition": {"alpha": 0.05}}
# Its rounds accept 0, 0 and 3 updates: only the last carries the optional
# "aggregator_fallback" key, so the pin holds the JSON with and without it.
FALLBACK_CELL = {
    **KRUM_CELL,
    "aggregator": {"kind": "multi_krum"},
    "attack": {"kind": "sign_flip", "epsilon": 0.9},
    "defense": {"filter": "adaptive", "q": 9, "gen_max_iter": 30},
}


def digest(array: np.ndarray, dtype: str = "<f8") -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _trained_classifier():
    """A classifier from one client's local training on the 12-D blobs."""
    cfg = config_from_dict({"seed": SEED, "dataset": {"dims": 12}})
    train, _, lo, hi = orchestrator.build_datasets(cfg)
    template = nn.init_mlp(
        [train.dim, 16, 16, train.num_classes], "relu", rng.substream(SEED, rng.MODEL_INIT)
    )
    vector = template.params
    # 600 rows in batches of 64: the last batch of every epoch has 24 rows.
    [delta] = orchestrator.local_training(
        [train], template, vector, nn.SgdConfig(), 3, 64,
        orchestrator.batch_plan([len(train)], [rng.substream(SEED, rng.CLIENT_TRAIN, 1, 0)], 3, 64),
    )
    return template, vector, delta, lo, hi


def test_local_training_delta_bits():
    _, _, delta, _, _ = _trained_classifier()
    assert digest(delta) == LOCAL_DELTA


def test_train_generator_bits():
    template, vector, delta, lo, hi = _trained_classifier()
    classifier = template.with_params(vector + delta)
    gen, iters = defense.train_generator(classifier, DefenseConfig(), SEED, 4, lo, hi)
    assert iters == GEN_ITERS
    assert digest(gen.backbone.params) == GEN_PARAMS


def test_probe_bits():
    template, vector, delta, lo, hi = _trained_classifier()
    classifier = template.with_params(vector + delta)
    gen, _ = defense.train_generator(classifier, DefenseConfig(), SEED, 4, lo, hi)
    probe = defense.synthesize(gen, DefenseConfig().q, SEED, 4)
    assert (digest(probe.features), digest(probe.labels, "<i8")) == PROBE


def test_ragged_partition_bits():
    cfg = config_from_dict(RAGGED_CELL)
    train, _, _, _ = orchestrator.build_datasets(cfg)
    shards = data.dirichlet_partition(
        train, cfg.clients, cfg.partition.alpha, rng.subseed(cfg.seed, rng.PARTITION)
    )
    assert digest(np.concatenate(shards), "<i8") == RAGGED_PARTITION


def test_capped_generator_fit_bits():
    template, vector, delta, lo, hi = _trained_classifier()
    classifier = template.with_params(vector + delta)
    gen, iters = defense.train_generator(classifier, CAPPED_CFG, SEED, 5, lo, hi)
    assert iters == CAPPED_CFG.gen_max_iter
    assert digest(gen.backbone.params) == CAPPED_PARAMS


def test_plateau_generator_fit_bits():
    template, vector, _, lo, hi = _trained_classifier()
    classifier = template.with_params(vector)
    cfg = DefenseConfig()
    gen, iters = defense.train_generator(classifier, cfg, SEED, 4, lo, hi)
    assert iters == PLATEAU_ITERS < cfg.gen_max_iter
    assert digest(gen.backbone.params) == PLATEAU_PARAMS
    # It stopped on the plateau, not on the loss: the last window's mean is
    # still above the loss stop.
    _, _, losses = nn_oracles.generator_fit(classifier, cfg, SEED, 4, lo, hi)
    window = losses[-cfg.early_stop_patience:]
    assert len(losses) == iters and sum(window) / len(window) >= cfg.early_stop_loss


def test_defended_report_bits(tmp_path):
    for name, cell in CELLS.items():
        report = run_experiment(config_from_dict({"seed": SEED, **cell}))
        csv_path, json_path = emit_report(report, str(tmp_path), name)
        assert (file_digest(csv_path), file_digest(json_path)) == REPORTS[name], name


def test_ragged_report_bits(tmp_path):
    csv_path, json_path = emit_report(
        run_experiment(config_from_dict(RAGGED_CELL)), str(tmp_path), "ragged"
    )
    assert (file_digest(csv_path), file_digest(json_path)) == RAGGED_REPORT


def test_fallback_report_bits(tmp_path):
    report = run_experiment(config_from_dict(FALLBACK_CELL))
    assert [(len(r.accepted), r.aggregator_fallback) for r in report.rounds] == [
        (0, None), (0, None), (3, "coord_median")
    ]
    csv_path, json_path = emit_report(report, str(tmp_path), "fallback")
    assert (file_digest(csv_path), file_digest(json_path)) == FALLBACK_REPORT
