import dataclasses
import json
import re
import struct
import typing
from pathlib import Path

import pytest

from bfl.aggregators import AggregatorConfig
from bfl.attacks import AttackConfig
from bfl.cli import main
from bfl.config import (
    ConfigError,
    ExperimentConfig,
    IdxDatasetSpec,
    PartitionSpec,
    ToyDatasetSpec,
    config_from_dict,
    config_to_dict,
    load_config,
)
from bfl.defense import DefenseConfig
from bfl.nn import SgdConfig
from bfl.orchestrator import run_experiment

README = Path(__file__).resolve().parents[1] / "README.md"


def test_empty_object_gives_defaults():
    cfg = config_from_dict({})
    assert cfg.seed == 0
    assert cfg.rounds == 30
    assert cfg.clients == 20
    assert cfg.hidden_dims == (16, 16)
    assert isinstance(cfg.dataset, ToyDatasetSpec)
    assert cfg.dataset.dims == 2
    assert cfg.defense is None
    assert cfg.attack.kind == "none"
    assert cfg.aggregator.kind == "fedavg"


def test_full_roundtrip_through_dict():
    obj = {
        "seed": 42,
        "rounds": 5,
        "clients": 8,
        "sampled_per_round": 4,
        "local_epochs": 2,
        "batch": 32,
        "hidden_dims": [8, 8],
        "sgd": {"learning_rate": 0.05, "momentum": 0.8, "weight_decay": 0.001},
        "dataset": {"kind": "toy", "num_classes": 4, "per_class": 50,
                    "radius": 2.0, "spread": 0.3, "dims": 6},
        "partition": {"alpha": 0.5},
        "attack": {"kind": "sign_flip", "epsilon": 0.25, "gamma": 3.0},
        "aggregator": {"kind": "trimmed_mean", "beta": 0.2},
        "defense": {"filter": "cluster", "metric": "accuracy", "q": 30},
    }
    cfg = config_from_dict(obj)
    assert cfg.dataset.dims == 6
    assert cfg.attack.gamma == 3.0
    assert cfg.defense.filter == "cluster"
    echoed = config_to_dict(cfg)
    again = config_from_dict(echoed)
    assert config_to_dict(again) == echoed


def test_explicit_nulls_for_optional_fields():
    """The echoed dict writes null for unset optional fields; reparsing it
    has to work because sweeps mutate and reload that echo."""
    cfg = config_from_dict({
        "attack": {"kind": "none", "gamma": None},
        "defense": None,
    })
    assert cfg.attack.gamma is None
    assert cfg.defense is None
    echoed = config_to_dict(config_from_dict({}))
    assert echoed["attack"]["gamma"] is None and echoed["defense"] is None
    config_from_dict(echoed)


def test_null_rejected_for_required_types():
    with pytest.raises(ConfigError, match="rounds"):
        config_from_dict({"rounds": None})


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="typo_key"):
        config_from_dict({"typo_key": 1})


def test_unknown_nested_key_reports_dotted_path():
    with pytest.raises(ConfigError, match=r"sgd\.momentumm"):
        config_from_dict({"sgd": {"momentumm": 0.9}})


def test_wrong_type_reports_expected():
    with pytest.raises(ConfigError, match="expected int"):
        config_from_dict({"rounds": "thirty"})


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError, match="expected int, got bool"):
        config_from_dict({"seed": True})


def test_int_promotes_to_float():
    cfg = config_from_dict({"sgd": {"learning_rate": 1}})
    assert cfg.sgd.learning_rate == 1.0


def test_ints_widen_to_floats_in_the_echo():
    cfg = config_from_dict({"sgd": {"learning_rate": 1}, "attack": {"gamma": 2}})
    echoed = config_to_dict(cfg)
    assert type(echoed["sgd"]["learning_rate"]) is float
    assert type(echoed["attack"]["gamma"]) is float


def test_sampled_must_fit_in_clients():
    with pytest.raises(ConfigError, match="sampled_per_round"):
        config_from_dict({"clients": 4, "sampled_per_round": 5})


@pytest.mark.parametrize("kind", ["multi_krum", "nnm_krum"])
def test_krum_rules_reject_too_few_sampled_at_load(kind):
    # beta 0.1 on 3 updates: M = 1 leaves 3 - 1 - 2 = 0 peers to score against
    with pytest.raises(ConfigError, match=r"^sampled_per_round: .*at least 4"):
        config_from_dict({"aggregator": {"kind": kind}, "sampled_per_round": 3})
    cfg = config_from_dict(
        {"aggregator": {"kind": kind}, "clients": 4, "sampled_per_round": 4, "rounds": 1}
    )
    assert len(run_experiment(cfg).rounds) == 1


@pytest.mark.parametrize("kind", ["fedavg", "coord_median", "trimmed_mean", "geometric_median"])
def test_other_rules_take_a_single_update(kind):
    cfg = config_from_dict(
        {"aggregator": {"kind": kind, "beta": 0.49}, "sampled_per_round": 1}
    )
    assert cfg.aggregator.kind == kind


def test_clients_must_not_outnumber_training_samples():
    # 3 classes x 300 rows, a third of each class held out: 600 to train on
    with pytest.raises(ConfigError, match=r"^clients: .*600 training samples"):
        config_from_dict({"clients": 601, "sampled_per_round": 10, "rounds": 1})
    cfg = config_from_dict({"clients": 600, "rounds": 1, "local_epochs": 1})
    assert len(run_experiment(cfg).rounds) == 1
    # the split rounds per class: round(5 / 3) = 2 test rows, 3 train rows each
    small = {"num_classes": 2, "per_class": 5}
    assert config_from_dict({"clients": 6, "sampled_per_round": 1, "dataset": small})
    with pytest.raises(ConfigError, match="clients"):
        config_from_dict({"clients": 7, "sampled_per_round": 1, "dataset": small})


def test_a_split_with_no_test_rows_is_rejected_at_load():
    # round(1 / 3) = 0 test rows per class: every round's accuracy would be
    # the mean of an empty slice.
    small = {"per_class": 1}
    with pytest.raises(
        ConfigError, match=r"^dataset: per_class must be >= 2, so that each class has a test row$"
    ):
        config_from_dict({"dataset": small, "clients": 2, "sampled_per_round": 1})
    small["per_class"] = 2  # round(2 / 3) = 1
    assert config_from_dict({"dataset": small, "clients": 2, "sampled_per_round": 1})


@pytest.mark.parametrize(
    "path",
    ["attack.ipm_objective", "aggregator.weiszfeld_tol", "aggregator.weiszfeld_max_iter",
     "attack.sigma", "attack.gamma_grid", "partition.seed", "defense.gen_lr",
     "defense.early_stop_loss", "defense.early_stop_patience", "dataset.test_fraction",
     "defense.tau"],
)
def test_removed_options_are_unknown_fields(tmp_path, capsys, path):
    section, name = path.split(".")
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: unknown field$"):
        config_from_dict({section: {name: 1}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 1, section: {name: 1}}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}: unknown field\n"


def test_hidden_dims_rejects_bool_and_zero():
    with pytest.raises(ConfigError, match=r"hidden_dims\[1\]"):
        config_from_dict({"hidden_dims": [8, True]})
    with pytest.raises(ConfigError, match=r"^hidden_dims\[1\]: expected int, got str$"):
        config_from_dict({"hidden_dims": [8, "big"]})
    with pytest.raises(ConfigError, match="hidden_dims"):
        config_from_dict({"hidden_dims": [8, 0]})


def test_dataset_dims_lower_bound():
    with pytest.raises(ConfigError, match="dims"):
        config_from_dict({"dataset": {"kind": "toy", "dims": 1}})


def test_dataset_bad_kind():
    with pytest.raises(ConfigError, match="'mnist'"):
        config_from_dict({"dataset": {"kind": "mnist"}})


def write_idx_files(directory, train_rows, image_magic=0x00000803, shapes=((2, 2), (2, 2))):
    """Four IDX files of images of `shapes` (train, test), 2x2 by default,
    `train_rows` of them to train on."""
    paths = {}
    for split, rows, (height, width) in (("train", train_rows, shapes[0]), ("test", 3, shapes[1])):
        paths[f"{split}_images"] = directory / f"{split}_images"
        paths[f"{split}_images"].write_bytes(
            struct.pack(">IIII", image_magic, rows, height, width) + bytes(height * width * rows)
        )
        paths[f"{split}_labels"] = directory / f"{split}_labels"
        paths[f"{split}_labels"].write_bytes(struct.pack(">II", 0x00000801, rows) + bytes(rows))
    return {name: str(path) for name, path in paths.items()}


def test_idx_dataset_requires_all_paths(tmp_path):
    with pytest.raises(ConfigError, match="required field is missing"):
        config_from_dict({"dataset": {"kind": "idx", "train_images": "a"}})
    paths = write_idx_files(tmp_path, 30)
    cfg = config_from_dict({"dataset": {"kind": "idx", **paths}})
    assert isinstance(cfg.dataset, IdxDatasetSpec)


def test_idx_training_rows_are_read_at_load(tmp_path):
    # Five training images: six clients are rejected at load, not in round 1.
    dataset = {"kind": "idx", **write_idx_files(tmp_path, 5)}
    with pytest.raises(ConfigError, match=r"^clients: 6 clients but the idx dataset has only 5 "):
        config_from_dict({"dataset": dataset, "clients": 6, "sampled_per_round": 2})
    cfg = config_from_dict({"dataset": dataset, "clients": 5, "sampled_per_round": 2})
    assert cfg.dataset.train_size == 5
    # A header that is not an image header, or no header at all.
    bad = {"kind": "idx", **write_idx_files(tmp_path, 5, image_magic=0x00000801)}
    with pytest.raises(ConfigError, match=r"^dataset: train_images: .*magic 0x00000801"):
        config_from_dict({"dataset": bad, "clients": 1, "sampled_per_round": 1})
    Path(dataset["train_images"]).write_bytes(b"")
    with pytest.raises(ConfigError, match=r"^dataset: train_images: .*expected 16 more bytes"):
        config_from_dict({"dataset": dataset, "clients": 1, "sampled_per_round": 1})
    # Images of no pixels, or test images of another shape, once passed the
    # load and died in round 1.
    for shapes, message in [
        (((28, 0), (28, 0)), "train_images: 28x0 images have no pixels"),
        (((4, 4), (2, 2)), "test_images: 2x2 images, but the train_images are 4x4"),
    ]:
        odd = {"kind": "idx", **write_idx_files(tmp_path, 12, shapes=shapes)}
        with pytest.raises(ConfigError, match=f"^dataset: {re.escape(message)}$"):
            config_from_dict({"dataset": odd, "clients": 1, "sampled_per_round": 1})


def test_idx_files_short_of_their_header_are_rejected_at_load(tmp_path):
    paths = write_idx_files(tmp_path, 40)
    dataset = {"kind": "idx", **paths}
    # A 40-image header over 30 images of data.
    body = Path(paths["train_images"]).read_bytes()
    Path(paths["train_images"]).write_bytes(body[: 16 + 4 * 30])
    with pytest.raises(ConfigError, match=r"^dataset: train_images: .*expected 160 more bytes, got 120$"):
        config_from_dict({"dataset": dataset, "clients": 1, "sampled_per_round": 1})
    paths = write_idx_files(tmp_path, 40)
    Path(paths["test_labels"]).write_bytes(struct.pack(">II", 0x00000801, 3) + bytes(2))
    with pytest.raises(ConfigError, match=r"^dataset: test_labels: .*expected 3 more bytes, got 2$"):
        config_from_dict({"dataset": dataset, "clients": 1, "sampled_per_round": 1})


def test_idx_pairs_with_unequal_counts_are_rejected_at_load(tmp_path):
    paths = write_idx_files(tmp_path, 40)
    dataset = {"kind": "idx", **paths}
    Path(paths["train_labels"]).write_bytes(struct.pack(">II", 0x00000801, 39) + bytes(39))
    with pytest.raises(ConfigError, match=r"^dataset: train_labels: 39 labels for 40 train_images$"):
        config_from_dict({"dataset": dataset, "clients": 1, "sampled_per_round": 1})
    paths = write_idx_files(tmp_path, 40)
    Path(paths["test_images"]).write_bytes(struct.pack(">IIII", 0x00000803, 4, 2, 2) + bytes(16))
    with pytest.raises(ConfigError, match=r"^dataset: test_labels: 3 labels for 4 test_images$"):
        config_from_dict({"dataset": dataset, "clients": 1, "sampled_per_round": 1})


def test_idx_test_images_with_no_items_are_rejected_at_load(tmp_path):
    paths = write_idx_files(tmp_path, 40)
    Path(paths["test_images"]).write_bytes(struct.pack(">IIII", 0x00000803, 0, 2, 2))
    Path(paths["test_labels"]).write_bytes(struct.pack(">II", 0x00000801, 0))
    with pytest.raises(ConfigError, match=r"^dataset: test_images: holds no images to test on$"):
        config_from_dict({"dataset": {"kind": "idx", **paths}, "clients": 1, "sampled_per_round": 1})


def test_idx_test_labels_beyond_the_training_labels_are_rejected_at_load(tmp_path, capsys):
    # Training labels {0, 1} give the classifier two outputs, so a test row
    # of class 2 could never be classified right.
    paths = write_idx_files(tmp_path, 40)
    Path(paths["train_labels"]).write_bytes(struct.pack(">II", 0x00000801, 40) + bytes([0, 1] * 20))
    Path(paths["test_labels"]).write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 2]))
    cfg = {"dataset": {"kind": "idx", **paths}, "clients": 2, "sampled_per_round": 2}
    with pytest.raises(
        ConfigError, match=r"^dataset: test_labels: label 2 is beyond the training labels, which reach 1$"
    ):
        config_from_dict(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "label 2 is beyond the training labels" in capsys.readouterr().err
    # A test set that misses a training class is fine.
    Path(paths["test_labels"]).write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([1, 1, 1]))
    assert config_from_dict(cfg).dataset.train_size == 40


def test_partition_num_clients_is_unknown():
    with pytest.raises(ConfigError, match=r"partition\.num_clients: unknown field"):
        config_from_dict({"clients": 10, "partition": {"num_clients": 10}})


def test_partition_alpha_positive():
    with pytest.raises(ConfigError, match="alpha"):
        config_from_dict({"partition": {"alpha": 0.0}})


def test_attack_validation_surfaces_as_config_error():
    with pytest.raises(ConfigError):
        config_from_dict({"attack": {"kind": "sign_flip", "epsilon": 1.5}})


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
@pytest.mark.parametrize(
    "section, field",
    [("partition", "alpha"), ("dataset", "spread"), ("sgd", "learning_rate"), ("attack", "epsilon")],
)
def test_non_finite_reals_exit_2_at_load(tmp_path, capsys, value, section, field):
    # Python's JSON reader takes NaN and the infinities; a 401-digit int
    # overflows a float.  None may reach a run, or a report's JSON.
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"rounds": 1, "{section}": {{"{field}": {value}}}}}')
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}.{field}: expected a finite number, got ")
    assert not out.exists()


def test_a_fixed_threshold_filter_exits_2_at_load(tmp_path, capsys):
    # Both filters set their own cut from the round's scores; there is no
    # constant threshold to choose.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rounds": 1, "defense": {"filter": "fixed"}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "config error: defense: unknown filter 'fixed'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, gamma",
    [("sign_flip", 0), ("label_flip", -2), ("sign_flip", -0.5), ("random_noise", 0),
     ("ipm", -3), ("ipm", 0), ("ipm", -0.5)],
)
def test_attack_gamma_must_be_positive_at_load(kind, gamma):
    # A negative gamma turns the IPM payload toward the benign direction.
    with pytest.raises(ConfigError, match=r"^attack: gamma must be positive$"):
        config_from_dict({"attack": {"kind": kind, "epsilon": 0.2, "gamma": gamma}})
    assert config_from_dict({"attack": {"kind": kind, "gamma": 0.5}}).attack.gamma == 0.5


def test_seeds_must_be_non_negative_at_load():
    with pytest.raises(ConfigError, match=r"^seed: must be >= 0$"):
        config_from_dict({"seed": -1})
    assert config_from_dict({"seed": 0}).seed == 0


def test_defense_null_versus_object():
    assert config_from_dict({"defense": None}).defense is None
    with pytest.raises(ConfigError, match="expected object or null"):
        config_from_dict({"defense": "adaptive"})
    cfg = config_from_dict({"defense": {}})
    assert cfg.defense is not None
    assert (cfg.defense.filter, cfg.defense.metric) == ("adaptive", "loss")


def test_defense_bad_metric():
    with pytest.raises(ConfigError):
        config_from_dict({"defense": {"metric": "f1"}})


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="no such file"):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(p))


def test_load_config_valid_file(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps({"seed": 7, "dataset": {"kind": "toy", "dims": 12}}))
    cfg = load_config(str(p))
    assert cfg.seed == 7
    assert cfg.dataset.dims == 12


def test_direct_construction_validates():
    with pytest.raises(ConfigError, match="rounds"):
        ExperimentConfig(rounds=-1)
    with pytest.raises(ConfigError, match="local_epochs"):
        ExperimentConfig(local_epochs=0)


def test_specs_validate_when_built_directly():
    with pytest.raises(ValueError, match="dims"):
        ToyDatasetSpec(dims=1)
    with pytest.raises(ValueError, match="alpha"):
        PartitionSpec(alpha=0.0)


SECTIONS = {
    "": ExperimentConfig,
    "sgd": SgdConfig,
    "dataset": ToyDatasetSpec,
    "partition": PartitionSpec,
    "attack": AttackConfig,
    "aggregator": AggregatorConfig,
    "defense": DefenseConfig,
}


def _numeric(hint) -> bool:
    return hint in (int, float) or any(_numeric(arg) for arg in typing.get_args(hint))


@pytest.mark.parametrize(
    "section,name",
    [(s, f.name) for s, cls in SECTIONS.items() for f in dataclasses.fields(cls)],
)
def test_every_field_rejects_typos_and_strings_for_numbers(section, name):
    def nest(obj):
        return {section: obj} if section else obj

    path = f"{section}.{name}" if section else name
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}x: unknown field$"):
        config_from_dict(nest({name + "x": 1}))
    if _numeric(typing.get_type_hints(SECTIONS[section])[name]):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected .*, got str$"):
            config_from_dict(nest({name: "7"}))


def test_readme_config_block_matches_the_defaults():
    text = README.read_text()
    section = text.split("## Config", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert json.loads(block) == config_to_dict(ExperimentConfig())
    inline = re.search(r"`(\{\"noise_dim\".*?\})`", section, re.DOTALL).group(1)
    assert json.loads(inline) == config_to_dict(config_from_dict({"defense": {}}))["defense"]
