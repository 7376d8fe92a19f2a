import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from bfl import aggregators, attacks, cli, orchestrator
from bfl.cli import main
from bfl.attacks import DEFAULT_GAMMA
from bfl.config import config_from_dict, config_to_dict
from bfl.orchestrator import emit_report, run_experiment

TINY = {
    "seed": 4,
    "rounds": 2,
    "clients": 5,
    "sampled_per_round": 3,
    "local_epochs": 1,
    "hidden_dims": [8],
    "dataset": {"kind": "toy", "per_class": 24},
}


def write_config(tmp_path, name="exp.json", **overrides):
    obj = dict(TINY)
    obj.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_run_writes_named_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, name="tiny_fedavg.json")
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "final_acc=" in out
    assert (tmp_path / "out" / "tiny_fedavg.csv").exists()
    assert (tmp_path / "out" / "tiny_fedavg.json").exists()


def test_run_seed_override_changes_report(tmp_path):
    cfg = write_config(tmp_path)
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "b"), "--seed", "99"])
    first = json.loads((tmp_path / "a" / "exp.json").read_text())
    second = json.loads((tmp_path / "b" / "exp.json").read_text())
    assert first["config"]["seed"] == 4
    assert second["config"]["seed"] == 99
    assert first["rounds"] != second["rounds"]


def test_run_is_deterministic_through_cli(tmp_path):
    cfg = write_config(tmp_path)
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "b")])
    for suffix in ("csv", "json"):
        left = (tmp_path / "a" / f"exp.{suffix}").read_bytes()
        right = (tmp_path / "b" / f"exp.{suffix}").read_bytes()
        assert left == right


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    target = tmp_path / "from_env"
    monkeypatch.setenv("BFL_OUT_DIR", str(target))
    assert main(["run", "--config", cfg]) == 0
    assert (target / "exp.csv").exists()


def test_out_dir_flag_beats_env(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("BFL_OUT_DIR", str(tmp_path / "env"))
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "flag")])
    assert (tmp_path / "flag" / "exp.csv").exists()
    assert not (tmp_path / "env").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    # A directory, and a file that is not UTF-8, are no config either.
    (tmp_path / "latin1.json").write_bytes('{"rounds": 1, "x": "\u00e9"}'.encode("latin-1"))
    for path in (tmp_path, tmp_path / "latin1.json"):
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: cannot read (")
    assert not (tmp_path / "out").exists()


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, rounds="many")
    code = main(["run", "--config", cfg])
    assert code == 2
    assert "expected int" in capsys.readouterr().err


def test_sweep_covers_grid(tmp_path, capsys):
    cfg = write_config(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "attack": ["sign_flip", "random_noise"],
        "epsilon": [0.2, 0.4],
    }))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", cfg, "--grid", str(grid), "--out-dir", str(out)])
    assert code == 0
    assert "swept 4 cells" in capsys.readouterr().out
    names = sorted(os.listdir(out))
    assert names == [
        "random_noise_eps0.2.csv", "random_noise_eps0.2.json",
        "random_noise_eps0.4.csv", "random_noise_eps0.4.json",
        "sign_flip_eps0.2.csv", "sign_flip_eps0.2.json",
        "sign_flip_eps0.4.csv", "sign_flip_eps0.4.json",
    ]


def test_sweep_rule_axis_swaps_aggregator(tmp_path):
    cfg = write_config(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "attack": ["sign_flip"],
        "epsilon": [0.4],
        "rule": [
            {"name": "median", "aggregator": {"kind": "coord_median"}},
            {"name": "gan", "defense": {"q": 9, "gen_max_iter": 30}},
        ],
    }))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--grid", str(grid), "--out-dir", str(out)]) == 0
    median_report = json.loads((out / "sign_flip_eps0.4_median.json").read_text())
    gan_report = json.loads((out / "sign_flip_eps0.4_gan.json").read_text())
    assert median_report["config"]["aggregator"]["kind"] == "coord_median"
    assert median_report["config"]["defense"] is None
    assert gan_report["config"]["defense"]["filter"] == "adaptive"
    assert gan_report["config"]["aggregator"]["kind"] == "fedavg"


def test_sweep_bad_grid_axis_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"seeds": [1, 2]}))
    assert main(["sweep", "--config", cfg, "--grid", str(grid)]) == 2
    assert "grid.seeds: unknown field" in capsys.readouterr().err


def test_sweep_rule_needs_name(tmp_path, capsys):
    cfg = write_config(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rule": [{"aggregator": {"kind": "coord_median"}}]}))
    assert main(["sweep", "--config", cfg, "--grid", str(grid)]) == 2
    assert "needs a 'name'" in capsys.readouterr().err


POOL_GRID = {
    "attack": ["sign_flip"],
    "epsilon": [0.4],
    "rule": [
        {"name": "fedavg"},
        {"name": "gan", "defense": {"q": 9, "gen_max_iter": 30}},
        {"name": "median", "aggregator": {"kind": "coord_median"}},
    ],
}
POOL_CELLS = ["sign_flip_eps0.4_fedavg", "sign_flip_eps0.4_gan", "sign_flip_eps0.4_median"]


def run_sweep(tmp_path, grid, out, *extra):
    cfg = write_config(tmp_path)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    return main(["sweep", "--config", cfg, "--grid", str(path), "--out-dir", str(out), *extra])


def read_dir(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_sweep_output_is_identical_for_every_job_count(tmp_path, capsys):
    outputs, printed = [], []
    for label, extra in (("one", ["--jobs", "1"]), ("two", ["--jobs", "2"]), ("default", [])):
        out = tmp_path / label
        assert run_sweep(tmp_path, POOL_GRID, out, *extra) == 0
        assert multiprocessing.active_children() == []
        outputs.append(read_dir(out))
        printed.append(capsys.readouterr().out.replace(str(out), "OUT").splitlines())
    assert sorted(outputs[0]) == sorted(f"{c}.{s}" for c in POOL_CELLS for s in ("csv", "json"))
    assert outputs[0] == outputs[1] == outputs[2]
    assert printed[0] == printed[1] == printed[2]
    assert [line.split(":")[0] for line in printed[0][:-1]] == POOL_CELLS
    assert printed[0][-1] == "swept 3 cells into OUT"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_stops_at_the_first_failing_cell(tmp_path, monkeypatch, capsys, jobs):
    real = cli.run_experiment

    def fail_on_defense(cfg, schedule=None):  # forked workers inherit this patch
        if cfg.defense is not None:
            raise RuntimeError("cell failed")
        return real(cfg, schedule)

    monkeypatch.setattr(cli, "run_experiment", fail_on_defense)
    out = tmp_path / "sweep"
    with pytest.raises(RuntimeError, match="cell failed"):
        run_sweep(tmp_path, POOL_GRID, out, "--jobs", jobs)
    assert multiprocessing.active_children() == []
    assert sorted(os.listdir(out)) == [f"{POOL_CELLS[0]}.csv", f"{POOL_CELLS[0]}.json"]
    assert capsys.readouterr().out.splitlines()[0].startswith(POOL_CELLS[0])


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"epsilon": 0.3}, "grid.epsilon: expected a non-empty list"),
        ({"attack": "ipm"}, "grid.attack: expected a non-empty list"),
        ({"rule": []}, "grid.rule: expected a non-empty list"),
        ({"epsilon": [0.1, 0.10]}, "duplicate cell name 'none_eps0.1'"),
        ({"rule": [{"name": "a"}, {"name": "a", "aggregator": {"kind": "coord_median"}}]},
         "duplicate cell name 'none_eps0_a'"),
        ({"rule": [{"name": "a"}, {"name": "b", "aggregator": {"kind": "nope"}}]},
         "unknown aggregator 'nope'"),
        ({"attack": ["sign_flip", "nope"]}, "unknown attack kind 'nope'"),
        ({"rule": [{"name": "median", "agregator": {"kind": "coord_median"}}]},
         "grid.rule.agregator: unknown field"),
        ({"partition.alpah": [0.1]}, "grid.partition.alpah: unknown field"),
        ({"partiton.alpha": [0.1]}, "grid.partiton.alpha: unknown field"),
        ({"partition.alpha.x": [1]}, "grid.partition.alpha.x: partition.alpha is not an object"),
        ({"rule": [{"name": "gan", "defense": {}}, {"name": "fedavg"}], "defense.q": [9]},
         "grid.defense.q: defense is not an object in this cell"),
        ({"seed": [1, -1]}, "config error: seed: must be >= 0"),
        ({"partition.alpha": [0.5, 0.0]}, "config error: partition: alpha must be positive"),
        ({"seed": [1, 1.0]}, "config error: seed: expected int, got float"),
        ({"dataset.num_classes": [3, 1]}, "config error: dataset: num_classes must be >= 2"),
        ({"dataset.per_class": [1]}, "config error: dataset: per_class must be >= 2"),
        ({"dataset.dims": [1]}, "config error: dataset: dims must be >= 2"),
        ({"dataset.spread": [0.0]}, "config error: dataset: radius and spread must be positive"),
        ({"dataset.test_fraction": [0.5]}, "config error: grid.dataset.test_fraction: unknown field"),
        ({"clients": [0]}, "config error: clients: must be >= 1"),
        ({"clients": [49]}, "config error: clients: 49 clients but the toy dataset has only 48 "),
        ({"epsilon": [-0.1]}, "config error: attack: epsilon must be in [0, 1)"),
        ({"attack.gamma": [-1.0]}, "config error: attack: gamma must be positive"),
        ({"rule": [{"name": "a/b"}, {"name": "ok"}]},
         "config error: grid.rule: 'a/b' cannot be part of a file name"),
        ({"rule": [{"name": "ok"}, {"name": "a\0b"}]},
         "config error: grid.rule: 'a\\x00b' cannot be part of a file name"),
    ],
)
def test_sweep_rejects_bad_grid_before_any_cell_runs(tmp_path, capsys, grid, message):
    out = tmp_path / "sweep"
    assert run_sweep(tmp_path, grid, out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_out_dir_that_cannot_be_made_exits_2_before_any_cell_runs(
    tmp_path, monkeypatch, capsys, command
):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: ran.append(args))
    taken = tmp_path / "taken"
    taken.write_text("")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"seed": [1, 2]}))
    extra = ["--grid", str(grid), "--jobs", "1"] if command == "sweep" else []
    for out in (taken, taken / "sub"):
        assert main([command, "--config", write_config(tmp_path), "--out-dir", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {out}: cannot make the output directory (")
    assert ran == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_report_name_too_long_for_the_out_dir_exits_2_before_any_cell_runs(
    tmp_path, monkeypatch, capsys, command
):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: ran.append(args))
    out = tmp_path / "out"
    if command == "run":  # 252 bytes of stem and ".json" come to 257
        name = "x" * 252
        argv = ["run", "--config", write_config(tmp_path, name=name)]
    else:
        name = "none_eps0_" + "x" * 300
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"rule": [{"name": "x" * 300}]}))
        argv = ["sweep", "--config", write_config(tmp_path), "--grid", str(grid), "--jobs", "1"]
    assert main([*argv, "--out-dir", str(out)]) == 2
    limit = os.pathconf(out, "PC_NAME_MAX")
    assert capsys.readouterr().err == (
        f"config error: {name}.json: a file name of {len(name) + 5} bytes, longer than the "
        f"{limit} that {out} allows\n"
    )
    assert ran == [] and os.listdir(out) == []


def test_the_shipped_configs_load_and_the_grids_expand_over_toy_benign():
    configs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
    names = sorted(os.listdir(configs))
    grids = [name for name in names if name.startswith("grid_")]
    assert grids == ["grid_attacks.json", "grid_heterogeneity.json", "grid_metric.json"]
    for name in names:
        if name not in grids:
            cli.load_config(os.path.join(configs, name))
    base = cli.load_config(os.path.join(configs, "toy_benign.json"))
    cells = {name: len(cli._grid_cells(base, cli.load_json(os.path.join(configs, name))))
             for name in grids}
    assert cells == {"grid_attacks.json": 16, "grid_heterogeneity.json": 280, "grid_metric.json": 720}


@pytest.mark.parametrize("text", [None, "{not json", "directory", b'{"seed": [1, "\xe9"]}'])
def test_sweep_unreadable_grid_exits_2_like_an_unreadable_config(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    if text == "directory":
        bad.mkdir()
    elif isinstance(text, bytes):  # latin-1, not UTF-8
        bad.write_bytes(text)
    elif text is not None:
        bad.write_text(text)
    reason = {None: "no such file", "{not json": "invalid JSON"}.get(text, "cannot read")
    out = tmp_path / "sweep"
    argv = ["--config", str(bad), "--out-dir", str(out)]
    assert main(["run", *argv]) == 2
    config_err = capsys.readouterr().err
    assert main(["sweep", "--config", write_config(tmp_path), "--grid", str(bad),
                 "--out-dir", str(out)]) == 2
    grid_err = capsys.readouterr().err
    assert grid_err == config_err
    assert grid_err.startswith(f"config error: {bad}: {reason}")
    assert not out.exists()


def test_sweep_jobs_must_be_positive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_sweep(tmp_path, POOL_GRID, tmp_path / "sweep", "--jobs", "0")
    assert exc.value.code == 2


def test_import_loads_no_pool_machinery():
    code = (
        "import sys, bfl, bfl.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_oracle_single_rule_passes(capsys):
    code = main(["oracle", "coord_median", "--cases", "10", "--seed", "1"])
    assert code == 0
    assert "10/10 cases match" in capsys.readouterr().out


def test_oracle_all_rules_pass(capsys):
    code = main(["oracle", "all", "--cases", "5", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    for rule in ("multi_krum", "nnm_krum", "coord_median", "trimmed_mean", "geometric_median"):
        assert rule in out


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_oracle_cases_must_be_positive(cases):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "coord_median", "--cases", cases])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_oracle_seed_must_be_a_non_negative_int(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "coord_median", "--seed", seed])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_oracle_reports_a_broken_rule(monkeypatch, capsys):
    # The shared suite looks rules up on bfl.aggregators, so criteria 4/5
    # would see this replacement too.
    monkeypatch.setattr(aggregators, "coord_median", lambda mat: mat.mean(axis=0))
    assert main(["oracle", "coord_median", "--cases", "10", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert "MISMATCHES" in captured.out
    assert "case 0: MISMATCH" in captured.err


def test_oracle_rejects_unknown_rule():
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "fancy_rule"])
    assert exc.value.code == 2


def test_sweep_with_a_defended_krum_cell_completes(tmp_path, capsys):
    # The cluster filter leaves one ipm survivor in rounds 1 and 3, fewer
    # than multi_krum needs, so those rounds fall back to coord_median.
    cfg = write_config(tmp_path, seed=2, clients=10, sampled_per_round=5, rounds=3)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "attack": ["ipm"],
        "epsilon": [0.9],
        "rule": [
            {"name": "fedavg"},
            {"name": "krum_gan", "aggregator": {"kind": "multi_krum"},
             "defense": {"filter": "cluster", "q": 9, "gen_max_iter": 30}},
        ],
    }))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--grid", str(grid), "--out-dir", str(out)]) == 0
    rounds = json.loads((out / "ipm_eps0.9_krum_gan.json").read_text())["rounds"]
    assert any(r.get("aggregator_fallback") == "coord_median" for r in rounds)
    fedavg = json.loads((out / "ipm_eps0.9_fedavg.json").read_text())["rounds"]
    assert not any("aggregator_fallback" in r for r in fedavg)


def test_path_axes_run_between_epsilon_and_rule_in_file_order(tmp_path):
    # Keys come in file order apart from the named ones: attack, then
    # epsilon, then the paths as written, then rule.
    grid = {
        "rule": [{"name": "fedavg"}, {"name": "median", "aggregator": {"kind": "coord_median"}}],
        "seed": [5, 6],
        "epsilon": [0.2],
        "partition.alpha": [0.1, 1],
        "attack": ["sign_flip"],
    }
    cells = cli._grid_cells(cli.load_config(write_config(tmp_path)), grid)
    assert [name for name, _ in cells] == [
        f"sign_flip_eps0.2_seed{seed}_alpha{alpha}_{rule}"
        for seed in (5, 6) for alpha in ("0.1", "1") for rule in ("fedavg", "median")
    ]
    for name, cfg in cells:
        assert name.startswith(f"sign_flip_eps0.2_seed{cfg.seed}_alpha{cfg.partition.alpha:g}_")
        assert cfg.aggregator.kind == ("coord_median" if name.endswith("median") else "fedavg")
        assert cfg.dataset.per_class == 24  # the rest of the base is kept


@pytest.mark.parametrize("attack", [{"kind": "sign_flip"}, {"kind": "sign_flip", "gamma": 5.0}])
@pytest.mark.parametrize("switch", ["label_flip", "ipm", "none", "random_noise"])
def test_a_grid_cell_equals_the_config_that_writes_its_fields(tmp_path, monkeypatch, attack, switch):
    # A gamma the base writes stays; an unset one stays unset, and the
    # payload is built with the default of the kind the grid switches to.
    base = {**TINY, "attack": {**attack, "epsilon": 0.3}}
    [(_, cell)] = cli._grid_cells(cli.load_config(write_config(tmp_path, **base)), {"attack": [switch]})
    written = config_from_dict({**base, "attack": {**base["attack"], "kind": switch}})
    assert config_to_dict(cell) == config_to_dict(written)
    assert cell.attack.gamma == attack.get("gamma")
    gamma = attack.get("gamma", DEFAULT_GAMMA.get(switch))
    stated = config_from_dict({**base, "attack": {**base["attack"], "kind": switch, "gamma": gamma}})
    stacks, apply = [], attacks.apply_attack

    def keep(acfg, seed, t, bad_rows, deltas, *rest):
        apply(acfg, seed, t, bad_rows, deltas, *rest)
        stacks.append((bool(bad_rows), deltas.tobytes()))

    monkeypatch.setattr(attacks, "apply_attack", keep)
    run_experiment(cell)
    run_experiment(stated)
    ran = stacks[:TINY["rounds"]]
    assert ran == stacks[TINY["rounds"]:]  # the attacked delta stacks, round by round
    assert any(bad for bad, _ in ran) == (switch != "none")


def test_alpha_by_seed_sweep_writes_one_report_per_cell(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_sweep(tmp_path, {"partition.alpha": [0.1, 100], "seed": [4, 5]}, out) == 0
    names = [f"none_eps0_alpha{a}_seed{s}" for a in ("0.1", "100") for s in (4, 5)]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == names
    for name in names:
        echo = json.loads((out / f"{name}.json").read_text())["config"]
        assert f"_alpha{echo['partition']['alpha']:g}_seed{echo['seed']}" in name


def test_a_path_axis_writes_into_each_rules_aggregator(tmp_path):
    base = cli.load_config(write_config(tmp_path, clients=10, sampled_per_round=10))
    grid = {
        "aggregator.beta": [0.0, 0.2],
        "rule": [
            {"name": "krum", "aggregator": {"kind": "multi_krum"}},
            {"name": "nnm", "aggregator": {"kind": "nnm_krum"}},
            {"name": "gan", "defense": {}},
        ],
        "defense.q": [9],
    }
    with pytest.raises(cli.ConfigError, match="grid.defense.q: defense is not an object"):
        cli._grid_cells(base, grid)
    grid["rule"].pop()
    del grid["defense.q"]
    cells = dict(cli._grid_cells(base, grid))
    assert list(cells) == ["none_eps0_beta0_krum", "none_eps0_beta0_nnm",
                           "none_eps0_beta0.2_krum", "none_eps0_beta0.2_nnm"]
    for name, cfg in cells.items():
        assert cfg.aggregator.kind == ("multi_krum" if name.endswith("krum") else "nnm_krum")
        assert cfg.aggregator.beta == (0.2 if "beta0.2" in name else 0.0)


def test_a_path_axis_writes_into_each_rules_defense(tmp_path):
    grid = {
        "defense.q": [9, 12],
        "rule": [{"name": "adaptive", "defense": {"metric": "accuracy"}},
                 {"name": "cluster", "defense": {"filter": "cluster"}}],
    }
    base = cli.load_config(write_config(tmp_path, defense={"gen_max_iter": 30}))
    cells = dict(cli._grid_cells(base, grid))
    assert list(cells) == ["none_eps0_q9_adaptive", "none_eps0_q9_cluster",
                           "none_eps0_q12_adaptive", "none_eps0_q12_cluster"]
    for name, cfg in cells.items():
        assert cfg.defense.q == int(name.split("_q")[1].split("_")[0])
        # The fields a rule leaves out keep their defaults, not the base's.
        assert cfg.defense.gen_max_iter == 2000
        assert (cfg.defense.filter, cfg.defense.metric) == (
            ("adaptive", "accuracy") if name.endswith("adaptive") else ("cluster", "loss"))


def test_sweep_and_run_print_the_same_summary(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 0
    run_line = capsys.readouterr().out.splitlines()[0]
    assert run_line.startswith("final_acc=") and " mean_tpr=" in run_line and " mean_tnr=" in run_line
    out = tmp_path / "sweep"
    assert run_sweep(tmp_path, {"seed": [TINY["seed"]]}, out) == 0
    sweep_line = capsys.readouterr().out.splitlines()[0]
    assert sweep_line == f"none_eps0_seed4: {run_line} -> {out / 'none_eps0_seed4.csv'}"
    assert (out / "none_eps0_seed4.json").read_bytes() == (tmp_path / "run" / "exp.json").read_bytes()


@pytest.mark.parametrize(
    "overrides, argv, message",
    [
        ({"seed": -1}, [], "seed: must be >= 0"),
        ({}, ["--seed", "-5"], "seed: must be >= 0"),
    ],
)
def test_negative_seeds_exit_2_at_load(tmp_path, capsys, overrides, argv, message):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out), *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, grid, message",
    [
        ("run", {**TINY, "batch": 0}, None, "batch: must be >= 1"),
        ("run", [TINY], None, "top level: expected a JSON object"),
        ("sweep", TINY, [{"seed": [1]}], "grid: expected a JSON object"),
    ],
    ids=["batch-0", "config-list", "grid-list"],
)
def test_load_time_refusals_exit_2_with_no_output_directory(
    tmp_path, capsys, command, config, grid, message
):
    (tmp_path / "exp.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(tmp_path / "exp.json"), "--out-dir", str(out)]
    if grid is not None:
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        argv += ["--grid", str(tmp_path / "grid.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [["-v"], []], ids=["verbose", "quiet"])
def test_verbose_logs_one_info_line_per_round(tmp_path, flags):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = [sys.executable, "-m", "bfl.cli", *flags, "run", "--config", write_config(tmp_path),
            "--out-dir", str(tmp_path / "out")]
    done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    lines = done.stderr.splitlines()
    assert len(lines) == (TINY["rounds"] if flags else 0)
    for t, line in enumerate(lines, 1):
        assert re.fullmatch(rf"INFO bfl\.orchestrator: round {t} acc=\S+ .* gan_iters=\d+ \(\d+ ms\)", line)


# Cells of one seed and alpha share a schedule: two attacks, an undefended
# mean, the geometric median and a defended filter over each of four keys.
SHARED_GRID = {
    "attack": ["label_flip", "ipm"],
    "seed": [3, 4],
    "partition.alpha": [0.1, 100],
    "rule": [
        {"name": "fedavg", "aggregator": {"kind": "fedavg"}},
        {"name": "geomed", "aggregator": {"kind": "geometric_median"}},
        {"name": "adaptive", "defense": {"filter": "adaptive", "q": 9, "gen_max_iter": 30}},
    ],
}
SHARED_BASE = {"clients": 6, "sampled_per_round": 4, "attack": {"kind": "ipm", "epsilon": 0.34}}


def count_schedule_builds(monkeypatch):
    built = []
    real = orchestrator.Schedule.build

    def build(cfg):
        built.append(orchestrator.schedule_key(cfg))
        return real(cfg)

    monkeypatch.setattr(orchestrator.Schedule, "build", staticmethod(build))
    return built


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_cells_sharing_a_schedule_match_cells_run_alone(tmp_path, monkeypatch, jobs):
    built = count_schedule_builds(monkeypatch)
    cfg = write_config(tmp_path, **SHARED_BASE)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(SHARED_GRID))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--grid", str(path), "--out-dir", str(out), "--jobs", jobs]) == 0
    assert cli.SCHEDULES == {}
    cells = cli._grid_cells(config_from_dict({**TINY, **SHARED_BASE}), SHARED_GRID)
    assert len(cells) == 24
    if jobs == "1":  # forked workers build theirs out of sight
        assert sorted(built) == sorted({orchestrator.schedule_key(c) for _, c in cells})
    built.clear()
    for name, cell in cells:
        emit_report(run_experiment(cell), str(tmp_path / "alone"), name)
    assert len(built) == 24
    assert read_dir(out) == read_dir(tmp_path / "alone")


def test_the_schedule_memo_is_emptied_when_a_cell_raises(tmp_path, monkeypatch):
    real = cli.run_experiment
    held = []

    def fail_on_the_third(cfg, schedule=None):
        held.append(len(cli.SCHEDULES))
        if len(held) == 3:
            raise RuntimeError("cell failed")
        return real(cfg, schedule)

    monkeypatch.setattr(cli, "run_experiment", fail_on_the_third)
    with pytest.raises(RuntimeError, match="cell failed"):
        run_sweep(tmp_path, {"seed": [1, 2, 3]}, tmp_path / "sweep", "--jobs", "1")
    assert held == [1, 2, 3]
    assert cli.SCHEDULES == {}

