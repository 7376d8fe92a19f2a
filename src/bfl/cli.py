"""Command line entry points.

    bfl run --config exp.json [--out-dir out] [--seed 7]
    bfl sweep --config exp.json --grid grid.json [--out-dir out] [--jobs N]
    bfl oracle <rule|all> [--cases N] [--seed S]

`run` executes one experiment and writes <config-stem>.csv/.json into the
output directory (--out-dir, else $BFL_OUT_DIR, else the working directory),
made once the config (and a sweep's grid) has loaded, before any cell runs.
`sweep` runs the base config once per cell of a cartesian grid whose keys
are dotted config paths (`attack` and `epsilon` stand for `attack.kind` and
`attack.epsilon`) plus `rule`, a list of named aggregator/defense overlays.
It validates every cell before any runs, then maps `run_experiment` over
them: in this process with one job, otherwise in a pool of forked workers
(--jobs, default the usable CPUs) that is joined before the command
returns.  Cells that differ only in attack, aggregator, defense or SGD
settings share one `orchestrator.Schedule` per process, built for the first
of them, and the memo that holds it is emptied when the sweep ends.  Cells
are pure functions of (config, seed) and this process writes the reports in
grid order, so the output is the same for every job count.
`oracle` replays `oracles.rule_mismatches`, the equivalence suite that
acceptance criteria 4 and 5 run, for one robust aggregation rule or all of
them (--cases N, at least 1; geometric_median runs at most 20; --seed S,
at least 0).
Exit codes: 0 on success, 1 on an oracle mismatch, 2 on a config problem,
such as an output directory that cannot be made or a report name that
holds a path separator or is too long for it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import logging
import os
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import oracles
from .aggregators import AggregatorConfig
from .config import (
    ConfigError, ExperimentConfig, config_from_dict, config_to_dict, load_config, load_json,
)
from .defense import DefenseConfig
from .orchestrator import RunReport, Schedule, emit_report, run_experiment, schedule_key

SUMMARY = "final_acc={0.final_acc:.4f} mean_tpr={0.mean_tpr:.4f} mean_tnr={0.mean_tnr:.4f}"
ALIASES = {"attack": "attack.kind", "epsilon": "attack.epsilon"}  # short grid keys
RULE_OBJECTS = {"aggregator": AggregatorConfig, "defense": DefenseConfig}
SCHEDULES: Dict[str, Schedule] = {}  # a sweep's schedules by key, emptied when it ends


def _out_dir(flag: Optional[str], names: List[str]) -> str:
    """The output directory, made now, for the reports `names`: a directory
    that cannot be made, or a report name longer than its file system
    allows, is a config problem, found before any cell runs."""
    path = flag or os.environ.get("BFL_OUT_DIR") or "."
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot make the output directory ({exc.strerror})") from exc
    limit = os.pathconf(path, "PC_NAME_MAX")
    for name in names:
        longest = len(os.fsencode(f"{name}.json"))  # .json is longer than .csv
        if 0 <= limit < longest:
            raise ConfigError(f"{name}.json: a file name of {longest} bytes, longer than the "
                              f"{limit} that {path} allows")
    return path


def _override(base: ExperimentConfig, settings: List[Tuple[str, Any]]) -> ExperimentConfig:
    """`base` with the field at each dotted path set in turn, validated afresh: the config of
    a file that writes those fields into `base`'s, so a gamma that `base` left unset stays
    the default of the cell's attack kind.  An unknown field or a non-object parent
    (`defense.q` with no defense) names the grid key."""
    cell = config_to_dict(base)
    if not base.attack.gamma_set:
        cell["attack"]["gamma"] = None
    for path, value in settings:
        *parents, leaf = path.split(".")
        node = cell
        for depth, key in enumerate(parents, 1):
            node = node.get(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"grid.{path}: {'.'.join(parents[:depth])} is not an object in this cell")
        if leaf not in node:
            raise ConfigError(f"grid.{path}: unknown field")
        node[leaf] = value
    return config_from_dict(cell)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = _override(cfg, [("seed", args.seed)])
    name = os.path.splitext(os.path.basename(args.config))[0]
    out_dir = _out_dir(args.out_dir, [name])
    report = run_experiment(cfg)
    csv_path, json_path = emit_report(report, out_dir, name)
    print(SUMMARY.format(report))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _grid_cells(base: ExperimentConfig, grid: Any) -> List[Tuple[str, ExperimentConfig]]:
    """Every (name, config) cell, validated, over `attack`, then `epsilon`,
    then the other keys in file order, then `rule`.  A rule lays down its
    objects, filled out with defaults, before the other keys write into them.
    Names are unique file names, so no cell's report overwrites another's or
    lands outside the output directory."""
    if not isinstance(grid, dict):
        raise ConfigError("grid: expected a JSON object")
    keys = sorted(grid, key=lambda k: (k != "attack", k != "epsilon", k == "rule"))
    for key in keys:
        if not isinstance(grid[key], list) or not grid[key]:
            raise ConfigError(f"grid.{key}: expected a non-empty list")
    for rule in grid.get("rule", []):
        if not isinstance(rule, dict) or "name" not in rule:
            raise ConfigError("grid.rule: each entry needs a 'name'")
        for key in rule:
            if key not in ("name", *RULE_OBJECTS):
                raise ConfigError(f"grid.rule.{key}: unknown field")
    cells: Dict[str, ExperimentConfig] = {}
    for values in itertools.product(*(grid[key] for key in keys)):
        settings, suffix = [], ""
        for key, value in zip(keys, values):
            if key == "rule":
                settings[:0] = [(k, {**config_to_dict(cls()), **value[k]} if isinstance(value[k], dict)
                                 else value[k]) for k, cls in RULE_OBJECTS.items() if k in value]
                label = value["name"]
                suffix += f"_{label}"
            else:
                settings.append((ALIASES.get(key, key), value))
                label = format(value, "g") if isinstance(value, float) else value
                suffix += "" if key in ALIASES else f"_{key.rsplit('.', 1)[-1]}{label}"
            if any(c and c in f"{label}" for c in (os.sep, os.altsep, "\0")):
                raise ConfigError(f"grid.{key}: {label!r} cannot be part of a file name")
        cfg = _override(base, settings)
        name = f"{cfg.attack.kind}_eps{cfg.attack.epsilon:g}{suffix}"
        if name in cells:
            raise ConfigError(f"grid: duplicate cell name {name!r}")
        cells[name] = cfg
    return list(cells.items())


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_cell(cfg: ExperimentConfig) -> RunReport:
    # Pickled by reference, so a forked worker calls the `run_experiment`
    # bound in its copy of this module, wrappers included, and keeps its
    # own copy of the memo.
    key = schedule_key(cfg)
    if key not in SCHEDULES:
        SCHEDULES[key] = Schedule.build(cfg)
    return run_experiment(cfg, SCHEDULES[key])


@contextlib.contextmanager
def _cell_mapper(jobs: int) -> Iterator[Callable]:
    """An order-preserving map over cells: the builtin map for one job,
    else the map of a pool of `jobs` forked workers.

    The pool's pending cells are cancelled and its workers joined on exit,
    so their CPU time is reaped before the caller goes on.  `fork` is
    explicit: spawned workers re-import numpy, and forkserver workers are
    not children of this process.  bfl starts no threads of its own, so
    the fork copies none mid-operation.
    """
    if jobs == 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _cmd_sweep(args: argparse.Namespace) -> int:
    cells = _grid_cells(load_config(args.config), load_json(args.grid))
    out_dir = _out_dir(args.out_dir, [name for name, _ in cells])
    jobs = min(args.jobs or _usable_cpus(), len(cells))
    try:
        with _cell_mapper(jobs) as cell_map:
            reports = cell_map(_run_cell, [cfg for _, cfg in cells])
            for (name, _), report in zip(cells, reports):
                csv_path, _ = emit_report(report, out_dir, name)
                print(f"{name}: {SUMMARY.format(report)} -> {csv_path}")
    finally:
        SCHEDULES.clear()
    print(f"swept {len(cells)} cells into {out_dir}")
    return 0


def _int_at_least(lowest: int) -> Callable[[str], int]:
    """An argparse type: an int no less than `lowest`."""

    def integer(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value

    return integer


def _cmd_oracle(args: argparse.Namespace) -> int:
    rules = oracles.ORACLE_RULES if args.rule == "all" else (args.rule,)
    failed = 0
    for rule in rules:
        # The grid-search oracle is slow, so it runs at most 20 cases.
        cases = min(args.cases, 20) if rule == "geometric_median" else args.cases
        bad = oracles.rule_mismatches(rule, cases, args.seed)
        for case in bad:
            print(f"  case {case}: MISMATCH", file=sys.stderr)
        status = "ok" if not bad else f"{len(bad)} MISMATCHES"
        print(f"{rule}: {cases - len(bad)}/{cases} cases match ({status})")
        failed += len(bad)
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bfl", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="log per-round progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a cartesian grid of experiments")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", required=True)
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.add_argument("--jobs", type=_int_at_least(1), default=None,
                         help="worker processes (default: the usable CPUs, at most one per cell)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="replay brute-force aggregation checks")
    p_oracle.add_argument("rule", choices=oracles.ORACLE_RULES + ("all",))
    p_oracle.add_argument("--cases", type=_int_at_least(1), default=100)
    p_oracle.add_argument("--seed", type=_int_at_least(0), default=0)
    p_oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
