"""Command line entry points.

    bfl run --config exp.json [--out-dir out] [--seed 7]
    bfl sweep --config exp.json --grid grid.json [--out-dir out] [--jobs N]
    bfl oracle <rule|all> [--cases N] [--seed S]

`run` executes one experiment and writes <config-stem>.csv/.json into the
output directory (--out-dir, else $BFL_OUT_DIR, else the working directory).
`sweep` repeats the base config over a cartesian grid of attack settings.
It expands and validates every cell before any runs, then maps
`run_experiment` over the cells: in this process with one job, otherwise in
a pool of forked workers (--jobs, default the usable CPUs) that is joined
before the command returns.  Cells are pure functions of (config, seed) and
this process writes the reports in grid order, so the output is the same
for every job count.
`oracle` replays `oracles.rule_mismatches`, the equivalence suite that
acceptance criteria 4 and 5 run, for one robust aggregation rule or all of
them (--cases N, at least 1; geometric_median runs at most 20).
Exit codes: 0 on success, 1 on an oracle mismatch, 2 on a config problem.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import logging
import os
import sys
from typing import Callable, Iterator, List, Optional, Tuple

from . import oracles
from .config import (
    ConfigError, ExperimentConfig, config_from_dict, config_to_dict, load_config, load_json,
)
from .orchestrator import RunReport, emit_report, run_experiment


def _out_dir(flag: Optional[str]) -> str:
    return flag or os.environ.get("BFL_OUT_DIR") or "."


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    report = run_experiment(cfg)
    name = os.path.splitext(os.path.basename(args.config))[0]
    csv_path, json_path = emit_report(report, _out_dir(args.out_dir), name)
    print(f"final_acc={report.final_acc:.4f} mean_tpr={report.mean_tpr:.4f} mean_tnr={report.mean_tnr:.4f}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _load_grid(path: str) -> dict:
    grid = load_json(path)
    if not isinstance(grid, dict):
        raise ConfigError("grid: expected a JSON object")
    for key in grid:
        if key not in ("epsilon", "attack", "rule"):
            raise ConfigError(f"grid.{key}: unknown axis (use epsilon, attack, rule)")
    return grid


def _grid_cells(base: ExperimentConfig, grid: dict) -> List[Tuple[str, ExperimentConfig]]:
    """Every (name, config) cell of the grid in grid order, each validated.

    Names are unique, so no cell's report overwrites another's.
    """
    axes = []
    for axis, default in (
        ("attack", [base.attack.kind]),
        ("epsilon", [base.attack.epsilon]),
        ("rule", [None]),
    ):
        values = grid.get(axis, default)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.{axis}: expected a non-empty list")
        axes.append(values)
    kinds, epsilons, rules = axes
    base_dict = config_to_dict(base)
    cells: List[Tuple[str, ExperimentConfig]] = []
    names = set()
    for kind in kinds:
        for eps in epsilons:
            for rule in rules:
                cell = copy.deepcopy(base_dict)
                cell["attack"]["kind"] = kind
                cell["attack"]["epsilon"] = eps
                suffix = ""
                if rule is not None:
                    if not isinstance(rule, dict) or "name" not in rule:
                        raise ConfigError("grid.rule: each entry needs a 'name'")
                    for key in rule:
                        if key not in ("name", "aggregator", "defense"):
                            raise ConfigError(f"grid.rule.{key}: unknown field")
                    if "aggregator" in rule:
                        cell["aggregator"] = rule["aggregator"]
                    if "defense" in rule:
                        cell["defense"] = rule["defense"]
                    suffix = f"_{rule['name']}"
                cfg = config_from_dict(cell)
                name = f"{cfg.attack.kind}_eps{cfg.attack.epsilon:g}{suffix}"
                if name in names:
                    raise ConfigError(f"grid: duplicate cell name {name!r}")
                names.add(name)
                cells.append((name, cfg))
    return cells


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cell(cfg: ExperimentConfig) -> RunReport:
    # Pickled by reference, so a forked worker calls the `run_experiment`
    # bound in its copy of this module, wrappers included.
    return run_experiment(cfg)


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
    cells = _grid_cells(load_config(args.config), _load_grid(args.grid))
    out_dir = _out_dir(args.out_dir)
    jobs = min(args.jobs or _usable_cpus(), len(cells))
    with _cell_mapper(jobs) as cell_map:
        reports = cell_map(_run_cell, [cfg for _, cfg in cells])
        for (name, _), report in zip(cells, reports):
            csv_path, _ = emit_report(report, out_dir, name)
            print(f"{name}: final_acc={report.final_acc:.4f} -> {csv_path}")
    print(f"swept {len(cells)} cells into {out_dir}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    p_sweep.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes (default: the usable CPUs, at most one per cell)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="replay brute-force aggregation checks")
    p_oracle.add_argument("rule", choices=oracles.ORACLE_RULES + ("all",))
    p_oracle.add_argument("--cases", type=_positive_int, default=100)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
