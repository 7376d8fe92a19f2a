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
`oracle` replays the brute-force equivalence suites for the robust
aggregation rules.  Exit codes: 0 on success, 1 on an oracle mismatch, 2 on
a config problem.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import logging
import os
import sys
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from . import oracles
from .aggregators import (
    ClientUpdate,
    coord_median,
    geometric_median,
    geometric_objective,
    multi_krum,
    nnm_krum,
    nnm_mix,
    trimmed_mean,
)
from .config import ConfigError, ExperimentConfig, config_from_dict, config_to_dict, load_config
from .orchestrator import RunReport, emit_report, run_experiment

ORACLE_RULES = ("multi_krum", "nnm_krum", "coord_median", "trimmed_mean", "geometric_median")


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
    try:
        with open(path) as fh:
            grid = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: no such file") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
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


def _random_updates(
    rng: np.random.Generator, n: int, dim: int
) -> List[ClientUpdate]:
    return [
        ClientUpdate(i, rng.standard_normal(dim), int(rng.integers(1, 50)))
        for i in range(n)
    ]


def _oracle_cases(rule: str, cases: int, seed: int) -> int:
    """Compare one rule against its brute-force twin; returns mismatches."""
    rng = np.random.default_rng(seed)
    bad = 0
    for case in range(cases):
        n = int(rng.integers(4, 9))
        dim = int(rng.integers(1, 6))
        beta = float(rng.choice([0.1, 0.2, 0.3]))
        while n - int(np.ceil(beta * n)) - 2 < 1:
            n = int(rng.integers(4, 9))
        updates = _random_updates(rng, n, dim)
        vectors = [u.params for u in updates]
        ids = [u.client_id for u in updates]
        ok = True
        if rule == "multi_krum":
            got, _ = multi_krum(updates, beta)
            want, _ = oracles.brute_force_multi_krum(vectors, ids, beta)
            ok = got == want
        elif rule == "nnm_krum":
            mixed = nnm_mix(updates, beta)
            want_mix = oracles.brute_force_nnm_mix(vectors, ids, beta)
            ok = all(
                np.allclose(m.params, w, atol=1e-12) for m, w in zip(mixed, want_mix)
            )
            got, _ = nnm_krum(updates, beta)
            want, _ = oracles.brute_force_multi_krum(
                [m.params for m in mixed], ids, beta
            )
            ok = ok and got == want
        elif rule == "coord_median":
            ok = np.allclose(coord_median(updates), oracles.sort_based_median(vectors), atol=1e-12)
        elif rule == "trimmed_mean":
            ok = np.allclose(
                trimmed_mean(updates, beta),
                oracles.sort_based_trimmed_mean(vectors, beta),
                atol=1e-12,
            )
        elif rule == "geometric_median":
            pts = [ClientUpdate(i, rng.standard_normal(2), 1) for i in range(n)]
            mat = np.stack([p.params for p in pts])
            got_obj = geometric_objective(geometric_median(pts), mat)
            _, want_obj = oracles.grid_search_geometric_median(mat)
            ok = abs(got_obj - want_obj) <= 1e-6
        if not ok:
            bad += 1
            print(f"  case {case}: MISMATCH", file=sys.stderr)
    return bad


def _cmd_oracle(args: argparse.Namespace) -> int:
    rules = ORACLE_RULES if args.rule == "all" else (args.rule,)
    failed = 0
    for rule in rules:
        cases = min(args.cases, 20) if rule == "geometric_median" else args.cases
        bad = _oracle_cases(rule, cases, args.seed)
        status = "ok" if bad == 0 else f"{bad} MISMATCHES"
        print(f"{rule}: {cases - bad}/{cases} cases match ({status})")
        failed += bad
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
    p_oracle.add_argument("rule", choices=ORACLE_RULES + ("all",))
    p_oracle.add_argument("--cases", type=int, default=100)
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
