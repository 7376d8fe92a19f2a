"""The bfl benchmark's workloads, measurement loop and metrics.

`run_workload` runs one workload and returns its full record; bfl_bench.py
is the command-line entry point.  bench/README.md defines the workloads and
the metrics.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import micro
from calibrate import Reference
from bfl import aggregators, attacks, cli, config, data, defense, orchestrator, rng
from spans import C0, C1, CELL, INFO, NAME, PARENT, T0, T1, Site, Tracer, by_name, children, dump

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

# Experiment seeds come from a fixed panel of PANEL seeds, ACCEPTANCE_SEED +
# i * SEED_STRIDE.  A run with --seed s covers `Workload.seeds` consecutive
# panel entries from index (s - ACCEPTANCE_SEED) mod PANEL, so --seed 42
# starts at the acceptance cell.  bench/effort.json holds this commit's
# generator iterations and report digest for every panel seed at 30 rounds.
ACCEPTANCE_SEED = 42
SEED_STRIDE = 7919
PANEL = 12
EFFORT_FILE = Path(__file__).resolve().parent / "effort.json"
# Generator iterations per round at which rounds_per_s and cpu_s_per_round
# are stated, before the effort ratio (see `throughput`): the mean of the
# acceptance cell (ipm + cluster, alpha 100, seed 42: 11200 iterations over
# 30 rounds).  The effort a cell needs varies 3x across seeds, so a round
# rate at the effort each seed happens to need would measure the seed.
REF_GEN_ITERS = 373
SETUP_PROBES = 21
# A reference burst (calibrate.py, ~2.7 ms) runs at the first round boundary
# after every CAL_EVERY_S of work.  Throughput is counted in reference steps
# and converted back to seconds at CAL_NOMINAL_S per step, the median step
# time on the 2-core machine of the baseline.
CAL_EVERY_S = 0.1
CAL_NOMINAL_S = 237e-6
SWEEP_RULES = ("fedavg", "coord_median", "geometric_median", "nnm_krum")
SWEEP_ATTACKS = ("sign_flip", "label_flip", "ipm", "random_noise")
ATTACK_FNS = (
    "assign_roles", "rotate_labels", "draw_shared_noise", "random_noise_attack",
    "sign_flip_attack", "scale_delta", "ipm_attack",
)


@dataclass(frozen=True)
class Workload:
    name: str
    attack: str
    alpha: float
    defense: Optional[str]  # filter policy; None runs undefended
    seeds: int  # distinct experiment seeds per run
    sweep: bool = False

    @property
    def cells_per_unit(self) -> int:
        return len(SWEEP_RULES) * len(SWEEP_ATTACKS) if self.sweep else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("defended_iid", "ipm", 100.0, "cluster", seeds=3),
        Workload("defended_noniid", "sign_flip", 0.1, "adaptive", seeds=3),
        # Which undefended cells collapse depends on the seed, so the sweep's
        # accuracy needs more seeds to settle; a sweep unit is only ~4.5 s.
        Workload("sweep_undefended", "sign_flip", 100.0, None, seeds=6, sweep=True),
    )
}


def scenario(w: Workload, seed: int, rounds: int) -> Dict[str, Any]:
    """The acceptance scenario as a config dict (for a sweep, its base)."""
    return {
        "seed": seed,
        "rounds": rounds,
        "clients": 20,
        "sampled_per_round": 10,
        "local_epochs": 5,
        "batch": 128,
        "hidden_dims": [16, 16],
        "sgd": {"learning_rate": 0.01, "momentum": 0.9, "weight_decay": 1e-4},
        "dataset": {"kind": "toy", "num_classes": 3, "per_class": 300,
                    "radius": 3.0, "spread": 0.6, "dims": 12},
        "partition": {"alpha": w.alpha},
        "attack": {"kind": w.attack, "epsilon": 0.3},
        "aggregator": {"kind": "fedavg"},
        "defense": {"filter": w.defense, "metric": "loss"} if w.defense else None,
    }


def sweep_grid() -> Dict[str, Any]:
    return {
        "attack": list(SWEEP_ATTACKS),
        "epsilon": [0.3],
        "rule": [{"name": k, "aggregator": {"kind": k}} for k in SWEEP_RULES],
    }


def cell_seeds(w: Workload, seed: int) -> List[int]:
    """The run's distinct experiment seeds: consecutive entries of the panel."""
    return [ACCEPTANCE_SEED + SEED_STRIDE * ((seed - ACCEPTANCE_SEED + k) % PANEL)
            for k in range(w.seeds)]


# ---------------------------------------------------------------- tracing sites


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _keep_report(args, kwargs, report):
    return {"report": report}


def _finite(args, kwargs, acc):
    return {"weights": bool(np.isfinite(_arg(args, kwargs, 0, "params")).all()),
            "acc": math.isfinite(acc)}


def _local_steps(args, kwargs, out):
    count = len(_arg(args, kwargs, 0, "client"))
    bsz = min(_arg(args, kwargs, 5, "batch"), count)
    return {"steps": _arg(args, kwargs, 4, "epochs") * -(-count // bsz)}


def _report_bytes(args, kwargs, paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _candidates(args, kwargs, entries):
    return {"candidates": len(entries)}


def _accepted(args, kwargs, accepted):
    return {"accepted": len(accepted), "offered": len(_arg(args, kwargs, 0, "entries"))}


def _aggregate_name(args, kwargs) -> str:
    return f"aggregators.aggregate.{_arg(args, kwargs, 1, 'cfg').kind}"


def cell_sites(at_round_end: Callable) -> List:
    """Installed on every unit: the reports returned in this process (to
    compare with the emitted ones), round boundaries (where `at_round_end`
    checks the weights and calibrates), and the generator's time.  About 32
    calls per 30-round cell."""
    return [
        Site(orchestrator, "run_experiment", "orchestrator.run_experiment", _keep_report),
        Site(cli, "run_experiment", "orchestrator.run_experiment", _keep_report),
        Site(orchestrator, "evaluate_global", "orchestrator.evaluate_global", at_round_end),
        Site(defense, "train_generator", "defense.train_generator"),
    ]


def trace_sites() -> List:
    """Added on traced units: every other layer boundary of a round."""
    return [
        Site(config, "config_from_dict", "config.parse", new_cell=True),
        Site(cli, "config_from_dict", "config.parse", new_cell=True),
        Site(orchestrator, "emit_report", "orchestrator.emit_report", _report_bytes),
        Site(cli, "emit_report", "orchestrator.emit_report", _report_bytes),
        Site(orchestrator, "build_datasets", "data.build_datasets"),
        Site(orchestrator, "dirichlet_partition", "data.dirichlet_partition"),
        Site(orchestrator, "local_training", "orchestrator.local_training", _local_steps),
        Site(orchestrator, "aggregate", _aggregate_name),
        Site(defense, "synthesize", "defense.synthesize"),
        Site(defense, "score_updates", "defense.score_updates", _candidates),
        Site(defense, "filter_updates", "defense.filter_updates", _accepted),
        *[Site(attacks, fn, f"attacks.{fn}") for fn in ATTACK_FNS],
        Site(rng, "substream", "rng.substream"),
        Site(defense, "substream", "rng.substream"),
        Site(data, "substream", "rng.substream"),
    ]


# ------------------------------------------------------------------ one unit


def prepare_unit(w: Workload, seed: int, rounds: int, unit_dir: Path) -> Callable[[], None]:
    """Write the unit's inputs and return the timed call.

    A unit is one cell (config parse, run, report emission) for the defended
    workloads and one `bfl sweep` over 16 cells for the sweep.
    """
    unit_dir.mkdir(parents=True)
    out_dir = str(unit_dir / "out")
    cell = scenario(w, seed, rounds)
    if w.sweep:
        (unit_dir / "base.json").write_text(json.dumps(cell))
        (unit_dir / "grid.json").write_text(json.dumps(sweep_grid()))
        argv = ["sweep", "--config", str(unit_dir / "base.json"),
                "--grid", str(unit_dir / "grid.json"), "--out-dir", out_dir]

        def run_sweep() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"bfl sweep exited with {code}")

        return run_sweep

    def run_cell() -> None:
        report = orchestrator.run_experiment(config.config_from_dict(cell))
        orchestrator.emit_report(report, out_dir, w.name)

    return run_cell


def check_report(report: Dict[str, Any]) -> List[str]:
    """Invariants every emitted cell report must satisfy."""
    cfg, rounds = report["config"], report["rounds"]
    problems = []
    if not all(math.isfinite(r["acc"]) for r in rounds) or not math.isfinite(report["final_acc"]):
        problems.append("non-finite accuracy")
    if len(rounds) != cfg["rounds"]:
        problems.append(f"{len(rounds)} rounds, config says {cfg['rounds']}")
    max_iter = cfg["defense"]["gen_max_iter"] if cfg["defense"] else 0
    for r in rounds:
        accepted, rejected = set(r["accepted"]), set(r["rejected"])
        if accepted & rejected or len(accepted | rejected) != cfg["sampled_per_round"]:
            problems.append(f"round {r['round']}: accepted/rejected do not split the sample")
        if not set(r["malicious_sampled"]) <= accepted | rejected:
            problems.append(f"round {r['round']}: malicious ids outside the sample")
        if not all(0.0 <= r[k] <= 1.0 for k in ("acc", "tpr", "tnr")):
            problems.append(f"round {r['round']}: acc/tpr/tnr outside [0, 1]")
        if not (1 <= r["gan_iters"] <= max_iter if max_iter else r["gan_iters"] == 0):
            problems.append(f"round {r['round']}: gan_iters={r['gan_iters']}")
    attacked = [r for r in rounds if r["malicious_sampled"]]
    if attacked and abs(report["mean_tpr"] - sum(r["tpr"] for r in attacked) / len(attacked)) > 1e-12:
        problems.append("mean_tpr is not the mean over attacked rounds")
    if rounds and report["final_acc"] != rounds[-1]["acc"]:
        problems.append("final_acc is not the last round's accuracy")
    return problems


def load_reports(out_dir: Path) -> List[Dict[str, Any]]:
    """The cell reports `emit_report` wrote, in file-name order.  They are
    the benchmark's record of what ran, wherever the cells ran."""
    return [json.loads(path.read_text()) for path in sorted(out_dir.glob("*.json"))] if out_dir.is_dir() else []


def check_artifacts(out_dir: Path, reports: List[Dict[str, Any]], observed: List) -> List[str]:
    """Every JSON report has its CSV with one row per round, and every report
    this process saw `run_experiment` return was emitted unchanged."""
    problems = []
    for path in sorted(out_dir.glob("*.json")) if out_dir.is_dir() else []:
        csv_path = path.with_suffix(".csv")
        rows = len(csv_path.read_text().splitlines()) - 1 if csv_path.is_file() else -1
        if rows != len(json.loads(path.read_text())["rounds"]):
            problems.append(f"{csv_path.name}: missing, or not one row per round")
    emitted = [(r["final_acc"], r["mean_tpr"], r["mean_tnr"], len(r["rounds"])) for r in reports]
    for rep in observed:
        held = (rep.final_acc, rep.mean_tpr, rep.mean_tnr, len(rep.rounds))
        if held in emitted:
            emitted.remove(held)
        else:
            problems.append("a returned report was not emitted unchanged")
    return problems


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _burst_info(args, kwargs, per_step):
    return {"step": per_step[0], "step_cpu": per_step[1]}


def segments(spans: List[list]) -> List[Dict[str, float]]:
    """Split a unit's time at its reference bursts.

    Each segment runs from the end of one burst to the start of the next and
    carries its wall and CPU time, the generator's share of both, and the
    mean reference step time of its two bursts.  Bursts run at the start and
    end of the unit and at round ends seen in this process, so a unit whose
    cells run elsewhere is one segment.
    """
    bursts = [rec for rec in spans if rec[NAME] == "bench.calibrate"]
    gens = [rec for rec in spans if rec[NAME] == "defense.train_generator"]
    out = []
    for left, right in zip(bursts, bursts[1:]):
        lo, hi = left[T1], right[T0]
        inside = [rec for rec in gens if lo <= rec[T0] and rec[T1] <= hi]
        out.append({
            "wall": hi - lo,
            "cpu": right[C0] - left[C1],
            "gen_wall": sum(rec[T1] - rec[T0] for rec in inside),
            "gen_cpu": sum(rec[C1] - rec[C0] for rec in inside),
            "cal": (left[INFO]["step"] + right[INFO]["step"]) / 2.0,
            "cal_cpu": (left[INFO]["step_cpu"] + right[INFO]["step_cpu"]) / 2.0,
        })
    return out


def run_unit(w: Workload, seed: int, rounds: int, traced: bool, unit_dir: Path,
             ref: Reference) -> Dict[str, Any]:
    """Run one unit and describe it.

    What ran is read back from the reports the unit emitted, so cells that
    run in worker processes are counted like cells that run here.  Spans
    recorded in this process add the generator's share of the time, the
    finiteness of the weights and, when traced, the per-layer split.
    """
    go = prepare_unit(w, seed, rounds, unit_dir)
    tracer = Tracer()
    calibrate = tracer.wrap(ref.burst, Site(None, "", "bench.calibrate", _burst_info))
    last_burst = [0.0]

    def at_round_end(args, kwargs, acc):
        info = _finite(args, kwargs, acc)
        if time.perf_counter() - last_burst[0] >= CAL_EVERY_S:
            calibrate()
            last_burst[0] = time.perf_counter()
        return info

    error = None
    with tracer.patched(cell_sites(at_round_end) + (trace_sites() if traced else [])):
        unit = tracer.wrap(go, Site(None, "", "bench.unit"))
        calibrate()
        child0 = children_cpu()
        last_burst[0] = started = time.perf_counter()
        try:
            unit()
        except Exception as exc:  # a failing cell is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        child = children_cpu() - child0
        calibrate()

    out_dir = unit_dir / "out"
    reports = load_reports(out_dir)
    problems = [p for rep in reports for p in check_report(rep)]
    finished = sum(not check_report(rep) for rep in reports)
    # Cells that ran in this process also show their weights after the last
    # round.  Without a defense, poisoned aggregates may overflow them;
    # run_experiment tolerates that by design, so it is counted, not failed.
    spans = tracer.spans
    evals = children(spans, "orchestrator.evaluate_global")
    observed, bad_weights, diverged = [], 0, 0
    for idx, rec in enumerate(spans):
        if rec[NAME] != "orchestrator.run_experiment" or rec[INFO] is None:
            continue
        report = rec[INFO]["report"]
        observed.append(report)
        weights_ok = evals[idx][-1][INFO]["weights"] if evals.get(idx) else True
        if report.config["defense"] is None:
            diverged += not weights_ok
        elif not weights_ok:
            bad_weights += 1
            problems.append("non-finite weights with the defense on")
    if error:
        problems.append(error)
    problems += check_artifacts(out_dir, reports, observed)
    gen_rounds = [r for rep in reports if rep["config"]["defense"] for r in rep["rounds"]]
    cells = len(reports)
    calibration = sum(rec[T1] - rec[T0] for rec in spans if rec[NAME] == "bench.calibrate" and rec[PARENT] >= 0)
    mean = lambda key: sum(rep[key] for rep in reports) / cells if cells else 0.0  # noqa: E731
    return {
        "seed": seed,
        "traced": traced,
        "wall": wall - calibration,
        "children_cpu": child,
        "cells": w.cells_per_unit,
        "failed": min(w.cells_per_unit, max(0, w.cells_per_unit - finished) + bad_weights),
        "diverged": diverged,
        "rounds": sum(len(rep["rounds"]) for rep in reports),
        "gen_iters": sum(r["gan_iters"] for r in gen_rounds),
        "gen_capped": sum(r["gan_iters"] >= rep["config"]["defense"]["gen_max_iter"]
                          for rep in reports if rep["config"]["defense"] for r in rep["rounds"]),
        "gen_rounds": len(gen_rounds),
        "final_acc": mean("final_acc"),
        "mean_tpr": mean("mean_tpr"),
        "mean_tnr": mean("mean_tnr"),
        "digest": digest(out_dir),
        "problems": problems,
        "segments": segments(spans),
        "spans": spans,
        "reports": reports,
    }


# ------------------------------------------------------------------- metrics


def reference_effort(w: Workload, rounds: int) -> Dict[str, Dict[str, Any]]:
    """bench/effort.json's entries for the workload, by seed, when they were
    recorded at `rounds` rounds per cell."""
    table = json.loads(EFFORT_FILE.read_text()) if EFFORT_FILE.is_file() else {}
    return table.get("workloads", {}).get(w.name, {}) if table.get("rounds") == rounds else {}


def effort_ratio(units: List[Dict[str, Any]], known: Dict[str, Dict[str, Any]]) -> Optional[float]:
    """Generator iterations the units took over what the commit that
    recorded `known` took for the same seeds; None without a reference."""
    matched = [u for u in units if str(u["seed"]) in known]
    reference = sum(known[str(u["seed"])]["gen_iters"] for u in matched)
    return sum(u["gen_iters"] for u in matched) / reference if reference else None


def throughput(units: List[Dict[str, Any]], effort: Optional[float] = None) -> Dict[str, float]:
    """Round rate and CPU per round, in reference-step time, at
    REF_GEN_ITERS x `effort` generator iterations per round.

    Every segment's times are divided by the reference step time measured
    around it.  A round then costs its non-generator time plus REF_GEN_ITERS
    x `effort` times the cost of one generator iteration; without a defense
    the second term is zero.  `effort` (1 when None) is `effort_ratio`, so a
    change that makes the generator take more iterations on the same seeds
    lowers the rate by as much.  The result is converted back to seconds at
    CAL_NOMINAL_S per reference step.  The generator's time is taken from
    spans in this process; if it ran elsewhere it stays in the rest, at the
    effort the seeds needed.
    """
    segs = [s for u in units for s in u["segments"]]
    rounds = sum(u["rounds"] for u in units)
    iters = sum(u["gen_iters"] for u in units)
    if not rounds or not segs:  # every unit failed before its first round
        return dict.fromkeys(("rounds_per_s", "cpu_s_per_round", "raw_rounds_per_s",
                              "gen_us_per_iter", "rest_ms_per_round", "ref_step_us"), 0.0)
    rest = sum((s["wall"] - s["gen_wall"]) / s["cal"] for s in segs)
    gen = sum(s["gen_wall"] / s["cal"] for s in segs)
    cpu_rest = sum((s["cpu"] - s["gen_cpu"]) / s["cal_cpu"] for s in segs)
    cpu_rest += sum(u["children_cpu"] / statistics.median(s["cal_cpu"] for s in u["segments"])
                    for u in units if u["segments"])
    cpu_gen = sum(s["gen_cpu"] / s["cal_cpu"] for s in segs)
    per_iter = gen / iters if iters else 0.0
    cpu_per_iter = cpu_gen / iters if iters else 0.0
    gen_iters = REF_GEN_ITERS * (1.0 if effort is None else effort)
    wall = sum(s["wall"] for s in segs)
    gen_wall = sum(s["gen_wall"] for s in segs)
    return {
        "rounds_per_s": 1.0 / ((rest / rounds + gen_iters * per_iter) * CAL_NOMINAL_S),
        "cpu_s_per_round": (cpu_rest / rounds + gen_iters * cpu_per_iter) * CAL_NOMINAL_S,
        "raw_rounds_per_s": rounds / wall,
        "gen_us_per_iter": 1e6 * gen_wall / iters if iters else 0.0,
        "rest_ms_per_round": 1e3 * (wall - gen_wall) / rounds,
        "ref_step_us": 1e6 * statistics.median(s["cal"] for s in segs),
    }


def trimmed_mean(values: List[float]) -> float:
    """Mean after dropping the lowest and the highest value (of three or
    more); the median of three."""
    ordered = sorted(values)
    kept = ordered[1:-1] if len(ordered) >= 3 else ordered
    return sum(kept) / len(kept)


def quality(units: List[Dict[str, Any]]) -> Dict[str, float]:
    """Trimmed means over the run's distinct seeds of each unit's mean over cells."""
    over = lambda key: trimmed_mean([key(u) for u in units])  # noqa: E731
    return {
        "final_acc": over(lambda u: u["final_acc"]),
        "mean_tpr": over(lambda u: u["mean_tpr"]),
        "mean_tnr": over(lambda u: u["mean_tnr"]),
        "detect_bacc": over(lambda u: (u["mean_tpr"] + u["mean_tnr"]) / 2.0),
        "gen_iters_per_round": over(lambda u: u["gen_iters"] / u["rounds"] if u["rounds"] else 0.0),
    }


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def merge_spans(units: List[Dict[str, Any]]) -> List[list]:
    """Concatenate the units' spans, re-basing parent indices; a cell id
    becomes "<unit>.<cell>"."""
    merged: List[list] = []
    for n, u in enumerate(units):
        offset = len(merged)
        for rec in u["spans"]:
            copy = list(rec)
            if copy[PARENT] >= 0:
                copy[PARENT] += offset
            copy[CELL] = f"{n}.{copy[CELL]}"
            merged.append(copy)
    return merged


def layer_metrics(traced: List[Dict[str, Any]], plain: List[Dict[str, Any]], merged: List[list]) -> Dict[str, Any]:
    """Per-layer metrics of the traced units, normalised per 30-round cell."""
    table = by_name(merged)
    zero = {"calls": 0, "wall": 0.0, "self": 0.0, "infos": []}
    row = lambda name: table.get(name, zero)  # noqa: E731
    cells = max(row("orchestrator.run_experiment")["calls"], 1)
    # Shares are of the time spent in bfl: the benchmark's own spans
    # (bench.unit, bench.calibrate) are left out.
    layers = {n: r["self"] for n, r in table.items() if not n.startswith("bench.")}
    traced_wall = sum(layers.values())
    names = set(table) | {
        "config.parse", "data.build_datasets", "data.dirichlet_partition",
        "orchestrator.run_experiment", "orchestrator.local_training",
        "orchestrator.evaluate_global", "orchestrator.emit_report",
        "defense.train_generator", "defense.synthesize", "defense.score_updates",
        "defense.filter_updates", "rng.substream",
        *[f"aggregators.aggregate.{k}" for k in aggregators.AGGREGATOR_KINDS],
        *[f"attacks.{fn}" for fn in ATTACK_FNS],
    }
    out: Dict[str, Any] = {}
    for name in sorted(names):
        out[f"{name}.ms"] = 1e3 * row(name)["self"] / cells
        out[f"{name}.calls"] = row(name)["calls"] / cells
        out[f"{name}.pct"] = 100.0 * row(name)["self"] / traced_wall
    total_self = lambda prefix: sum(r["self"] for n, r in table.items() if n.startswith(prefix))  # noqa: E731
    info_sum = lambda name, key: sum(i[key] for i in row(name)["infos"])  # noqa: E731
    out["aggregators.aggregate.ms"] = 1e3 * total_self("aggregators.aggregate.") / cells
    out["attacks.ms"] = 1e3 * total_self("attacks.") / cells
    out["config.parse_ms"] = 1e3 * row("config.parse")["wall"] / cells
    out["data.build_ms"] = 1e3 * (row("data.build_datasets")["wall"] + row("data.dirichlet_partition")["wall"]) / cells
    out["orchestrator.self_ms"] = out["orchestrator.run_experiment.ms"]
    out["orchestrator.emit_report.bytes"] = info_sum("orchestrator.emit_report", "bytes") / cells
    steps = info_sum("orchestrator.local_training", "steps")
    out["orchestrator.local_training.us_per_step"] = 1e6 * row("orchestrator.local_training")["wall"] / steps if steps else 0.0
    candidates = info_sum("defense.score_updates", "candidates")
    out["defense.score_updates.us_per_candidate"] = 1e6 * row("defense.score_updates")["wall"] / candidates if candidates else 0.0
    offered = info_sum("defense.filter_updates", "offered")
    out["defense.filter_updates.accept_frac"] = info_sum("defense.filter_updates", "accepted") / offered if offered else 0.0

    reports = [rep for u in traced for rep in u["reports"]]
    iters = sum(u["gen_iters"] for u in traced)
    gen_rounds = sum(u["gen_rounds"] for u in traced)
    out["defense.train_generator.iters"] = iters / cells
    out["defense.train_generator.capped_frac"] = sum(u["gen_capped"] for u in traced) / gen_rounds if gen_rounds else 0.0
    out["defense.train_generator.us_per_iter"] = 1e6 * row("defense.train_generator")["wall"] / iters if iters else 0.0
    flop = 0
    for rep in reports:
        if rep["config"]["defense"]:
            c = rep["config"]
            dims = c["dataset"]["dims"]
            classes = c["dataset"]["num_classes"]
            gen_dims = [c["defense"]["noise_dim"] + classes, *defense.GEN_HIDDEN, dims]
            cls_dims = [dims, *c["hidden_dims"], classes]
            per_iter, _ = micro.gen_step_costs(gen_dims, cls_dims, defense.GEN_BATCH)
            flop += per_iter * sum(r["gan_iters"] for r in rep["rounds"])
    out["defense.train_generator.gflops_computed"] = flop / 1e9 / cells

    # A round ends when evaluate_global returns; the first starts when the
    # partition is built.  The reference bursts that fall inside a round are
    # the benchmark's own work and are taken out.
    partitions = children(merged, "data.dirichlet_partition")
    bursts = [rec for rec in merged if rec[NAME] == "bench.calibrate"]
    round_ms = []
    for idx, evals in children(merged, "orchestrator.evaluate_global").items():
        marks = [r[T1] for r in partitions.get(idx, [])[:1] + evals]
        for a, b in zip(marks, marks[1:]):
            own = sum(r[T1] - r[T0] for r in bursts if a <= r[T0] and r[T1] <= b)
            round_ms.append(1e3 * (b - a - own))
    out["orchestrator.round_ms.p50"] = percentile(round_ms, 50)
    out["orchestrator.round_ms.p90"] = percentile(round_ms, 90)

    # Tracing overhead, seed by seed: each traced unit against the untraced
    # units of the same seed.
    pairs = []
    for u in traced:
        same = [throughput([v])["rounds_per_s"] for v in plain if v["seed"] == u["seed"]]
        if same:
            pairs.append((statistics.median(same), throughput([u])["rounds_per_s"]))
    fast = statistics.median(f for f, _ in pairs) if pairs else 0.0
    slow = statistics.median(t for _, t in pairs) if pairs else 0.0
    out["trace.rounds_per_s_untraced"] = fast
    out["trace.rounds_per_s_traced"] = slow
    out["trace.overhead_rounds_per_s"] = fast - slow
    out["trace.overhead_pct"] = statistics.median(100.0 * (f - t) / f for f, t in pairs) if pairs else 0.0
    out["largest_self"] = max(layers, key=layers.get) if layers else None
    return out


# -------------------------------------------------------------- environment


def blas_info() -> Dict[str, Any]:
    """BLAS name and version from numpy's build record; the thread count
    from the bundled OpenBLAS, when numpy ships one."""
    info: Dict[str, Any] = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "commit": git_commit(),
        "seed": seed,
    }


def setup_seconds(w: Workload, seed: int, rounds: int) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    cell = json.dumps(scenario(w, seed, rounds))
    probe = str(Path(__file__).resolve().parent / "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, cell], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------- run


def run_workload(name: str, seed: int = 42, seconds: float = 30.0, trace: bool = False,
                 rounds: int = 30) -> Dict[str, Any]:
    """Run one workload and return the full record.

    Closed loop: each unit starts when the previous one ends.  The first
    `w.seeds` units cover the distinct seeds (traced, with --trace 1);
    then the seeds repeat untraced, in order, while another unit fits in
    `seconds`.  A traced run always adds at least one untraced unit, of
    its first seed, to measure the overhead.
    """
    w = WORKLOADS[name]
    seeds = cell_seeds(w, seed)
    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BUILD))
    try:
        setup_s = None if trace else setup_seconds(w, seeds[0], rounds)
        micro_metrics = micro.run() if trace else {}
        ref = Reference()
        run_unit(w, seeds[0], 1, False, work / "warmup", ref)
        units: List[Dict[str, Any]] = []
        started = time.perf_counter()
        while True:
            i = len(units)
            if i >= w.seeds and any(not u["traced"] for u in units):
                # The next unit repeats a seed, so its last run predicts its length.
                expected = units[i - w.seeds]["wall"]
                if time.perf_counter() - started + expected > seconds:
                    break
            traced = trace and i < w.seeds
            unit = run_unit(w, seeds[i % w.seeds], rounds, traced, work / f"u{i}", ref)
            if not traced:
                # Only traced units need their spans and reports later.  Kept,
                # they would grow peak_rss_mb by about 1 MB per sweep unit.
                del unit["spans"], unit["reports"]
            units.append(unit)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"seed {u['seed']}: {p}" for u in units for p in u["problems"]]
    first: Dict[int, str] = {}
    for u in units:
        if first.setdefault(u["seed"], u["digest"]) != u["digest"]:
            problems.append(f"seed {u['seed']}: report digest changed between units")
    traced_units = [u for u in units if u["traced"]]
    plain_units = [u for u in units if not u["traced"]]
    attempted = sum(u["cells"] for u in units)
    failed = sum(u["failed"] for u in units)
    known = reference_effort(w, rounds)
    effort = effort_ratio(units[:w.seeds], known)
    record: Dict[str, Any] = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "cell_seeds": seeds,
        "units": [{k: v for k, v in u.items() if k not in ("spans", "reports", "problems", "segments")}
                  for u in units],
        "digests": first,
        # Against bench/effort.json: record only, since the last bits of a
        # report may change as long as its meaning does not.
        "effort_ratio": effort,
        "digests_changed": sorted(s for s, d in first.items() if str(s) in known and known[str(s)]["digest"] != d),
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
    }
    if plain_units:
        tp = throughput(plain_units, effort)
        walls = [u["wall"] / u["cells"] for u in plain_units]
        record["end_to_end"] = {
            **tp,
            **quality(units[:w.seeds]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cell_s.p50": statistics.median(walls),
            "cells": len(walls) * w.cells_per_unit,
            "failed_frac": failed / attempted,
            "diverged_cells": sum(u["diverged"] for u in units),
        }
    if trace:
        merged = merge_spans(traced_units)
        (BUILD / "spans").mkdir(exist_ok=True)
        spans_path = BUILD / "spans" / f"{name}-seed{seed}.jsonl"
        dump(merged, str(spans_path))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["per_layer"] = {**layer_metrics(traced_units, plain_units, merged), **micro_metrics}
    return record
