"""Round loop: sample clients, train locally, poison, filter, aggregate.

Per round the server broadcasts the current weights, every sampled client
runs local SGD and returns a delta, compromised clients swap in their
poisoned payloads, the optional defense scores each candidate vector (read
as a model, without a copy) on generated data and filters them, and the
surviving updates are aggregated into the next global model.  The round's
updates are one (n, P) matrix throughout, a row per sampled client in
ascending id, and the row is the only index inside a round: the attack
overwrites rows of the local training's deltas in place, the defense scores
every row and returns the rows it keeps, and the aggregator reads those
rows.  Rows become client ids only in the round's record.  A
rejected-everything round carries the previous weights forward, and a round
that leaves fewer survivors than the configured rule can aggregate (the
Krum rules need at least four) falls back to the coordinate-wise median.

A run first derives, from the config alone, a read-only `Schedule`: the
test set and input bounds, the client shards, the initial model and, per
round, the sampled ids and the lockstep batch plan of local training.  The
attack, the aggregator, the defense and the SGD settings play no part in
it, so cells of a sweep that differ only in those share one.

Reports are pure functions of (config, master seed): every random draw comes
from a purpose-keyed stream, so reruns match byte for byte, and a run from a
shared schedule matches one that builds its own.  Measured round timings are
logged but deliberately left out of the emitted artifacts to keep them
byte-stable.
"""

from __future__ import annotations

import bisect
import csv
import json
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from . import attacks, defense, nn, rng
from .aggregators import AggregatorConfig, aggregate, min_updates
from .config import ExperimentConfig, config_to_dict
from .data import Dataset, build_datasets, dirichlet_partition

log = logging.getLogger(__name__)


@dataclass
class RoundRecord:
    round: int
    acc: float
    tpr: float
    tnr: float
    accepted: List[int]
    rejected: List[int]
    malicious_sampled: List[int]
    gan_iters: int
    aggregator_fallback: Optional[str] = None  # the rule that ran instead, if any


@dataclass
class RunReport:
    config: dict
    rounds: List[RoundRecord] = field(default_factory=list)
    final_acc: float = 0.0
    mean_tpr: float = 0.0
    mean_tnr: float = 1.0


class BatchPlan(NamedTuple):
    """One round's lockstep batches, from `batch_plan`."""

    sizes: Tuple[int, ...]  # shard sizes, in shard order
    epochs: int
    batch: int
    rows: Tuple[int, ...]  # the shard each row of the model stack trains
    # Per step, its runs: (rows [lo, hi) of the stack, each row's batch as
    # rows of the shards' samples concatenated in `rows` order, and the
    # batch lengths when they differ).
    steps: Tuple[Tuple[Tuple[Tuple[int, int], np.ndarray, Optional[np.ndarray]], ...], ...]


def batch_plan(
    sizes: Sequence[int], train_rngs: Sequence[np.random.Generator], epochs: int, batch: int
) -> BatchPlan:
    """Every lockstep step of `local_training` for shards of `sizes` rows.

    Each client reshuffles its samples every epoch with its own generator
    and walks them in batches of min(batch, size).  The stack's rows are
    the clients in order of shard size.  A client's step count never falls
    as its shard grows, so the clients still training at a step are a
    suffix of the rows; each step splits that suffix into runs of
    consecutive rows (see `_stacks`).
    """
    if min(sizes) < 1:
        raise ValueError("client has no data")
    rows = sorted(range(len(sizes)), key=sizes.__getitem__)
    size = np.array([sizes[k] for k in rows])
    bsz = np.minimum(batch, size)
    per_epoch = -(-size // bsz)
    starts = np.cumsum(size) - size  # each row's first sample
    # Per row, its shuffles of all epochs, one after another.
    order = np.concatenate(
        [train_rngs[k].permutation(sizes[k]) + s for k, s in zip(rows, starts) for _ in range(epochs)]
    )
    counts = (epochs * per_epoch).tolist()  # non-decreasing, as the rows are
    steps = []
    for step in range(counts[-1]):
        first = bisect.bisect_right(counts, step)
        epoch, lo = np.divmod(step, per_epoch[first:])
        lo *= bsz[first:]
        lengths = np.minimum(bsz[first:], size[first:] - lo)
        begin = epochs * starts[first:] + epoch * size[first:] + lo  # the batches in `order`
        runs, listed = [], lengths.tolist()
        for a, b in _stacks(listed):
            real, width = lengths[a:b], max(listed[a:b])
            # Short batches are padded with repeats of their own last row.
            sel = order[begin[a:b, None] + np.minimum(np.arange(width), real[:, None] - 1)]
            runs.append(((first + a, first + b), sel, real if min(listed[a:b]) < width else None))
        steps.append(tuple(runs))
    return BatchPlan(tuple(sizes), epochs, batch, tuple(rows), tuple(steps))


def local_training(
    shards: Sequence[Dataset],
    template: nn.MlpModel,
    global_vector: np.ndarray,
    sgd_cfg: nn.SgdConfig,
    epochs: int,
    batch: int,
    plan: BatchPlan,
) -> np.ndarray:
    """Run epochs of mini-batch SGD on every shard from the broadcast weights.

    The clients train in lockstep as one stack of models (see `nn`), one
    row per client, walking `plan`, which must have been built for these
    shard sizes, `epochs` and `batch`.  Each run of a step trains in place,
    on a view of the stack, so a client gets bit for bit the weights it
    would get alone where padding keeps its bits (see `nn`: toy shapes, not
    784-D).  Returns the (n, P) stack of deltas, row k for shard k: the
    local weights minus the broadcast vector.
    """
    if (tuple(len(shard) for shard in shards), epochs, batch) != plan[:3]:
        raise ValueError("the batch plan was built for other shards, epochs or batch")
    feats = np.concatenate([shards[k].features for k in plan.rows])
    labels = np.concatenate([shards[k].labels for k in plan.rows])
    params = np.tile(global_vector, (len(shards), 1))
    state = nn.init_momentum(template.with_params(params))
    # Per (run, batch width): a trace of the run's view of the stack, and
    # the run's view of the momentum state.
    passes: Dict[Tuple[Tuple[int, int], int], Tuple[nn.Trace, nn.SgdState]] = {}
    for runs in plan.steps:
        for run, sel, real in runs:
            key = (run, sel.shape[1])
            if key not in passes:
                rows = slice(*run)
                passes[key] = (
                    nn.Trace(template.with_params(params[rows]), sel.shape),
                    nn.SgdState(state.velocity[rows], state.scratch[rows]),
                )
            trace, sgd = passes[key]
            # The plan fixes every shape, so the unchecked passes run.
            trace.forward(feats[sel])
            _, dout = trace.cross_entropy(labels[sel], real)
            grads, _ = trace.backward(dout, input_grad=False)
            nn.sgd_step(trace.model, grads, sgd_cfg, sgd)
    params -= global_vector
    return params[np.argsort(plan.rows)]


def _stacks(lengths: List[int]) -> List[Tuple[int, int]]:
    """Split one lockstep step's rows, given each row's batch length, into
    runs [lo, hi) of consecutive rows.  A run ends where the next batch
    would make its longest more than twice its shortest.  A one-row batch
    runs only with one-row batches, since padding it would change its
    bits; padding any other batch keeps them only where BLAS does (`nn`)."""
    runs: List[Tuple[int, int]] = []
    for r, n in enumerate(lengths):
        if runs and max(longest, n) <= 2 * min(shortest, n) and (n == 1) == (shortest == 1):
            runs[-1] = (runs[-1][0], r + 1)
            shortest, longest = min(shortest, n), max(longest, n)
        else:
            runs.append((r, r + 1))
            shortest = longest = n
    return runs


def compute_tpr_tnr(
    sampled: Set[int], accepted: Set[int], malicious: Set[int]
) -> Tuple[float, float]:
    """Detection rates against ground-truth roles.

    A true positive is a rejected compromised client; a true negative is an
    accepted honest one.  With no compromised clients in the round TPR is 0
    by convention; with no honest clients TNR is 1.
    """
    if not accepted <= sampled:
        raise ValueError("accepted ids must be a subset of the sampled ids")
    rejected = sampled - accepted
    bad = sampled & malicious
    good = sampled - malicious
    tp = len(rejected & bad)
    tn = len(accepted & good)
    tpr = tp / len(bad) if bad else 0.0
    tnr = tn / len(good) if good else 1.0
    return tpr, tnr


def evaluate_global(
    params: np.ndarray, template: nn.MlpModel, dataset: Dataset
) -> float:
    """Top-1 accuracy of `params` in the template's layout (argmax ties to
    the lowest class, so a NaN model predicts class 0)."""
    logits = nn.forward(template.with_params(params), dataset.features)
    return float((logits.argmax(axis=1) == dataset.labels).mean())


SCHEDULE_FREE = ("attack", "aggregator", "defense", "sgd")  # config fields a Schedule ignores


def schedule_key(cfg: ExperimentConfig) -> str:
    """The config fields a `Schedule` is built from, as canonical JSON."""
    echo = config_to_dict(cfg)
    return json.dumps({k: v for k, v in echo.items() if k not in SCHEDULE_FREE}, sort_keys=True)


@dataclass(frozen=True, eq=False)
class Schedule:
    """What a run derives from its config apart from the attack, the
    aggregator, the defense and the SGD settings: the test set and input
    bounds, the client shards, the initial model and, per round, the
    sampled ids and the lockstep batch plan.  Cells that share a
    `schedule_key` share one schedule.  Its datasets, bounds and initial
    model are read-only, so a run cannot change what the next one starts
    from.
    """

    key: str
    test: Dataset
    lo: np.ndarray
    hi: np.ndarray
    shards: Tuple[Dataset, ...]  # one per client id
    template: nn.MlpModel  # the initial model
    rounds: Tuple[Tuple[Tuple[int, ...], BatchPlan], ...]  # (sampled ids, plan)

    @classmethod
    def build(cls, cfg: ExperimentConfig) -> "Schedule":
        train, test, lo, hi = build_datasets(cfg)
        part_seed = rng.subseed(cfg.seed, rng.PARTITION)
        shards = tuple(
            Dataset(train.features[idx], train.labels[idx], train.num_classes)
            for idx in dirichlet_partition(train, cfg.clients, cfg.partition.alpha, part_seed)
        )
        model = nn.init_mlp(
            [train.dim, *cfg.hidden_dims, train.num_classes],
            "relu",
            rng.substream(cfg.seed, rng.MODEL_INIT),
        )
        for array in (test.features, test.labels, lo, hi, model.params,
                      *(a for shard in shards for a in (shard.features, shard.labels))):
            array.flags.writeable = False
        rounds = []
        for t in range(1, cfg.rounds + 1):
            sample_rng = rng.substream(cfg.seed, rng.SAMPLING, t)
            sampled = tuple(sorted(
                int(c) for c in sample_rng.choice(cfg.clients, cfg.sampled_per_round, replace=False)
            ))
            plan = batch_plan(
                [len(shards[cid]) for cid in sampled],
                [rng.substream(cfg.seed, rng.CLIENT_TRAIN, t, cid) for cid in sampled],
                cfg.local_epochs,
                cfg.batch,
            )
            rounds.append((sampled, plan))
        template = model.with_params(model.params)  # views of the read-only vector
        return cls(schedule_key(cfg), test, lo, hi, shards, template, tuple(rounds))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_experiment(cfg: ExperimentConfig, schedule: Optional[Schedule] = None) -> RunReport:
    """Execute the full simulation and return the per-round report.

    The run follows `schedule`, which must have been built for a config
    with the same `schedule_key`; without one it builds its own.  The
    report is the same either way.

    Poisoned aggregates can push float64 logits past the overflow point;
    the resulting inf/nan models simply score badly and get rejected, so
    those warnings are suppressed for the duration of the run.
    """
    if schedule is None:
        schedule = Schedule.build(cfg)
    elif schedule.key != schedule_key(cfg):
        raise ValueError("the schedule was built for a config with other schedule fields")
    template, shards = schedule.template, schedule.shards
    global_vector = template.params
    malicious = attacks.compromised_clients(cfg.attack, cfg.clients, cfg.seed)
    report = RunReport(config=config_to_dict(cfg))
    fewest = min_updates(cfg.aggregator)
    for t, (sampled, plan) in enumerate(schedule.rounds, 1):
        started = time.perf_counter()
        bad_rows = [r for r, cid in enumerate(sampled) if cid in malicious]
        bad_sampled = [sampled[r] for r in bad_rows]
        round_shards = attacks.training_shards(cfg.attack, shards, sampled, malicious)
        # Positional: a caller may wrap `local_training` and read its arguments.
        deltas = local_training(
            round_shards, template, global_vector, cfg.sgd, cfg.local_epochs, cfg.batch, plan
        )
        attacks.apply_attack(
            cfg.attack, cfg.seed, t, bad_rows, deltas, round_shards, template, global_vector
        )
        candidates = np.add(deltas, global_vector, out=deltas)
        gan_iters = 0
        if cfg.defense is not None:
            classifier = template.with_params(global_vector)
            gen, gan_iters = defense.train_generator(
                classifier, cfg.defense, cfg.seed, t, schedule.lo, schedule.hi
            )
            probe = defense.synthesize(gen, cfg.defense, cfg.seed, t, schedule.lo, schedule.hi)
            scores = defense.score_updates(candidates, template, probe, cfg.defense.metric)
            rows = defense.filter_updates(scores, cfg.defense.filter)
        else:
            rows = np.arange(len(sampled))
        fallback = None
        if len(rows):
            rule = cfg.aggregator
            if len(rows) < fewest:
                fallback = "coord_median"
                rule = AggregatorConfig(fallback)
            # Positional: a caller may wrap `aggregate` and read the rule.
            global_vector = aggregate(candidates[rows], rule, np.take(plan.sizes, rows))
        accepted = [sampled[r] for r in rows.tolist()]
        acc = evaluate_global(global_vector, template, schedule.test)
        tpr, tnr = compute_tpr_tnr(set(sampled), set(accepted), malicious)
        wall_ms = (time.perf_counter() - started) * 1000.0
        record = RoundRecord(
            round=t,
            acc=acc,
            tpr=tpr,
            tnr=tnr,
            accepted=accepted,
            rejected=sorted(set(sampled).difference(accepted)),
            malicious_sampled=bad_sampled,
            gan_iters=gan_iters,
            aggregator_fallback=fallback,
        )
        report.rounds.append(record)
        log.info(
            "round %d acc=%.4f tpr=%.2f tnr=%.2f accepted=%d/%d gan_iters=%d (%.0f ms)",
            t, acc, tpr, tnr, len(record.accepted), len(sampled), gan_iters, wall_ms,
        )
    if report.rounds:
        report.final_acc = report.rounds[-1].acc
    else:
        report.final_acc = evaluate_global(global_vector, template, schedule.test)
    attack_rounds = [r for r in report.rounds if r.malicious_sampled]
    if attack_rounds:
        report.mean_tpr = sum(r.tpr for r in attack_rounds) / len(attack_rounds)
        report.mean_tnr = sum(r.tnr for r in attack_rounds) / len(attack_rounds)
    return report


CSV_COLUMNS = ("round", "acc", "tpr", "tnr", "accepted", "rejected", "gan_iters")


def _csv_field(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return ";".join(map(str, value)) if isinstance(value, list) else str(value)


def emit_report(report: RunReport, out_dir: str, name: str) -> Tuple[str, str]:
    """Write <name>.csv and <name>.json under out_dir; returns their paths.

    Each JSON round is its `RoundRecord`'s fields, less those that are None
    (so `aggregator_fallback` appears only in rounds that fell back), and
    each CSV row is that round's `CSV_COLUMNS`, with reals to 17 significant
    digits and id lists ';'-joined.  Lines end with LF, so identical
    (config, seed) pairs produce identical bytes.  Round timings stay out
    (see module docstring).
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    json_path = os.path.join(out_dir, f"{name}.json")
    rounds = [{k: v for k, v in vars(r).items() if v is not None} for r in report.rounds]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_csv_field(row[k]) for k in CSV_COLUMNS] for row in rounds)
    with open(json_path, "w", newline="") as fh:
        json.dump({**vars(report), "rounds": rounds}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
