"""Round loop: sample clients, train locally, poison, filter, aggregate.

Per round the server broadcasts the current weights, every sampled client
runs local SGD and returns a delta, compromised clients swap in their
poisoned payloads, the optional defense scores each candidate vector (read
as a model, without a copy) on generated data and filters them, and the
surviving updates are aggregated into the next global model.  A
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
from .aggregators import AggregatorConfig, ClientUpdate, aggregate, min_updates
from .config import ExperimentConfig, IdxDatasetSpec, config_to_dict
from .data import (
    Dataset,
    dirichlet_partition,
    load_idx,
    make_toy_blobs,
    polygon_centers,
    train_test_split,
)

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
    batches: List[List[np.ndarray]] = []  # per row, over all its epochs
    start = 0
    for k in rows:
        batches.append([])
        for _ in range(epochs):
            perm = train_rngs[k].permutation(sizes[k]) + start
            batches[-1] += np.split(perm, range(min(batch, sizes[k]), sizes[k], batch))
        start += sizes[k]
    counts = [len(b) for b in batches]  # non-decreasing, as the rows are
    steps = []
    for step in range(counts[-1]):
        first = bisect.bisect_right(counts, step)
        now = [b[step] for b in batches[first:]]
        runs = []
        for lo, hi in _stacks([len(b) for b in now]):
            real = [len(b) for b in now[lo:hi]]
            # Short batches are padded with repeats of their own last row.
            sel = np.stack([b[np.minimum(np.arange(max(real)), len(b) - 1)] for b in now[lo:hi]])
            runs.append(((first + lo, first + hi), sel, np.array(real) if min(real) < max(real) else None))
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
) -> List[np.ndarray]:
    """Run epochs of mini-batch SGD on every shard from the broadcast weights.

    The clients train in lockstep as one stack of models (see `nn`), one
    row per client, walking `plan`, which must have been built for these
    shard sizes, `epochs` and `batch`.  Each run of a step trains in place,
    on a view of the stack, so each client gets bit for bit the weights it
    would get training alone.  Returns one delta per shard, in order: the
    local weights minus the broadcast vector.
    """
    if (tuple(len(shard) for shard in shards), epochs, batch) != plan[:3]:
        raise ValueError("the batch plan was built for other shards, epochs or batch")
    feats = np.concatenate([shards[k].features for k in plan.rows])
    labels = np.concatenate([shards[k].labels for k in plan.rows])
    params = np.tile(global_vector, (len(shards), 1))
    state = nn.init_momentum(template.with_params(params))
    views: Dict[Tuple[int, int], Tuple[nn.MlpModel, nn.SgdState]] = {}
    traces: Dict[Tuple[int, ...], nn.Trace] = {}
    for runs in plan.steps:
        for run, sel, real in runs:
            if run not in views:
                views[run] = (
                    template.with_params(params[slice(*run)]),
                    nn.SgdState(state.velocity[slice(*run)], state.scratch[slice(*run)]),
                )
            model, sgd = views[run]
            _, trace = nn.forward_cached(model, feats[sel], traces.get(sel.shape))
            traces[sel.shape] = trace
            _, dout = trace.cross_entropy(labels[sel], real)
            grads, _ = nn.backprop_through(model, trace, dout, input_grad=False)
            nn.sgd_step(model, grads, sgd_cfg, sgd)
    params -= global_vector
    return list(params[np.argsort(plan.rows)])


def _stacks(lengths: List[int]) -> List[Tuple[int, int]]:
    """Split one lockstep step's rows, given each row's batch length, into
    runs [lo, hi) of consecutive rows.  A run ends where the next batch
    would make its longest more than twice its shortest.  A one-row batch
    runs only with one-row batches, since padding it would change its
    bits; padding any other batch changes none."""
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
    the lowest class)."""
    return defense.eval_update(params, template, dataset, "accuracy")


def build_datasets(cfg: ExperimentConfig) -> Tuple[Dataset, Dataset, np.ndarray, np.ndarray]:
    """Materialize train/test sets plus the per-feature input range.

    The range bounds the classifier's input domain and calibrates the
    generator's output scaling: [0, 1] for image data, the blob bounding box
    (centers plus two spreads) for the synthetic task.  Both come from the
    dataset spec alone, never from client samples.  Keeping the box close to
    the data matters: with a loose box the generator drifts into regions no
    training sample constrains, and probe scores there say little about a
    candidate update.
    """
    spec = cfg.dataset
    if isinstance(spec, IdxDatasetSpec):
        train = load_idx(spec.train_images, spec.train_labels)
        test = load_idx(spec.test_images, spec.test_labels)
        return train, test, np.zeros(train.dim), np.ones(train.dim)
    full = make_toy_blobs(
        rng.subseed(cfg.seed, rng.DATASET),
        spec.num_classes,
        spec.per_class,
        polygon_centers(spec.num_classes, spec.radius),
        spec.spread,
        spec.dims,
    )
    train, test = train_test_split(
        full, spec.test_fraction, rng.subseed(cfg.seed, rng.SPLIT)
    )
    margin = 2.0 * spec.spread
    lo = np.full(spec.dims, -(spec.radius + margin))
    hi = np.full(spec.dims, spec.radius + margin)
    lo[2:] = -margin
    hi[2:] = margin
    return train, test, lo, hi


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
        part_seed = (
            cfg.partition.seed
            if cfg.partition.seed is not None
            else rng.subseed(cfg.seed, rng.PARTITION)
        )
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


def _apply_attack(
    cfg: ExperimentConfig,
    round_index: int,
    sampled: Sequence[int],
    bad_sampled: List[int],
    deltas: Dict[int, np.ndarray],
    clients: Sequence[Dataset],
    template: nn.MlpModel,
    global_vector: np.ndarray,
) -> Dict[int, np.ndarray]:
    """Replace compromised clients' honest deltas with attack payloads."""
    acfg = cfg.attack
    payloads = dict(deltas)
    if not bad_sampled or acfg.kind == "none":
        return payloads
    if acfg.kind == "random_noise":
        noise_rng = rng.substream(cfg.seed, rng.ATTACK, round_index)
        shared = attacks.draw_shared_noise(global_vector.size, acfg.sigma, noise_rng)
        reference = deltas[min(bad_sampled)]
        payload = attacks.random_noise_attack(reference, shared)
        for cid in bad_sampled:
            payloads[cid] = payload
    elif acfg.kind == "sign_flip":
        for cid in bad_sampled:
            payloads[cid] = attacks.sign_flip_attack(deltas[cid], acfg.gamma)
    elif acfg.kind == "label_flip":
        for cid in bad_sampled:
            payloads[cid] = attacks.scale_delta(deltas[cid], acfg.gamma)
    elif acfg.kind == "ipm":
        estimate = np.mean([deltas[cid] for cid in bad_sampled], axis=0)
        proxy = Dataset(
            np.vstack([clients[cid].features for cid in bad_sampled]),
            np.concatenate([clients[cid].labels for cid in bad_sampled]),
            clients[0].num_classes,
        )
        payload, gamma_star = attacks.ipm_attack(
            global_vector, template, estimate, proxy, acfg,
            len(sampled), len(bad_sampled),
        )
        log.debug("round %d ipm gamma*=%g", round_index, gamma_star)
        for cid in bad_sampled:
            payloads[cid] = payload
    return payloads


def run_experiment(cfg: ExperimentConfig, schedule: Optional[Schedule] = None) -> RunReport:
    """Execute the full simulation and return the per-round report.

    The run follows `schedule`, which must have been built for a config
    with the same `schedule_key`; without one it builds its own.  The
    report is the same either way.

    Poisoned aggregates can push float64 logits past the overflow point;
    the resulting inf/nan models simply score badly and get rejected, so
    those warnings are suppressed for the duration of the run.
    """
    if schedule is not None and schedule.key != schedule_key(cfg):
        raise ValueError("the schedule was built for a config with other schedule fields")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _run_experiment(cfg, schedule or Schedule.build(cfg))


def _run_experiment(cfg: ExperimentConfig, schedule: Schedule) -> RunReport:
    template, shards = schedule.template, schedule.shards
    global_vector = template.params
    malicious: Set[int] = set()
    if cfg.attack.epsilon > 0.0:
        malicious = attacks.assign_roles(
            cfg.clients, cfg.attack.epsilon, rng.substream(cfg.seed, rng.ATTACK)
        )
    report = RunReport(config=config_to_dict(cfg))
    fewest = min_updates(cfg.aggregator)
    flip = cfg.attack.kind == "label_flip"
    for t, (sampled, plan) in enumerate(schedule.rounds, 1):
        started = time.perf_counter()
        bad_sampled = [cid for cid in sampled if cid in malicious]
        round_shards = [
            attacks.rotate_labels(shards[cid]) if flip and cid in bad_sampled else shards[cid]
            for cid in sampled
        ]
        # Positional: a caller may wrap `local_training` and read its arguments.
        trained = local_training(
            round_shards, template, global_vector, cfg.sgd, cfg.local_epochs, cfg.batch, plan
        )
        deltas = dict(zip(sampled, trained))
        payloads = _apply_attack(
            cfg, t, sampled, bad_sampled, deltas, shards, template, global_vector
        )
        candidates = {cid: global_vector + payloads[cid] for cid in sampled}
        gan_iters = 0
        if cfg.defense is not None:
            classifier = template.with_params(global_vector)
            gen, gan_iters = defense.train_generator(
                classifier, cfg.defense, cfg.seed, t, schedule.lo, schedule.hi
            )
            probe = defense.synthesize(gen, cfg.defense.q, cfg.seed, t)
            entries = defense.score_updates(
                sorted(candidates.items()), template, probe, cfg.defense.metric
            )
            accepted = defense.filter_updates(entries, cfg.defense.filter, cfg.defense.tau)
        else:
            accepted = set(sampled)
        fallback = None
        if accepted:
            updates = [
                ClientUpdate(cid, candidates[cid], len(shards[cid]))
                for cid in sorted(accepted)
            ]
            rule = cfg.aggregator
            if len(updates) < fewest:
                fallback = "coord_median"
                rule = AggregatorConfig(fallback)
            global_vector = aggregate(updates, rule)
        acc = evaluate_global(global_vector, template, schedule.test)
        tpr, tnr = compute_tpr_tnr(set(sampled), accepted, malicious)
        wall_ms = (time.perf_counter() - started) * 1000.0
        record = RoundRecord(
            round=t,
            acc=acc,
            tpr=tpr,
            tnr=tnr,
            accepted=sorted(accepted),
            rejected=sorted(set(sampled) - accepted),
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
