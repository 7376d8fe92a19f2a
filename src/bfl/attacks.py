"""Every attack decision: who is compromised, what it trains on and submits.

All payloads are delta vectors (local weights minus the broadcast global
weights).  Honest training happens first; the attack then transforms the
honest delta (label flipping additionally corrupts the training data before
the honest pass).  The round driver calls `compromised_clients` once per
run and `training_shards` and `apply_attack` once per round; `none`
compromises no client at any epsilon.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from . import nn, rng
from .data import Dataset
from .defense import eval_update

log = logging.getLogger(__name__)

ATTACK_KINDS = ("none", "random_noise", "sign_flip", "label_flip", "ipm")

DEFAULT_GAMMA = {"random_noise": 0.5, "sign_flip": 5.0, "label_flip": 4.0}  # for an unset `gamma`
IPM_GAMMAS = (0.5, 1.0, 2.0, 5.0, 10.0)  # ipm's line search when `gamma` is unset


@dataclass
class AttackConfig:
    kind: str = "none"
    epsilon: float = 0.0  # compromised fraction of the client population
    # The scale: noise std, flip amplification or ipm's gamma*.  Unset, it is
    # the kind's DEFAULT_GAMMA when the payload is built (ipm: the line search).
    gamma: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        if self.gamma is not None and self.gamma <= 0.0:
            raise ValueError("gamma must be positive")


def assign_roles(num_clients: int, epsilon: float, seed_rng: np.random.Generator) -> set:
    """Pick round(epsilon * N) compromised client ids, uniformly, fixed for the run."""
    count = int(np.floor(epsilon * num_clients + 0.5))
    return set(int(i) for i in seed_rng.choice(num_clients, size=count, replace=False))


def draw_shared_noise(dim: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """The per-round noise vector every noise-attack client adds in common."""
    return sigma * rng.standard_normal(dim)


def random_noise_attack(reference_delta: np.ndarray, shared_noise: np.ndarray) -> np.ndarray:
    """Reference honest delta plus the round's shared Gaussian noise.

    Every compromised client submits this same vector, so the poisoned
    payloads are bit-identical within a round.
    """
    if reference_delta.shape != shared_noise.shape:
        raise ValueError("delta and noise dims differ")
    return reference_delta + shared_noise


def sign_flip_attack(delta: np.ndarray, gamma: float) -> np.ndarray:
    """Negate and amplify the client's own honest delta."""
    return -gamma * delta


def rotate_labels(dataset: Dataset) -> Dataset:
    """Relabel every sample from y to (y + 1) mod C; features untouched."""
    return Dataset(
        dataset.features,
        (dataset.labels + 1) % dataset.num_classes,
        dataset.num_classes,
    )


def scale_delta(delta: np.ndarray, gamma: float) -> np.ndarray:
    """Amplify a (mislabeled-training) delta to strengthen its pull."""
    return gamma * delta


def simulated_aggregate_delta(
    benign_estimate: np.ndarray, gamma: float, n_sampled: int, n_malicious: int
) -> np.ndarray:
    """Delta the server would average if the attack used this gamma."""
    honest = (n_sampled - n_malicious) * benign_estimate
    poisoned = n_malicious * (-gamma * benign_estimate)
    return (honest + poisoned) / n_sampled


def ipm_line_search(
    global_vector: np.ndarray,
    template: nn.MlpModel,
    benign_estimate: np.ndarray,
    proxy: Dataset,
    gamma_grid: Sequence[float],
    n_sampled: int,
    n_malicious: int,
) -> Tuple[float, List[float]]:
    """Pick the scaling that damages the proxy data most.

    For each candidate gamma the attacker simulates next round's aggregate,
    w_global + ((n - m) * est + m * (-gamma * est)) / n, and scores its mean
    cross-entropy on the proxy dataset (the union of the compromised clients'
    own data) with one `defense.eval_update` call over the whole grid, as
    the server scores its candidates on its probe set.  Returns the argmax
    gamma, ties going to the larger value, along with the per-grid-point
    losses.  Every sampled client may be compromised (m = n): the simulated
    aggregate is then the payload itself.
    """
    if not 0 < n_malicious <= n_sampled:
        raise ValueError("need 0 < compromised <= sampled clients")
    stack = np.stack([
        global_vector + simulated_aggregate_delta(benign_estimate, gamma, n_sampled, n_malicious)
        for gamma in gamma_grid
    ])
    losses = eval_update(stack, template, proxy, "loss").tolist()
    best = max(range(len(losses)), key=lambda i: (losses[i], gamma_grid[i]))
    return float(gamma_grid[best]), losses


def ipm_attack(
    global_vector: np.ndarray,
    template: nn.MlpModel,
    benign_estimate: np.ndarray,
    proxy: Dataset,
    cfg: AttackConfig,
    n_sampled: int,
    n_malicious: int,
) -> Tuple[np.ndarray, float]:
    """Payload opposing the estimated benign direction: -gamma* x estimate.

    A set `cfg.gamma` is gamma*; an unset one is picked from IPM_GAMMAS by
    the surrogate-loss line search above.  All compromised clients submit
    the identical payload.
    """
    grid = IPM_GAMMAS if cfg.gamma is None else (cfg.gamma,)
    gamma_star, _ = ipm_line_search(
        global_vector, template, benign_estimate, proxy, grid, n_sampled, n_malicious
    )
    return -gamma_star * benign_estimate, gamma_star


def compromised_clients(cfg: AttackConfig, num_clients: int, seed: int) -> Set[int]:
    """The run's compromised client ids, from the master seed's attack
    stream; none for `none`, whose clients all train honestly, at any epsilon."""
    if cfg.kind == "none" or cfg.epsilon == 0.0:
        return set()
    return assign_roles(num_clients, cfg.epsilon, rng.substream(seed, rng.ATTACK))


def training_shards(cfg: AttackConfig, shards: Sequence[Dataset], sampled: Sequence[int],
                    malicious: Set[int]) -> List[Dataset]:
    """The shard each sampled client trains on this round, in `sampled`
    order: a label_flip attacker's own with rotated labels, else its own."""
    flip = cfg.kind == "label_flip"
    return [rotate_labels(shards[c]) if flip and c in malicious else shards[c] for c in sampled]


def apply_attack(
    cfg: AttackConfig, seed: int, round_index: int, bad_rows: List[int], deltas: np.ndarray,
    shards: Sequence[Dataset], template: nn.MlpModel, global_vector: np.ndarray,
) -> None:
    """Overwrite the compromised rows of the round's (n, P) delta stack with
    their payloads; `shards[r]` is the shard row r trained on."""
    if not bad_rows:
        return
    gamma = DEFAULT_GAMMA.get(cfg.kind) if cfg.gamma is None else cfg.gamma
    if cfg.kind == "random_noise":
        stream = rng.substream(seed, rng.ATTACK, round_index)
        noise = draw_shared_noise(global_vector.size, gamma, stream)
        deltas[bad_rows] = random_noise_attack(deltas[bad_rows[0]], noise)
    elif cfg.kind == "sign_flip":
        deltas[bad_rows] = sign_flip_attack(deltas[bad_rows], gamma)
    elif cfg.kind == "label_flip":
        deltas[bad_rows] = scale_delta(deltas[bad_rows], gamma)
    elif cfg.kind == "ipm":
        bad = [shards[r] for r in bad_rows]
        proxy = Dataset(np.vstack([shard.features for shard in bad]),
                        np.concatenate([shard.labels for shard in bad]), bad[0].num_classes)
        payload, gamma_star = ipm_attack(global_vector, template, deltas[bad_rows].mean(axis=0),
                                         proxy, cfg, len(deltas), len(bad_rows))
        log.debug("round %d ipm gamma*=%g", round_index, gamma_star)
        deltas[bad_rows] = payload
