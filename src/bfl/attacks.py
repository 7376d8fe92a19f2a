"""Poisoned-update constructions for compromised clients.

All payloads are delta vectors (local weights minus the broadcast global
weights).  Honest training happens first; the attack then transforms the
honest delta (label flipping additionally corrupts the training data before
the honest pass).  The round driver decides which sampled clients are
compromised and hands the coordinated pieces (shared noise, benign-mean
estimate) to these functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .data import Dataset
from .defense import eval_update

ATTACK_KINDS = ("none", "random_noise", "sign_flip", "label_flip", "ipm")
IPM_OBJECTIVES = ("surrogate_loss", "inner_product")

FLIP_GAMMA = {"sign_flip": 5.0, "label_flip": 4.0}  # `gamma` when a config leaves it unset


@dataclass
class AttackConfig:
    kind: str = "none"
    epsilon: float = 0.0  # compromised fraction of the client population
    sigma: float = 0.5  # noise scale for random_noise
    gamma: Optional[float] = None  # scaling for sign_flip / label_flip
    gamma_grid: Tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0)
    # "surrogate_loss" picks the grid point whose simulated aggregate hurts a
    # proxy dataset most; "inner_product" is the literal most-opposed-update
    # reading and picks the largest grid point outright.
    ipm_objective: str = "surrogate_loss"

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.gamma is None:
            self.gamma = FLIP_GAMMA.get(self.kind)
        elif self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.kind == "ipm" and not self.gamma_grid:
            raise ValueError("gamma_grid must not be empty")
        if self.ipm_objective not in IPM_OBJECTIVES:
            raise ValueError(f"unknown ipm_objective {self.ipm_objective!r}")


def assign_roles(num_clients: int, epsilon: float, seed_rng: np.random.Generator) -> set:
    """Pick round(epsilon * N) compromised client ids, uniformly, fixed for the run."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
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
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
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
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
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
    own data) with `defense.eval_update`, as the server scores a candidate
    on its probe set.  Returns the argmax gamma, ties going to the larger value,
    along with the per-grid-point losses.  Every sampled client may be
    compromised (m = n): the simulated aggregate is then the payload itself.
    """
    if not gamma_grid:
        raise ValueError("gamma_grid must not be empty")
    if not 0 < n_malicious <= n_sampled:
        raise ValueError("need 0 < compromised <= sampled clients")
    losses = [
        eval_update(
            global_vector + simulated_aggregate_delta(benign_estimate, gamma, n_sampled, n_malicious),
            template, proxy, "loss",
        )
        for gamma in gamma_grid
    ]
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

    gamma* comes from the surrogate-loss line search above, or is simply the
    largest grid point under the literal inner-product objective (any gamma
    opposes the benign mean equally in direction; bigger is more opposed).
    All compromised clients submit the identical payload.
    """
    if cfg.ipm_objective == "inner_product":
        gamma_star = float(max(cfg.gamma_grid))
    else:
        gamma_star, _ = ipm_line_search(
            global_vector,
            template,
            benign_estimate,
            proxy,
            cfg.gamma_grid,
            n_sampled,
            n_malicious,
        )
    return -gamma_star * benign_estimate, gamma_star
