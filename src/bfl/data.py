"""Datasets: synthetic Gaussian blobs, IDX file ingestion, client partitioning.

Features are float64 matrices of shape (n, dim) and labels are int64 vectors
with values in [0, num_classes).  Client shards hold index views into the
parent dataset so partitions can be checked for disjointness exactly.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rng import PARTITION, substream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(Exception):
    """Base class for IDX ingestion failures."""


class IdxBadMagicError(IdxFormatError):
    """File does not start with the expected magic number."""


class IdxTruncatedError(IdxFormatError):
    """File ends before the header-declared payload."""


class IdxCountMismatchError(IdxFormatError):
    """Image and label files disagree on the sample count."""


@dataclass
class Dataset:
    features: np.ndarray  # (n, dim) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be (n, dim)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class ClientDataset:
    """One client's shard, kept as indices into the parent dataset."""

    client_id: int
    parent: Dataset
    indices: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)

    def __len__(self) -> int:
        return self.indices.size

    @property
    def features(self) -> np.ndarray:
        return self.parent.features[self.indices]

    @property
    def labels(self) -> np.ndarray:
        return self.parent.labels[self.indices]

    @property
    def num_classes(self) -> int:
        return self.parent.num_classes


def polygon_centers(num_classes: int, radius: float = 3.0) -> np.ndarray:
    """Class centers at the vertices of a regular polygon in the plane."""
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    return np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])


def make_toy_blobs(
    seed: int,
    num_classes: int,
    per_class: int,
    centers: Optional[np.ndarray] = None,
    spread: float = 0.6,
    dims: int = 2,
) -> Dataset:
    """Isotropic Gaussian blobs, one per class, `per_class` samples each.

    Defaults place the centers on a regular polygon of radius 3 so classes
    stay well separated at the default spread of 0.6.  When `dims` exceeds
    the center dimension the centers are zero-padded, which buries the class
    signal in a low-dimensional subspace and leaves the remaining axes as
    pure noise.  Same seed, same bytes.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if spread <= 0.0:
        raise ValueError("spread must be positive")
    if centers is None:
        centers = polygon_centers(num_classes)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.shape[0] != num_classes:
        raise ValueError("one center per class required")
    if dims < centers.shape[1]:
        raise ValueError("dims must be at least the center dimension")
    if dims > centers.shape[1]:
        pad = np.zeros((num_classes, dims - centers.shape[1]))
        centers = np.hstack([centers, pad])
    rng = substream(seed)
    feats = []
    labels = []
    for c in range(num_classes):
        feats.append(centers[c] + spread * rng.standard_normal((per_class, centers.shape[1])))
        labels.append(np.full(per_class, c, dtype=np.int64))
    return Dataset(np.vstack(feats), np.concatenate(labels), num_classes)


def stratified_test_count(class_size: int, test_fraction: float) -> int:
    """Rows of one class that `train_test_split` puts in the test set."""
    return int(round(test_fraction * class_size))


def train_test_split(
    dataset: Dataset, test_fraction: float, seed: int
) -> Tuple[Dataset, Dataset]:
    """Stratified split: each class contributes its own test_fraction share."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = substream(seed)
    test_idx = []
    train_idx = []
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == c)
        idx = rng.permutation(idx)
        n_test = stratified_test_count(idx.size, test_fraction)
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    mk = lambda sel: Dataset(
        dataset.features[sel].copy(), dataset.labels[sel].copy(), dataset.num_classes
    )
    return mk(train), mk(test)


def _largest_remainder(fractions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total`, proportional to `fractions`.

    Floors first, then hands the remaining units to the largest fractional
    parts (ties to the lower index, for determinism).
    """
    raw = fractions * total
    base = np.floor(raw).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.lexsort((np.arange(fractions.size), -(raw - base)))
        base[order[:short]] += 1
    return base


def dirichlet_partition(
    dataset: Dataset, num_clients: int, alpha: float, seed: int
) -> List[ClientDataset]:
    """Split a dataset across clients with class-wise Dirichlet proportions.

    For each class, client shares are drawn from Dirichlet(alpha, ..., alpha)
    over the clients and converted to integer counts by largest remainder, so
    the shards are an exact disjoint cover of the dataset.  Small alpha means
    each client sees few classes; large alpha approaches a uniform split.
    Clients left empty are re-dealt one sample from the largest client.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if num_clients > len(dataset):
        raise ValueError("more clients than samples")
    rng = substream(seed, PARTITION)
    per_client: List[List[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        shares = rng.dirichlet(np.full(num_clients, alpha))
        counts = _largest_remainder(shares, idx.size)
        stops = np.cumsum(counts)
        start = 0
        for j, stop in enumerate(stops):
            if stop > start:
                per_client[j].append(idx[start:stop])
            start = int(stop)
    shards = [
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        for parts in per_client
    ]
    # Re-deal: an empty client takes one sample from the currently largest one.
    for j in range(num_clients):
        if shards[j].size == 0:
            sizes = [s.size for s in shards]
            donor = int(np.argmax(sizes))
            shards[j] = shards[donor][-1:]
            shards[donor] = shards[donor][:-1]
    return [
        ClientDataset(j, dataset, np.sort(shards[j])) for j in range(num_clients)
    ]


def _read_exact(fh, count: int, path: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise IdxTruncatedError(f"{path}: expected {count} more bytes, got {len(buf)}")
    return buf


def _read_header(fh, path: str, magic: int, sizes: int) -> List[int]:
    """The `sizes` big-endian dimensions that follow an IDX file's magic."""
    got, *dims = struct.unpack(f">{sizes + 1}I", _read_exact(fh, 4 * (sizes + 1), path))
    if got != magic:
        raise IdxBadMagicError(f"{path}: magic 0x{got:08x}, expected 0x{magic:08x}")
    return dims


def idx_count(path: str, magic: int) -> int:
    """The item count in an IDX file's header, once the file size shows that
    every item the header declares is there.  Reads the header alone."""
    with open(path, "rb") as fh:
        dims = _read_header(fh, path, magic, magic & 0xFF)  # the low byte counts the dims
        size, need = os.fstat(fh.fileno()).st_size - fh.tell(), math.prod(dims)
    if size < need:
        raise IdxTruncatedError(f"{path}: expected {need} more bytes, got {size}")
    return dims[0]


def _load_idx_images(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        count, rows, cols = _read_header(fh, path, IDX_IMAGE_MAGIC, 3)
        raw = _read_exact(fh, count * rows * cols, path)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    return pixels.astype(np.float64) / 255.0


def load_idx_labels(path: str) -> np.ndarray:
    """The labels of an IDX label file, as int64."""
    with open(path, "rb") as fh:
        (count,) = _read_header(fh, path, IDX_LABEL_MAGIC, 1)
        raw = _read_exact(fh, count, path)
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load a big-endian IDX image/label pair into a flat float dataset.

    Pixels are scaled from [0, 255] to [0.0, 1.0].  Raises IdxBadMagicError,
    IdxTruncatedError, or IdxCountMismatchError for the respective defects.
    """
    images = _load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    num_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(images, labels, num_classes)

