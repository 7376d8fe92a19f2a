"""Datasets: synthetic Gaussian blobs, IDX file ingestion, client partitioning,
and the config's dataset specs with their load checks.

Features are float64 matrices of shape (n, dim) and labels are int64 vectors
with values in [0, num_classes).  A partition gives each client a sorted
index array into the parent dataset, so it can be checked for being an
exact disjoint cover.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple, Union

import numpy as np

from .rng import DATASET, PARTITION, SPLIT, subseed, substream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
TEST_FRACTION = 1.0 / 3.0  # each toy class's share held out to test on


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


def polygon_centers(num_classes: int, radius: float) -> np.ndarray:
    """Class centers at the vertices of a regular polygon in the plane."""
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    return np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])


def make_toy_blobs(
    seed: int,
    num_classes: int,
    per_class: int,
    centers: np.ndarray,
    spread: float,
    dims: int,
) -> Dataset:
    """Isotropic Gaussian blobs around `centers`, one per class, `per_class`
    samples each.

    When `dims` exceeds the center dimension the centers are zero-padded,
    which buries the class signal in a low-dimensional subspace and leaves
    the remaining axes as pure noise.  Same seed, same bytes.
    """
    centers = np.hstack([centers, np.zeros((num_classes, dims - centers.shape[1]))])
    rng = substream(seed)
    feats = []
    labels = []
    for c in range(num_classes):
        feats.append(centers[c] + spread * rng.standard_normal((per_class, centers.shape[1])))
        labels.append(np.full(per_class, c, dtype=np.int64))
    return Dataset(np.vstack(feats), np.concatenate(labels), num_classes)


def stratified_test_count(class_size: int) -> int:
    """Rows of one class that `train_test_split` puts in the test set."""
    return int(round(TEST_FRACTION * class_size))


def train_test_split(dataset: Dataset, seed: int) -> Tuple[Dataset, Dataset]:
    """Stratified split: each class contributes its own TEST_FRACTION share."""
    rng = substream(seed)
    test_idx = []
    train_idx = []
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == c)
        idx = rng.permutation(idx)
        n_test = stratified_test_count(idx.size)
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
) -> List[np.ndarray]:
    """Split a dataset across clients with class-wise Dirichlet proportions.

    For each class, client shares are drawn from Dirichlet(alpha, ..., alpha)
    over the clients and converted to integer counts by largest remainder, so
    the shards are an exact disjoint cover of the dataset.  Small alpha means
    each client sees few classes; large alpha approaches a uniform split.
    Clients left empty are re-dealt one sample from the largest client.
    Returns each client's sorted int64 indices into `dataset`.
    """
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
    return [np.sort(shard) for shard in shards]


def _check_size(path: str, need: int, left: int) -> None:
    if left < need:
        raise IdxTruncatedError(f"{path}: expected {need} more bytes, got {left}")


def read_idx(path: str, magic: int, body: bool = True) -> Tuple[List[int], Optional[np.ndarray]]:
    """An IDX file's header dimensions and, when `body`, its items as one
    flat uint8 array.  The file must start with `magic` and be long enough
    for every item its header declares, which the file size shows, so
    without `body` only the header is read."""
    head = 4 * ((magic & 0xFF) + 1)  # the magic's low byte counts the dimensions
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size
        _check_size(path, head, left)
        got, *dims = struct.unpack(f">{head // 4}I", fh.read(head))
        if got != magic:
            raise IdxBadMagicError(f"{path}: magic 0x{got:08x}, expected 0x{magic:08x}")
        _check_size(path, math.prod(dims), left - head)
        return dims, np.frombuffer(fh.read(math.prod(dims)), dtype=np.uint8) if body else None


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load a big-endian IDX image/label pair into a flat float dataset.

    Pixels are scaled from [0, 255] to [0.0, 1.0].  Raises IdxBadMagicError,
    IdxTruncatedError, or IdxCountMismatchError for the respective defects.
    """
    (count, rows, cols), pixels = read_idx(images_path, IDX_IMAGE_MAGIC)
    (labelled,), labels = read_idx(labels_path, IDX_LABEL_MAGIC)
    if count != labelled:
        raise IdxCountMismatchError(
            f"{images_path} has {count} images but {labels_path} has {labelled} labels"
        )
    num_classes = int(labels.max()) + 1 if labels.size else 1
    images = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(images, labels, num_classes)


@dataclass
class ToyDatasetSpec:
    num_classes: int = 3
    per_class: int = 300
    radius: float = 3.0
    spread: float = 0.6
    dims: int = 2

    kind = "toy"

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if stratified_test_count(self.per_class) < 1:  # per_class < 2
            raise ValueError("per_class must be >= 2, so that each class has a test row")
        if self.radius <= 0.0 or self.spread <= 0.0:
            raise ValueError("radius and spread must be positive")
        if self.dims < 2:
            raise ValueError("dims must be >= 2")

    @property
    def train_size(self) -> int:
        """Training rows after the stratified split."""
        return self.num_classes * (self.per_class - stratified_test_count(self.per_class))


@dataclass
class IdxDatasetSpec:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str

    kind = "idx"

    def __post_init__(self) -> None:
        """Checks every file's header and size, so a cell never starts on an
        IDX set that `load_idx` would refuse; that the training images have
        pixels and the test images the same shape; that there is a test
        image; and that no test label lies beyond the training labels,
        which set the classifier's output width."""
        paths = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, path in paths.items():
            if not os.path.isfile(path):
                raise ValueError(f"{name}: no such file {path!r}")
        dims, labels = {}, {}
        for name, path in paths.items():
            header_only = name.endswith("images")  # the labels are read whole
            try:
                dims[name], labels[name] = read_idx(
                    path, IDX_IMAGE_MAGIC if header_only else IDX_LABEL_MAGIC, body=not header_only
                )
            except IdxFormatError as exc:
                raise ValueError(f"{name}: {exc}") from exc
        (count, *shape), (tests, *test_shape) = dims["train_images"], dims["test_images"]
        if 0 in shape:
            raise ValueError(f"train_images: {shape[0]}x{shape[1]} images have no pixels")
        if test_shape != shape:
            raise ValueError(
                f"test_images: {test_shape[0]}x{test_shape[1]} images, but the train_images "
                f"are {shape[0]}x{shape[1]}"
            )
        if tests < 1:
            raise ValueError("test_images: holds no images to test on")
        for split in ("train", "test"):
            images, labelled = dims[f"{split}_images"][0], dims[f"{split}_labels"][0]
            if images != labelled:
                raise ValueError(f"{split}_labels: {labelled} labels for {images} {split}_images")
        top = {split: max(labels[f"{split}_labels"].tolist(), default=-1)
               for split in ("train", "test")}
        if top["test"] > top["train"]:
            raise ValueError(
                f"test_labels: label {top['test']} is beyond the training labels, "
                f"which reach {top['train']}"
            )
        self.train_size = count  # training rows


DATASET_KINDS = {"toy": ToyDatasetSpec, "idx": IdxDatasetSpec}
DatasetSpec = Union[ToyDatasetSpec, IdxDatasetSpec]  # picked by the "kind" key


def build_datasets(cfg) -> Tuple[Dataset, Dataset, np.ndarray, np.ndarray]:
    """Materialize an `ExperimentConfig`'s train/test sets plus the
    per-feature input range.

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
        subseed(cfg.seed, DATASET),
        spec.num_classes,
        spec.per_class,
        polygon_centers(spec.num_classes, spec.radius),
        spec.spread,
        spec.dims,
    )
    train, test = train_test_split(full, subseed(cfg.seed, SPLIT))
    margin = 2.0 * spec.spread
    lo = np.full(spec.dims, -(spec.radius + margin))
    hi = np.full(spec.dims, spec.radius + margin)
    lo[2:] = -margin
    hi[2:] = margin
    return train, test, lo, hi
