import struct

import numpy as np
import pytest

from bfl import data
from bfl.config import ToyDatasetSpec

TOY = ToyDatasetSpec()


def blobs(seed, num_classes, per_class, spread=TOY.spread, dims=TOY.dims):
    """`data.make_toy_blobs` with the toy dataset's centers, spread and dims
    unless given."""
    centers = data.polygon_centers(num_classes, TOY.radius)
    return data.make_toy_blobs(seed, num_classes, per_class, centers, spread, dims)


def test_polygon_centers_on_circle():
    centers = data.polygon_centers(5, radius=2.0)
    assert centers.shape == (5, 2)
    np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 2.0, rtol=1e-12)
    # distinct directions
    assert len({tuple(np.round(c, 9)) for c in centers}) == 5


def test_make_toy_blobs_counts_and_determinism():
    ds = blobs(seed=5, num_classes=3, per_class=40)
    assert len(ds) == 120
    assert ds.dim == 2
    np.testing.assert_array_equal(np.bincount(ds.labels), [40, 40, 40])
    again = blobs(seed=5, num_classes=3, per_class=40)
    np.testing.assert_array_equal(ds.features, again.features)
    other = blobs(seed=6, num_classes=3, per_class=40)
    assert not np.array_equal(ds.features, other.features)


def test_make_toy_blobs_clusters_near_centers():
    centers = data.polygon_centers(3, TOY.radius)
    ds = blobs(seed=0, num_classes=3, per_class=200, spread=0.3)
    for c in range(3):
        mean = ds.features[ds.labels == c].mean(axis=0)
        assert np.linalg.norm(mean - centers[c]) < 0.15


def test_make_toy_blobs_extra_dims_are_centered_noise():
    ds = blobs(seed=1, num_classes=3, per_class=300, spread=0.5, dims=7)
    assert ds.dim == 7
    tail = ds.features[:, 2:]
    np.testing.assert_allclose(tail.mean(axis=0), 0.0, atol=0.1)
    np.testing.assert_allclose(tail.std(axis=0), 0.5, atol=0.1)
    # first two axes still carry the class structure
    centers = data.polygon_centers(3, TOY.radius)
    for c in range(3):
        mean = ds.features[ds.labels == c, :2].mean(axis=0)
        assert np.linalg.norm(mean - centers[c]) < 0.2


def test_train_test_split_stratified():
    ds = blobs(seed=2, num_classes=3, per_class=300)
    train, test = data.train_test_split(ds, seed=7)
    assert len(train) == 600 and len(test) == 300
    np.testing.assert_array_equal(np.bincount(train.labels), [200, 200, 200])
    np.testing.assert_array_equal(np.bincount(test.labels), [100, 100, 100])
    # no sample in both halves, none lost
    all_rows = np.vstack([train.features, test.features])
    assert np.unique(all_rows, axis=0).shape[0] == 900


def test_train_test_split_deterministic():
    ds = blobs(seed=2, num_classes=3, per_class=50)
    a1, b1 = data.train_test_split(ds, seed=3)
    a2, b2 = data.train_test_split(ds, seed=3)
    np.testing.assert_array_equal(a1.features, a2.features)
    np.testing.assert_array_equal(b1.labels, b2.labels)


def test_largest_remainder_exact_total():
    fr = np.array([0.301, 0.299, 0.4])
    out = data._largest_remainder(fr, 10)
    assert out.sum() == 10
    np.testing.assert_array_equal(out, [3, 3, 4])


def test_largest_remainder_tie_prefers_lower_index():
    out = data._largest_remainder(np.array([0.25, 0.25, 0.25, 0.25]), 5)
    assert out.sum() == 5
    np.testing.assert_array_equal(out, [2, 1, 1, 1])


def test_dirichlet_partition_covers_every_sample_once():
    ds = blobs(seed=10, num_classes=3, per_class=100)
    clients = data.dirichlet_partition(ds, 8, 0.5, seed=4)
    assert len(clients) == 8
    seen = np.concatenate(clients)
    assert seen.dtype == np.int64
    assert sorted(seen.tolist()) == list(range(300))
    for c in clients:
        assert list(c) == sorted(c)
        assert len(c) >= 1


def test_dirichlet_partition_alpha_controls_skew():
    ds = blobs(seed=11, num_classes=3, per_class=200)

    def mean_top_class_share(alpha):
        clients = data.dirichlet_partition(ds, 10, alpha, seed=4)
        shares = []
        for c in clients:
            counts = np.bincount(ds.labels[c], minlength=3)
            shares.append(counts.max() / counts.sum())
        return np.mean(shares)

    # alpha 0.1: most clients dominated by one class; alpha 100: near uniform
    assert mean_top_class_share(0.1) > 0.75
    assert mean_top_class_share(100.0) < 0.45


def test_dirichlet_partition_no_empty_clients_when_scarce():
    ds = blobs(seed=12, num_classes=2, per_class=4)
    clients = data.dirichlet_partition(ds, 6, 100.0, seed=1)
    assert len(clients) == 6
    assert all(len(c) >= 1 for c in clients)
    seen = sorted(np.concatenate(clients).tolist())
    assert seen == list(range(8))


def test_dirichlet_partition_deterministic():
    ds = blobs(seed=10, num_classes=3, per_class=60)
    a = data.dirichlet_partition(ds, 5, 1.0, seed=9)
    b = data.dirichlet_partition(ds, 5, 1.0, seed=9)
    for ca, cb in zip(a, b):
        np.testing.assert_array_equal(ca, cb)


def test_dataset_validation():
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((2, 2)), np.array([0, -1]), 2)


def write_idx_images(path, arrays):
    n = len(arrays)
    rows, cols = arrays[0].shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, n, rows, cols))
        for a in arrays:
            fh.write(a.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", data.IDX_LABEL_MAGIC, len(labels)))
        fh.write(bytes(int(v) for v in labels))


def test_load_idx_roundtrip(tmp_path):
    imgs = [np.full((2, 3), v, dtype=np.uint8) for v in (0, 128, 255)]
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    write_idx_images(ip, imgs)
    write_idx_labels(lp, [0, 1, 2])
    ds = data.load_idx(str(ip), str(lp))
    assert len(ds) == 3
    assert ds.dim == 6
    assert ds.num_classes == 3
    np.testing.assert_allclose(ds.features[0], 0.0)
    np.testing.assert_allclose(ds.features[1], 128.0 / 255.0)
    np.testing.assert_allclose(ds.features[2], 1.0)
    np.testing.assert_array_equal(ds.labels, [0, 1, 2])


def test_load_idx_bad_magic(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2))
        fh.write(bytes(4))
    write_idx_labels(lp, [0])
    with pytest.raises(data.IdxBadMagicError):
        data.load_idx(str(ip), str(lp))


def test_load_idx_truncated(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2, 2, 2))
        fh.write(bytes(5))  # needs 8
    write_idx_labels(lp, [0, 1])
    with pytest.raises(data.IdxTruncatedError):
        data.load_idx(str(ip), str(lp))


def test_load_idx_count_mismatch(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    write_idx_images(ip, [np.zeros((2, 2), dtype=np.uint8)] * 3)
    write_idx_labels(lp, [0, 1])
    with pytest.raises(data.IdxCountMismatchError):
        data.load_idx(str(ip), str(lp))

