import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfl import aggregators as agg
from bfl import oracles
from bfl.aggregators import AggregatorConfig, ClientUpdate


def updates_from(mat, counts=None):
    counts = counts if counts is not None else [1] * len(mat)
    return [ClientUpdate(i, np.asarray(row, dtype=float), c) for i, (row, c) in enumerate(zip(mat, counts))]


def geometric_median(updates):
    cfg = AggregatorConfig("geometric_median")
    return agg.geometric_median(updates, cfg.weiszfeld_tol, cfg.weiszfeld_max_iter)


def random_updates(rng, n, d):
    return updates_from(rng.standard_normal((n, d)))


def test_fedavg_weights_by_sample_count():
    ups = updates_from([[0.0, 0.0], [3.0, 6.0]], counts=[1, 2])
    np.testing.assert_allclose(agg.fedavg(ups), [2.0, 4.0])


def test_fedavg_equal_counts_is_plain_mean():
    rng = np.random.default_rng(0)
    ups = random_updates(rng, 5, 4)
    np.testing.assert_allclose(
        agg.fedavg(ups), np.mean([u.params for u in ups], axis=0)
    )


def test_coord_median_odd_and_even():
    ups = updates_from([[1.0], [5.0], [2.0]])
    np.testing.assert_allclose(agg.coord_median(ups), [2.0])
    ups = updates_from([[1.0], [5.0], [2.0], [4.0]])
    np.testing.assert_allclose(agg.coord_median(ups), [3.0])


def test_trimmed_mean_with_zero_cut_is_mean():
    ups = updates_from([[1.0], [2.0], [9.0]])
    np.testing.assert_allclose(agg.trimmed_mean(ups, 0.1), [4.0])


def test_trimmed_mean_cuts_extremes():
    ups = updates_from([[v] for v in (0.0, 1.0, 2.0, 3.0, 100.0)])
    np.testing.assert_allclose(agg.trimmed_mean(ups, 0.2), [2.0])


def test_multi_krum_rejects_outlier():
    rng = np.random.default_rng(5)
    cloud = rng.standard_normal((7, 3)) * 0.1
    cloud[3] = [50.0, 50.0, 50.0]
    ids, _ = agg.multi_krum(updates_from(cloud), 0.2)
    assert 3 not in ids
    assert len(ids) == 5


def test_multi_krum_score_tie_prefers_lower_id():
    # Four corners of a square: all scores equal, so selection is by id.
    square = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    ids, _ = agg.multi_krum(updates_from(square), 0.1)
    assert ids == {0, 1, 2}


def test_multi_krum_too_small_raises():
    ups = updates_from([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        agg.multi_krum(ups, 0.3)  # 3 - 1 - 2 = 0 peers


def test_geometric_median_equilateral_triangle():
    """Fermat point of the unit equilateral triangle, value frozen by hand."""
    pts = updates_from([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    out = geometric_median(pts)
    np.testing.assert_allclose(out, [0.5, 0.28868], atol=1e-3)


def test_geometric_median_collinear_and_coincident():
    ups = updates_from([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
    out = geometric_median(ups)
    assert np.all(np.isfinite(out))
    mat = np.stack([u.params for u in ups])
    # the duplicated point is the exact median here
    assert agg.geometric_objective(out, mat) <= agg.geometric_objective(
        np.array([0.0, 0.0]), mat
    ) + 1e-9


def test_geometric_median_single_and_pair():
    one = updates_from([[2.0, 3.0]])
    np.testing.assert_allclose(geometric_median(one), [2.0, 3.0])
    pair = updates_from([[0.0, 0.0], [2.0, 0.0]])
    out = geometric_median(pair)
    mat = np.stack([u.params for u in pair])
    assert agg.geometric_objective(out, mat) <= 2.0 + 1e-9


@pytest.mark.parametrize("seed", [7, 14, 20, 50, 79])
def test_geometric_median_matches_the_grid_where_a_median_sits_near_an_input(seed):
    # Each of these seeds draws a case whose median lies near, not on, an
    # input point, where Weiszfeld alone stalls short of the 1e-6 gap.
    assert oracles.rule_mismatches("geometric_median", 20, seed) == []


# Small integer coordinates give duplicates, collinear sets and medians on
# an input point; the scale spreads them over six orders of magnitude.
POINT_SETS = st.integers(1, 6).flatmap(
    lambda dim: st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=1, max_size=9)
)


@settings(max_examples=150)
@given(rows=POINT_SETS, scale=st.sampled_from([1e-3, 1.0, 250.0]), shift=st.floats(-2.0, 2.0))
def test_geometric_median_is_optimal_and_beats_the_mean_and_every_input(rows, scale, shift):
    mat = np.array(rows, dtype=float) * scale + shift
    out = geometric_median(updates_from(mat))
    score = agg.geometric_objective(out, mat)
    assert score <= agg.geometric_objective(mat.mean(axis=0), mat)
    assert score <= min(agg.geometric_objective(row, mat) for row in mat) * (1.0 + 1e-12)
    # Zero is a subgradient: the unit vectors to the other points sum to a
    # norm no larger than the number of points sitting at the result (to
    # within rounding of its coordinates).
    diff = mat - out
    dist = np.linalg.norm(diff, axis=1)
    here = dist <= 1e-12 * (1.0 + np.abs(mat).max())
    pull = np.linalg.norm((diff[~here] / dist[~here, None]).sum(axis=0))
    assert pull <= here.sum() + 1e-6 * len(mat)


def test_geometric_median_of_two_points_is_their_midpoint():
    for a, b in (([0.0, 0.0], [2.0, 0.0]), ([1.5, -3.0, 0.25], [-7.0, 2.0, 9.5])):
        out = geometric_median(updates_from([a, b]))
        np.testing.assert_allclose(out, (np.array(a) + np.array(b)) / 2.0, rtol=0.0, atol=1e-12)


def test_geometric_median_of_coincident_points_is_that_point():
    point = [0.1, -2.0 / 3.0, 1e-9]
    assert geometric_median(updates_from([point] * 3)).tolist() == point
    # Three copies outweigh the pull of two others, so the copy is the median.
    out = geometric_median(updates_from([point] * 3 + [[5.0, 5.0, 5.0], [-4.0, 1.0, 0.0]]))
    assert out.tolist() == point


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_geometric_median_of_a_non_finite_input_is_not_finite(bad):
    out = geometric_median(updates_from([[0.0, 1.0], [bad, 2.0], [3.0, 0.5]]))
    assert out.shape == (2,)
    assert not np.isfinite(out).all()


def test_aggregate_dispatch_covers_all_rules():
    rng = np.random.default_rng(6)
    ups = random_updates(rng, 6, 3)
    for kind in agg.AGGREGATOR_KINDS:
        vec = agg.aggregate(ups, AggregatorConfig(kind=kind, beta=0.2))
        assert vec.shape == (3,)
        assert np.all(np.isfinite(vec))
    with pytest.raises(ValueError):
        agg.aggregate(ups, AggregatorConfig(kind="fedavg", beta=-0.5))


def test_aggregate_rejects_empty_and_mixed_dims():
    with pytest.raises(ValueError):
        agg.fedavg([])
    bad = [
        ClientUpdate(0, np.zeros(3), 1),
        ClientUpdate(1, np.zeros(4), 1),
    ]
    with pytest.raises(ValueError):
        agg.fedavg(bad)


def test_client_update_validation():
    with pytest.raises(ValueError):
        ClientUpdate(0, np.zeros((2, 2)), 1)
    with pytest.raises(ValueError):
        ClientUpdate(0, np.zeros(2), 0)
