import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfl import aggregators as agg
from bfl import oracles
from bfl.aggregators import AggregatorConfig


def matrix(rows):
    return np.array(rows, dtype=float)


def geometric_median(rows):
    return agg.geometric_median(matrix(rows))


def test_fedavg_weights_by_sample_count():
    np.testing.assert_allclose(agg.fedavg(matrix([[0.0, 0.0], [3.0, 6.0]]), [1, 2]), [2.0, 4.0])


def test_fedavg_equal_counts_is_plain_mean():
    mat = np.random.default_rng(0).standard_normal((5, 4))
    np.testing.assert_allclose(agg.fedavg(mat, [7] * 5), mat.mean(axis=0))


def test_coord_median_odd_and_even():
    np.testing.assert_allclose(agg.coord_median(matrix([[1.0], [5.0], [2.0]])), [2.0])
    np.testing.assert_allclose(agg.coord_median(matrix([[1.0], [5.0], [2.0], [4.0]])), [3.0])


def test_trimmed_mean_with_zero_cut_is_mean():
    np.testing.assert_allclose(agg.trimmed_mean(matrix([[1.0], [2.0], [9.0]]), 0.1), [4.0])


def test_trimmed_mean_cuts_extremes():
    mat = matrix([[v] for v in (0.0, 1.0, 2.0, 3.0, 100.0)])
    np.testing.assert_allclose(agg.trimmed_mean(mat, 0.2), [2.0])


def test_multi_krum_rejects_outlier():
    rng = np.random.default_rng(5)
    cloud = rng.standard_normal((7, 3)) * 0.1
    cloud[3] = [50.0, 50.0, 50.0]
    ids, _ = agg.multi_krum(cloud, 0.2)
    assert 3 not in ids
    assert len(ids) == 5


def test_multi_krum_score_tie_prefers_lower_id():
    # Four corners of a square: all scores equal, so selection is by row,
    # and rows come in ascending client id.
    square = matrix([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ids, avg = agg.multi_krum(square, 0.1)
    assert ids == {0, 1, 2}
    np.testing.assert_array_equal(avg, square[:3].mean(axis=0))


def test_nnm_mix_distance_tie_prefers_lower_row():
    # Row 1 sits midway between rows 0 and 2: its two-row neighborhood is
    # itself and the lower of the two equally near rows.
    mat = matrix([[0.0], [1.0], [2.0], [9.0]])
    mixed = agg.nnm_mix(mat, 0.4)  # 4 - ceil(1.6) = 2 neighbors
    np.testing.assert_array_equal(mixed, [[0.5], [0.5], [1.5], [5.5]])


def test_multi_krum_too_small_raises():
    with pytest.raises(ValueError):
        agg.multi_krum(matrix([[0.0], [1.0], [2.0]]), 0.3)  # 3 - 1 - 2 = 0 peers


def test_geometric_median_equilateral_triangle():
    """Fermat point of the unit equilateral triangle, value frozen by hand."""
    out = geometric_median([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    np.testing.assert_allclose(out, [0.5, 0.28868], atol=1e-3)


def test_geometric_median_collinear_and_coincident():
    mat = matrix([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
    out = geometric_median(mat)
    assert np.all(np.isfinite(out))
    # the duplicated point is the exact median here
    assert agg.geometric_objective(out, mat) <= agg.geometric_objective(
        np.array([0.0, 0.0]), mat
    ) + 1e-9


def test_geometric_median_single_and_pair():
    np.testing.assert_allclose(geometric_median([[2.0, 3.0]]), [2.0, 3.0])
    pair = matrix([[0.0, 0.0], [2.0, 0.0]])
    assert agg.geometric_objective(geometric_median(pair), pair) <= 2.0 + 1e-9


@pytest.mark.parametrize("seed", [7, 14, 20, 50, 79])
def test_geometric_median_matches_the_grid_where_a_median_sits_near_an_input(seed):
    # Each of these seeds draws a case whose median lies near, not on, an
    # input point, where Weiszfeld alone stalls short of the 1e-6 gap.
    assert oracles.rule_mismatches("geometric_median", 20, seed) == []


def test_krum_oracle_forgives_a_tie_at_the_cut():
    # Case 55 of seed 53: two mixed rows tie on their Krum score up to
    # rounding, and the rule and the oracle order them differently.
    assert oracles.rule_mismatches("nnm_krum", 56, 53) == []


def test_krum_oracle_still_fails_a_rule_that_keeps_the_wrong_rows(monkeypatch):
    def keep_the_worst(mat, beta):
        scores = agg.multi_krum_scores(mat, beta)
        worst = sorted(range(len(mat)), key=lambda i: -scores[i])[: len(mat) - agg._krum_cap(len(mat), beta)]
        return set(worst), mat[worst].mean(axis=0)

    monkeypatch.setattr(agg, "multi_krum", keep_the_worst)
    assert len(oracles.rule_mismatches("multi_krum", 20, 0)) == 20
    assert len(oracles.rule_mismatches("nnm_krum", 20, 0)) > 0


# Small integer coordinates give duplicates, collinear sets and medians on
# an input point; the scale spreads them over six orders of magnitude.
POINT_SETS = st.integers(1, 6).flatmap(
    lambda dim: st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=1, max_size=9)
)


@settings(max_examples=150)
@given(rows=POINT_SETS, scale=st.sampled_from([1e-3, 1.0, 250.0]), shift=st.floats(-2.0, 2.0))
def test_geometric_median_is_optimal_and_beats_the_mean_and_every_input(rows, scale, shift):
    mat = np.array(rows, dtype=float) * scale + shift
    out = geometric_median(mat)
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
        out = geometric_median([a, b])
        np.testing.assert_allclose(out, (np.array(a) + np.array(b)) / 2.0, rtol=0.0, atol=1e-12)


def test_geometric_median_of_coincident_points_is_that_point():
    point = [0.1, -2.0 / 3.0, 1e-9]
    assert geometric_median([point] * 3).tolist() == point
    # Three copies outweigh the pull of two others, so the copy is the median.
    out = geometric_median([point] * 3 + [[5.0, 5.0, 5.0], [-4.0, 1.0, 0.0]])
    assert out.tolist() == point


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_geometric_median_of_a_non_finite_input_is_not_finite(bad):
    out = geometric_median([[0.0, 1.0], [bad, 2.0], [3.0, 0.5]])
    assert out.shape == (2,)
    assert not np.isfinite(out).all()


def test_aggregate_dispatch_covers_all_rules():
    mat = np.random.default_rng(6).standard_normal((6, 3))
    counts = np.arange(1, 7)
    for kind in agg.AGGREGATOR_KINDS:
        vec = agg.aggregate(mat, AggregatorConfig(kind=kind, beta=0.2), counts)
        assert vec.shape == (3,)
        assert np.all(np.isfinite(vec))
    np.testing.assert_array_equal(
        agg.aggregate(mat, AggregatorConfig(), counts), agg.fedavg(mat, counts)
    )
    with pytest.raises(ValueError):
        agg.aggregate(mat, AggregatorConfig(kind="fedavg", beta=-0.5), counts)


def test_aggregate_rejects_an_empty_matrix():
    with pytest.raises(ValueError):
        agg.aggregate(np.empty((0, 3)), AggregatorConfig("coord_median"), [])
