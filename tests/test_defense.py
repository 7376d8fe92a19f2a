import itertools
import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nn_oracles
from bfl import defense, nn
from bfl.config import config_from_dict
from bfl.data import Dataset
from bfl.defense import DefenseConfig
from bfl.orchestrator import run_experiment


def make_classifier(rng, dim=2, classes=3, sharp=True):
    model = nn.init_mlp([dim, 8, classes], "relu", rng)
    if sharp:
        # scale the logits up so the model is confidently wrong nowhere
        model.layers[-1].weight *= 6.0
    return model


def sector_classifier():
    """Linear 3-class model whose classes are clean angular sectors.

    Logits are projections onto three directions 120 degrees apart, so
    confidence grows steadily away from the origin: an easy, well-shaped
    target for the generator to imitate.
    """
    angles = np.deg2rad([90.0, 210.0, 330.0])
    w = 10.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return nn.MlpModel((2, 3), ("identity",), np.concatenate([w.ravel(), np.zeros(3)]))


def untrained_generator(cls, rng, cfg=DefenseConfig()):
    """A generator of `train_generator`'s shape for `cls`, drawn from `rng`."""
    dims = [cfg.noise_dim + cls.output_dim, *defense.GEN_HIDDEN, cls.input_dim]
    return nn.init_mlp(dims, "relu", rng, out_activation="tanh")


def test_defense_config_validation():
    with pytest.raises(ValueError):
        DefenseConfig(q=0)
    with pytest.raises(ValueError):
        DefenseConfig(filter="median")
    with pytest.raises(ValueError):
        DefenseConfig(metric="f1")
    with pytest.raises(ValueError):
        DefenseConfig(gen_max_iter=0)


def test_generator_output_respects_box():
    rng = np.random.default_rng(0)
    cls = make_classifier(rng)
    lo = np.array([-2.0, 0.0])
    hi = np.array([3.0, 1.0])
    gen = untrained_generator(cls, rng)
    probe = defense.synthesize(gen, DefenseConfig(q=100), 0, 1, lo, hi)
    out = probe.features
    assert out.shape == (300, 2)
    np.testing.assert_array_equal(probe.labels, np.repeat([0, 1, 2], 100))
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_generator_scaling_maps_tanh_extremes_to_box_edges():
    rng = np.random.default_rng(1)
    cls = make_classifier(rng)
    lo = np.array([-1.0, 2.0])
    hi = np.array([1.0, 6.0])
    half = 0.5 * (hi - lo)
    np.testing.assert_allclose(defense._to_box(np.array([[-1.0, -1.0]]), lo, half), [[-1.0, 2.0]])
    np.testing.assert_allclose(defense._to_box(np.array([[1.0, 1.0]]), lo, half), [[1.0, 6.0]])
    np.testing.assert_allclose(defense._to_box(np.array([[0.0, 0.0]]), lo, half), [[0.0, 4.0]])


def test_train_generator_converges_on_sharp_classifier():
    """A crisp frozen classifier should be imitated well before the cap."""
    cls = sector_classifier()
    cfg = DefenseConfig()
    lo = np.array([-4.0, -4.0])
    hi = np.array([4.0, 4.0])
    gen, iters = defense.train_generator(cls, cfg, master_seed=5, round_index=1, out_lo=lo, out_hi=hi)
    assert iters < cfg.gen_max_iter
    assert isinstance(gen, nn.MlpModel) and gen.activations[-1] == "tanh"
    probe = defense.synthesize(gen, cfg, 5, 1, lo, hi)
    logits = nn.forward(cls, probe.features)
    agreement = (logits.argmax(axis=1) == probe.labels).mean()
    assert agreement > 0.9


def test_train_generator_deterministic():
    rng = np.random.default_rng(4)
    cls = make_classifier(rng)
    cfg = DefenseConfig(gen_max_iter=300)
    lo, hi = np.array([-4.0, -4.0]), np.array([4.0, 4.0])
    g1, i1 = defense.train_generator(cls, cfg, 9, 2, lo, hi)
    g2, i2 = defense.train_generator(cls, cfg, 9, 2, lo, hi)
    assert i1 == i2
    np.testing.assert_array_equal(g1.params, g2.params)
    g3, _ = defense.train_generator(cls, cfg, 9, 3, lo, hi)
    assert not np.array_equal(g1.params, g3.params)


@given(
    noise_dim=st.integers(1, 8),
    classes=st.integers(2, 5),
    input_dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 12), max_size=2),
    max_iter=st.integers(1, 40),
    stop_loss=st.sampled_from([1e-4, 0.5, 2.0, 100.0]),
    patience=st.integers(1, 12),
    poison=st.sampled_from([None, np.inf, -np.inf, np.nan]),
    seed=st.integers(0, 2**16),
)
@example(noise_dim=16, classes=3, input_dim=12, hidden=[16, 16], max_iter=30,
         stop_loss=0.1, patience=5, poison=np.nan, seed=7)
@example(noise_dim=2, classes=3, input_dim=2, hidden=[8], max_iter=40,
         stop_loss=100.0, patience=3, poison=-np.inf, seed=1)
# A finite loss that stops improving: the plateau stop ends it at 36.
@example(noise_dim=2, classes=3, input_dim=2, hidden=[8], max_iter=40,
         stop_loss=1e-4, patience=3, poison=None, seed=0)
# A NaN loss from the first iteration: four windows of 4, then a stop.
@example(noise_dim=2, classes=3, input_dim=2, hidden=[8], max_iter=40,
         stop_loss=0.5, patience=4, poison=np.nan, seed=2)
@settings(max_examples=40)
def test_train_generator_matches_composed_reference_fit(
    noise_dim, classes, input_dim, hidden, max_iter, stop_loss, patience, poison, seed
):
    # The fit's prepared buffers and unchecked passes must reproduce the
    # fit composed from the public passes bit for bit: the same iteration
    # count and the same parameter bytes, NaN payloads included.  The
    # reference applies both stopping rules to its own list of losses.
    rng = np.random.default_rng(seed)
    classifier = nn.init_mlp([input_dim, *hidden, classes], "relu", rng)
    if poison is not None:
        classifier.params[rng.integers(0, classifier.params.size, size=3)] = poison
    lo = -0.5 - rng.random(input_dim)
    hi = 0.5 + rng.random(input_dim)
    cfg = DefenseConfig(noise_dim=noise_dim, gen_max_iter=max_iter)
    with np.errstate(all="ignore"), patch.object(defense, "STOP_LOSS", stop_loss), \
            patch.object(defense, "WINDOW", patience):
        gen, iters = defense.train_generator(classifier, cfg, seed, 3, lo, hi)
        ref, ref_iters, _ = nn_oracles.generator_fit(classifier, cfg, seed, 3, lo, hi)
    assert iters == ref_iters
    assert gen.params.tobytes() == ref.params.tobytes()


def test_train_generator_against_nan_classifier_stops_after_plateau_windows():
    # A NaN window mean is never a new best, so the fit gives up after
    # PLATEAU_WINDOWS windows instead of running to gen_max_iter.
    classifier = nn.init_mlp([12, 16, 16, 3], "relu", np.random.default_rng(11))
    classifier.params[:] = np.nan
    cfg = DefenseConfig()
    with np.errstate(all="ignore"):
        _, iters = defense.train_generator(classifier, cfg, 0, 1, -np.ones(12), np.ones(12))
    assert iters == defense.PLATEAU_WINDOWS * defense.WINDOW == 200


def test_synthesize_balanced_and_deterministic():
    rng = np.random.default_rng(6)
    cls = make_classifier(rng)
    gen = untrained_generator(cls, rng)
    cfg, lo, hi = DefenseConfig(q=17), np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    ds = defense.synthesize(gen, cfg, 1, 4, lo, hi)
    assert len(ds) == 51
    np.testing.assert_array_equal(np.bincount(ds.labels), [17, 17, 17])
    # class blocks in order
    np.testing.assert_array_equal(ds.labels[:17], 0)
    again = defense.synthesize(gen, cfg, 1, 4, lo, hi)
    np.testing.assert_array_equal(ds.features, again.features)
    other = defense.synthesize(gen, cfg, 1, 5, lo, hi)
    assert not np.array_equal(ds.features, other.features)


def test_eval_update_accuracy_and_loss_orientation():
    # Probe points labeled by the model itself: the intact model must score
    # perfect accuracy and a negated copy must score strictly worse CE.
    rng = np.random.default_rng(7)
    cls = sector_classifier()
    params = cls.params
    feats = rng.standard_normal((64, 2)) * 2.0
    probe = Dataset(feats, nn.forward(cls, feats).argmax(axis=1), 3)
    acc = defense.eval_update(params, cls, probe, "accuracy")
    loss = defense.eval_update(params, cls, probe, "loss")
    assert acc == 1.0
    assert loss >= 0.0
    wrecked = defense.eval_update(params * -1.0, cls, probe, "loss")
    assert wrecked > loss
    with pytest.raises(ValueError):
        defense.eval_update(params, cls, probe, "auc")


def _probe(rng, cls):
    gen = untrained_generator(cls, rng)
    return defense.synthesize(gen, DefenseConfig(q=8), 3, 1, np.array([-4.0, -4.0]), np.array([4.0, 4.0]))


def test_score_updates_keeps_row_order_and_negates_loss():
    rng = np.random.default_rng(8)
    cls = make_classifier(rng)
    params = cls.params
    probe = _probe(rng, cls)
    stack = np.stack([params * 0.5, params, params])
    scores = defense.score_updates(stack, cls, probe, "loss")
    assert scores.shape == (3,)
    assert scores[1] == -defense.eval_update(params, cls, probe, "loss")
    assert scores.tolist() == [-defense.eval_update(row, cls, probe, "loss") for row in stack]


@pytest.mark.parametrize("metric", defense.METRIC_KINDS)
def test_score_updates_scores_a_non_finite_metric_minus_inf(metric, monkeypatch):
    # The fake metric of a candidate row is its first coordinate.
    monkeypatch.setattr(defense, "eval_update", lambda stack, *_: stack[:, 0])
    raws = [0.25, math.nan, math.inf, -math.inf]
    scores = defense.score_updates(np.array(raws)[:, None], None, None, metric)
    assert scores.tolist() == [0.25 if metric == "accuracy" else -0.25] + [-math.inf] * 3


def test_score_updates_scores_a_nan_model_minus_inf():
    # argmax over NaN logits picks class 0, which would score an accuracy
    # of 1/C on the class-balanced probe: a non-finite logit makes it NaN.
    rng = np.random.default_rng(8)
    cls = make_classifier(rng)
    probe = _probe(rng, cls)
    for metric, bad in itertools.product(defense.METRIC_KINDS, [math.nan, math.inf]):
        broken = cls.params.copy()
        broken[cls.spans[-1][1]] = bad  # every output bias
        with np.errstate(invalid="ignore"):
            good, worse = defense.score_updates(np.stack([cls.params, broken]), cls, probe, metric)
        assert worse == -math.inf, (metric, bad)
        assert math.isfinite(good)


# Stacks of 1-11 candidates, some of them NaN or inf, on probes of 1-40
# rows (a one-row IPM proxy included) in 2, 12 or 784 dimensions.
STACK_CASES = st.tuples(
    st.integers(0, 2**32 - 1), st.sampled_from([2, 12, 784]), st.sampled_from([3, 10]),
    st.integers(1, 11), st.sampled_from([1, 2, 7, 40]),
)


@settings(max_examples=60)
@example(case=(0, 784, 10, 3, 1))
@given(case=STACK_CASES)
def test_stacked_eval_update_rows_match_single_calls_bit_for_bit(case):
    seed, dim, classes, m, rows = case
    rng = np.random.default_rng(seed)
    cls = nn.init_mlp([dim, 16, 16, classes], "relu", rng)
    stack = cls.params + rng.standard_normal((m, cls.params.size)) * rng.choice([0.01, 1.0, 30.0])
    stack[rng.random(m) < 0.2, int(rng.integers(cls.params.size))] = rng.choice([np.nan, np.inf])
    probe = Dataset(rng.standard_normal((rows, dim)), rng.integers(0, classes, rows), classes)
    for metric in defense.METRIC_KINDS:
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = defense.eval_update(stack, cls, probe, metric)
            single = [defense.eval_update(row, cls, probe, metric) for row in stack]
        assert stacked.shape == (m,)
        assert stacked.tobytes() == np.array(single).tobytes(), metric


def test_kmeans_1d_two_matches_exhaustive_oracle_50_sets():
    """Exact split-scan equals the literal WCSS minimum, 50 random sets."""
    rng = np.random.default_rng(50)
    for case in range(50):
        n = int(rng.integers(2, 12))
        values = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        if case % 3 == 0 and n >= 4:
            values[: n // 2] += 10.0  # force a real gap sometimes
        lower, upper = defense.kmeans_1d_two(values)
        ordered = sorted(values.tolist())
        split = len(lower)
        got = _wcss(ordered[:split]) + _wcss(ordered[split:])
        _, oracle_cost = nn_oracles.exhaustive_min_wcss_split(values.tolist())
        assert got == pytest.approx(oracle_cost, abs=1e-9), f"case {case}"
        assert sorted([*lower, *upper]) == list(range(n))
        assert values[lower].max() <= values[upper].min()


def _wcss(chunk):
    if not chunk:
        return 0.0
    mean = sum(chunk) / len(chunk)
    return sum((v - mean) ** 2 for v in chunk)


def test_kmeans_1d_two_obvious_gap():
    lower, upper = defense.kmeans_1d_two(np.array([0.1, 0.2, 0.15, 9.0, 9.5]))
    assert lower.tolist() == [0, 1, 2]
    assert upper.tolist() == [3, 4]


def test_kmeans_1d_two_all_equal_prefers_large_upper_cluster():
    # Equal scores rank the lowest row highest, as the cluster filter's
    # best scorer does, so the lone lower member is the highest row.
    lower, upper = defense.kmeans_1d_two(np.ones(4))
    assert (lower.tolist(), upper.tolist()) == ([3], [0, 1, 2])


@pytest.mark.parametrize(
    "scale, shift",
    [(1e-9, 0.0), (1e-6, 0.0), (1.0, 0.0), (1e6, 0.0), (1e150, 0.0), (1e-9, 2.3), (1e-6, 100.0)],
    ids=["1e-09", "1e-06", "1.0", "1000000.0", "1e+150", "1e-09+2.3", "1e-06+100"],
)
def test_kmeans_1d_two_splits_scaled_scores_alike(scale, shift):
    # An absolute tie tolerance, 1e-12, would count every split cost as
    # tied at scale 1e-6 and below, and keep the first split, {0} | rest.
    # Sums of squares of the shifted scores lose the spread's bits to
    # cancellation, and split them {0} | rest too.
    scores = np.array([0.1, 0.11, 0.5, 0.51, 0.52]) * scale + shift
    lower, upper = defense.kmeans_1d_two(scores)
    assert (lower.tolist(), upper.tolist()) == ([0, 1], [2, 3, 4])


def test_kmeans_1d_two_needs_two_points():
    with pytest.raises(ValueError):
        defense.kmeans_1d_two(np.array([1.0]))


def kept(scores, policy):
    rows = defense.filter_updates(np.array(scores, dtype=np.float64), policy)
    assert rows.dtype.kind == "i"
    return rows.tolist()


def test_filter_adaptive_strictly_above_mean():
    assert kept([0.0, 0.5, 1.0], "adaptive") == [2]  # mean 0.5


@pytest.mark.parametrize("policy", defense.FILTER_KINDS)
def test_filter_accepts_every_finite_score_when_they_are_all_equal(policy):
    # Accuracy on a small probe is coarse, so honest candidates tie.  The
    # mean equals the tied score, and two-means would split off one of them.
    assert kept([0.5] * 5, policy) == list(range(5))
    assert kept([math.nan, 0.5, -math.inf, 0.5], policy) == [1, 3]


def test_filter_adaptive_mean_does_not_overflow():
    # The plain sum of these finite scores is -inf, which every score beats.
    assert kept([-1e308, -1e308, -0.3, -0.2, -0.25], "adaptive") == [2, 3, 4]


def test_filter_cluster_keeps_best_scorers_cluster():
    assert kept([0.1, 0.12, 0.95, 0.9, 0.11], "cluster") == [2, 3]


def test_filter_cluster_single_entry_accepts_it():
    assert kept([0.3], "cluster") == [0]


@pytest.mark.parametrize("policy", defense.FILTER_KINDS)
def test_filter_rejects_non_finite_scores_and_ignores_them(policy):
    # Over the finite scores alone both policies keep 0.9 and 0.8: above
    # their mean 0.6, and the upper of the two clusters.
    assert kept([0.9, math.nan, 0.8, -math.inf, math.inf, 0.1], policy) == [0, 2]


@pytest.mark.parametrize("policy", defense.FILTER_KINDS)
def test_filter_keeps_a_lone_finite_score(policy):
    assert kept([math.nan, -0.3, -math.inf], policy) == [1]
    assert kept([-0.3], policy) == [0]


@pytest.mark.parametrize("policy", defense.FILTER_KINDS)
def test_filter_without_a_finite_score_accepts_nobody(policy):
    assert kept([math.nan, -math.inf, math.inf], policy) == []


def test_filters_match_set_builder_definitions_50_sets():
    """adaptive rebuilt as a one-line list comprehension, 50 sets."""
    rng = np.random.default_rng(51)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        scores = (rng.random(n) * 2.0 - 0.5).tolist()
        mean = sum(scores) / n
        assert kept(scores, "adaptive") == [i for i, s in enumerate(scores) if s > mean or n == 1]


# The scores of the one round of OVERFLOW_CLUSTER_CELL below, in row order:
# rows 0, 4 and 9 are its attackers, clients 0, 6 and 18.
OVERFLOW_SCORES = [
    -3.5651224034660396e+177, -0.36280971304210335, -0.37081026352259805,
    -0.3437851483195149, -1.2972379473605327e+177, -0.3080292231695041,
    -0.38743130841383183, -0.34073634629081573, -0.3551664967927482,
    -2.411388954725253e+177,
]


def test_kmeans_1d_two_splits_scores_whose_squares_overflow():
    # Every split's cost was NaN here once, so the first split, the lowest
    # score alone, was kept.  The exact split puts rows 0 and 9 below.
    scores = np.array(OVERFLOW_SCORES)
    assert not math.isfinite(sum(s * s for s in OVERFLOW_SCORES))
    lower, upper = defense.kmeans_1d_two(scores)
    assert lower.tolist() == [0, 9]
    assert upper.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
    got = nn_oracles.exact_wcss(scores[lower].tolist(), scores[upper].tolist())
    assert got == nn_oracles.exact_min_wcss(OVERFLOW_SCORES)
    assert defense.filter_updates(scores, "cluster").tolist() == upper.tolist()


OVERFLOW_CLUSTER_CELL = {
    "seed": 42, "rounds": 1, "clients": 20, "sampled_per_round": 10, "local_epochs": 5,
    "hidden_dims": [16, 16], "dataset": {"kind": "toy", "dims": 12},
    "attack": {"kind": "sign_flip", "epsilon": 0.3, "gamma": 1e60},
    "defense": {"filter": "cluster", "metric": "loss"},
}


def test_cluster_filter_rejects_the_exact_lower_cluster_of_overflowing_scores():
    # Client 6's score sits nearer the honest ones than the other two
    # attackers' in exact arithmetic too, so it stays accepted.
    report = run_experiment(config_from_dict(OVERFLOW_CLUSTER_CELL))
    (record,) = report.rounds
    assert record.malicious_sampled == [0, 6, 18]
    assert record.rejected == [0, 18]
    assert record.accepted == [1, 3, 5, 6, 7, 11, 16, 17]
    assert record.tpr == pytest.approx(2 / 3) and record.tnr == 1.0


# Lists of 1-12 scores drawn from a pool of up to six values, so exact
# repeats are common: small reals, signed zeros, +-1e308, NaN and +-inf.
SPECIAL_SCORES = [0.0, -0.0, 1e308, -1e308, math.nan, math.inf, -math.inf]
SCORE_LISTS = st.lists(
    st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL_SCORES)), min_size=1, max_size=6
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))


def exact_filter(scores, policy):
    """The rows that `policy` keeps, from its definition in rational
    arithmetic: nothing rounds, overflows or cancels."""
    rows = [r for r, s in enumerate(scores) if math.isfinite(s)]
    exact = {r: Fraction(scores[r]) for r in rows}
    if len(set(exact.values())) < 2:
        return rows
    if policy == "adaptive":
        total = sum(exact.values())
        return [r for r in rows if len(rows) * exact[r] > total]
    # Equal scores rank by descending row; the first split of least WCSS.
    ranked = sorted(rows, key=lambda r: (exact[r], -r))
    ordered = [scores[r] for r in ranked]
    least = nn_oracles.exact_min_wcss(ordered)
    k = next(k for k in range(1, len(ordered))
             if nn_oracles.exact_wcss(ordered[:k], ordered[k:]) == least)
    return sorted(ranked[k:])


@settings(max_examples=300)
@example(scores=OVERFLOW_SCORES)
@example(scores=[-1e308, -1e308, 0.5])
@example(scores=[0.0, -0.0, 0.0, 1.0])
# An absolute tie tolerance of 1e-12 dwarfs every cost here and keeps the
# first split, {0} | {0, 2.6e-142}; the split {0, 0} | {2.6e-142} costs
# nothing.
@example(scores=[0.0, 0.0, 2.59800187740703e-142])
# The float mean of these rounds up to the top score.
@example(scores=[1.0 - 2.0**-53, 1.0, 1.0])
@given(scores=SCORE_LISTS)
def test_row_filters_match_their_exact_definitions(scores):
    for policy in defense.FILTER_KINDS:
        assert kept(scores, policy) == exact_filter(scores, policy), (policy, scores)


@settings(max_examples=300)
@example(scores=OVERFLOW_SCORES)
@example(scores=[-1e308, -1e308, 0.5])
# The float mean of these rounds up to the top score, which is then not
# strictly above it.
@example(scores=[1.0 - 2.0**-53, 1.0, 1.0])
@given(scores=SCORE_LISTS)
def test_a_filter_that_sees_a_finite_score_keeps_a_row(scores):
    for policy in defense.FILTER_KINDS:
        assert bool(kept(scores, policy)) == any(map(math.isfinite, scores)), (policy, scores)


def test_filter_updates_unknown_policy():
    with pytest.raises(ValueError):
        kept([0.1], "quantile")


def test_filter_updates_empty_entries():
    assert kept([], "adaptive") == []
