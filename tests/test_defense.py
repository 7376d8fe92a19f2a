import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nn_oracles
from bfl import defense, nn
from bfl.defense import DefenseConfig, ScoreEntry


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


def test_defense_config_validation():
    with pytest.raises(ValueError):
        DefenseConfig(q=0)
    with pytest.raises(ValueError):
        DefenseConfig(filter="median")
    with pytest.raises(ValueError):
        DefenseConfig(metric="f1")
    with pytest.raises(ValueError):
        DefenseConfig(gen_lr=0.0)
    with pytest.raises(ValueError):
        DefenseConfig(early_stop_patience=0)


def test_generator_output_respects_box():
    rng = np.random.default_rng(0)
    cls = make_classifier(rng)
    lo = np.array([-2.0, 0.0])
    hi = np.array([3.0, 1.0])
    gen = defense.new_generator(cls, DefenseConfig(), rng, lo, hi)
    noise = rng.standard_normal((500, 16))
    labels = rng.integers(0, 3, size=500)
    out = gen.generate(noise, labels)
    assert out.shape == (500, 2)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_generator_scaling_maps_tanh_extremes_to_box_edges():
    rng = np.random.default_rng(1)
    cls = make_classifier(rng)
    lo = np.array([-1.0, 2.0])
    hi = np.array([1.0, 6.0])
    gen = defense.new_generator(cls, DefenseConfig(), rng, lo, hi)
    np.testing.assert_allclose(gen._scale(np.array([[-1.0, -1.0]])), [[-1.0, 2.0]])
    np.testing.assert_allclose(gen._scale(np.array([[1.0, 1.0]])), [[1.0, 6.0]])
    np.testing.assert_allclose(gen._scale(np.array([[0.0, 0.0]])), [[0.0, 4.0]])


def test_generator_conditioning_appends_onehot():
    rng = np.random.default_rng(2)
    cls = make_classifier(rng)
    gen = defense.new_generator(cls, DefenseConfig(noise_dim=4), rng, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    cond = gen._condition(np.zeros((2, 4)), np.array([2, 0]))
    np.testing.assert_array_equal(cond[:, 4:], [[0, 0, 1], [1, 0, 0]])


def test_train_generator_converges_on_sharp_classifier():
    """A crisp frozen classifier should be imitated well before the cap."""
    cls = sector_classifier()
    cfg = DefenseConfig()
    lo = np.array([-4.0, -4.0])
    hi = np.array([4.0, 4.0])
    gen, iters = defense.train_generator(cls, cfg, master_seed=5, round_index=1, out_lo=lo, out_hi=hi)
    assert iters < cfg.gen_max_iter
    probe = defense.synthesize(gen, 64, master_seed=5, round_index=1)
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
    np.testing.assert_array_equal(
        g1.backbone.params, g2.backbone.params
    )
    g3, _ = defense.train_generator(cls, cfg, 9, 3, lo, hi)
    assert not np.array_equal(
        g1.backbone.params, g3.backbone.params
    )


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
    cfg = DefenseConfig(noise_dim=noise_dim, gen_max_iter=max_iter,
                        early_stop_loss=stop_loss, early_stop_patience=patience)
    with np.errstate(all="ignore"):
        gen, iters = defense.train_generator(classifier, cfg, seed, 3, lo, hi)
        ref, ref_iters, _ = nn_oracles.generator_fit(classifier, cfg, seed, 3, lo, hi)
    assert iters == ref_iters
    assert gen.backbone.params.tobytes() == ref.backbone.params.tobytes()


def test_train_generator_against_nan_classifier_stops_after_plateau_windows():
    # A NaN window mean is never a new best, so the fit gives up after
    # PLATEAU_WINDOWS windows instead of running to gen_max_iter.
    classifier = nn.init_mlp([12, 16, 16, 3], "relu", np.random.default_rng(11))
    classifier.params[:] = np.nan
    cfg = DefenseConfig()
    with np.errstate(all="ignore"):
        _, iters = defense.train_generator(classifier, cfg, 0, 1, -np.ones(12), np.ones(12))
    assert iters == defense.PLATEAU_WINDOWS * cfg.early_stop_patience == 200


def test_synthesize_balanced_and_deterministic():
    rng = np.random.default_rng(6)
    cls = make_classifier(rng)
    gen = defense.new_generator(cls, DefenseConfig(), rng, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    ds = defense.synthesize(gen, 17, master_seed=1, round_index=4)
    assert len(ds) == 51
    np.testing.assert_array_equal(np.bincount(ds.labels), [17, 17, 17])
    # class blocks in order
    np.testing.assert_array_equal(ds.labels[:17], 0)
    again = defense.synthesize(gen, 17, master_seed=1, round_index=4)
    np.testing.assert_array_equal(ds.features, again.features)
    other = defense.synthesize(gen, 17, master_seed=1, round_index=5)
    assert not np.array_equal(ds.features, other.features)


def test_eval_update_accuracy_and_loss_orientation():
    # Probe points labeled by the model itself: the intact model must score
    # perfect accuracy and a negated copy must score strictly worse CE.
    rng = np.random.default_rng(7)
    cls = sector_classifier()
    params = cls.params
    feats = rng.standard_normal((64, 2)) * 2.0
    from bfl.data import Dataset

    probe = Dataset(feats, nn.forward(cls, feats).argmax(axis=1), 3)
    acc = defense.eval_update(params, cls, probe, "accuracy")
    loss = defense.eval_update(params, cls, probe, "loss")
    assert acc == 1.0
    assert loss >= 0.0
    wrecked = defense.eval_update(params * -1.0, cls, probe, "loss")
    assert wrecked > loss
    with pytest.raises(ValueError):
        defense.eval_update(params, cls, probe, "auc")


def test_score_updates_sorted_by_id_and_loss_negated():
    rng = np.random.default_rng(8)
    cls = make_classifier(rng)
    params = cls.params
    probe = defense.synthesize(
        defense.new_generator(cls, DefenseConfig(), rng, np.array([-4.0, -4.0]), np.array([4.0, 4.0])),
        8, master_seed=3, round_index=1,
    )
    entries = defense.score_updates(
        [(5, params), (1, params * 0.5), (3, params)], cls, probe, "loss"
    )
    assert [e.client_id for e in entries] == [1, 3, 5]
    for e in entries:
        assert e.score == -e.raw_metric


@pytest.mark.parametrize("metric", defense.METRIC_KINDS)
def test_score_updates_scores_a_non_finite_metric_minus_inf(metric, monkeypatch):
    # The fake metric of a candidate is its first coordinate.
    monkeypatch.setattr(defense, "eval_update", lambda params, *_: float(params[0]))
    raws = [0.25, math.nan, math.inf, -math.inf]
    entries = defense.score_updates(
        [(k, np.array([raw])) for k, raw in enumerate(raws)], None, None, metric
    )
    assert [e.score for e in entries] == [0.25 if metric == "accuracy" else -0.25] + [-math.inf] * 3
    assert entries[0].raw_metric == 0.25 and math.isnan(entries[1].raw_metric)


def test_score_updates_scores_a_nan_model_minus_inf():
    rng = np.random.default_rng(8)
    cls = make_classifier(rng)
    probe = defense.synthesize(
        defense.new_generator(cls, DefenseConfig(), rng, np.array([-4.0, -4.0]), np.array([4.0, 4.0])),
        8, master_seed=3, round_index=1,
    )
    broken = cls.params.copy()
    broken[0] = np.nan
    with np.errstate(invalid="ignore"):
        [good, bad] = defense.score_updates([(0, cls.params), (1, broken)], cls, probe, "loss")
    assert math.isnan(bad.raw_metric) and bad.score == -math.inf
    assert math.isfinite(good.score)


def test_kmeans_1d_two_matches_exhaustive_oracle_50_sets():
    """Exact split-scan equals the literal WCSS minimum, 50 random sets."""
    rng = np.random.default_rng(50)
    for case in range(50):
        n = int(rng.integers(2, 12))
        values = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        if case % 3 == 0 and n >= 4:
            values[: n // 2] += 10.0  # force a real gap sometimes
        points = list(enumerate(values.tolist()))
        lower, upper = defense.kmeans_1d_two(points)
        ordered = sorted(values.tolist())
        split = len(lower)
        got = _wcss(ordered[:split]) + _wcss(ordered[split:])
        _, oracle_cost = nn_oracles.exhaustive_min_wcss_split(values.tolist())
        assert got == pytest.approx(oracle_cost, abs=1e-9), f"case {case}"
        assert set(lower) | set(upper) == set(range(n))
        assert not (set(lower) & set(upper))


def _wcss(chunk):
    if not chunk:
        return 0.0
    mean = sum(chunk) / len(chunk)
    return sum((v - mean) ** 2 for v in chunk)


def test_kmeans_1d_two_obvious_gap():
    points = [(0, 0.1), (1, 0.2), (2, 0.15), (3, 9.0), (4, 9.5)]
    lower, upper = defense.kmeans_1d_two(points)
    assert lower == [0, 1, 2]
    assert upper == [3, 4]


def test_kmeans_1d_two_all_equal_prefers_large_upper_cluster():
    lower, upper = defense.kmeans_1d_two([(i, 1.0) for i in range(4)])
    assert len(lower) == 1
    assert len(upper) == 3


def test_kmeans_1d_two_needs_two_points():
    with pytest.raises(ValueError):
        defense.kmeans_1d_two([(0, 1.0)])


def entries_from(scores):
    return [ScoreEntry(i, s, s) for i, s in enumerate(scores)]


def test_filter_fixed_strictly_above_tau():
    entries = entries_from([0.2, 0.5, 0.8])
    assert defense.filter_updates(entries, "fixed", 0.5) == {2}
    assert [e.accepted for e in entries] == [False, False, True]


def test_filter_adaptive_strictly_above_mean():
    entries = entries_from([0.0, 0.5, 1.0])  # mean 0.5
    assert defense.filter_updates(entries, "adaptive", 0.0) == {2}


def test_filter_adaptive_all_equal_rejects_all():
    # 0.5 is exactly representable, so the mean equals the scores and the
    # strict comparison drops every entry.
    entries = entries_from([0.5, 0.5, 0.5])
    assert defense.filter_updates(entries, "adaptive", 0.0) == set()


def test_filter_cluster_keeps_best_scorers_cluster():
    entries = entries_from([0.1, 0.12, 0.95, 0.9, 0.11])
    assert defense.filter_updates(entries, "cluster", 0.0) == {2, 3}


def test_filter_cluster_single_entry_accepts_it():
    entries = entries_from([0.3])
    assert defense.filter_updates(entries, "cluster", 0.0) == {0}


@pytest.mark.parametrize("policy", defense.FILTER_KINDS)
def test_filter_rejects_non_finite_scores_and_ignores_them(policy):
    # Over the finite scores alone every policy keeps 0.9 and 0.8: above
    # tau, above their mean 0.6, and the upper of the two clusters.
    entries = entries_from([0.9, math.nan, 0.8, -math.inf, math.inf, 0.1])
    assert defense.filter_updates(entries, policy, 0.5) == {0, 2}
    assert [e.accepted for e in entries] == [True, False, True, False, False, False]


@pytest.mark.parametrize("policy", ["adaptive", "cluster"])
def test_filter_keeps_a_lone_finite_score(policy):
    assert defense.filter_updates(entries_from([math.nan, -0.3, -math.inf]), policy, 0.0) == {1}
    assert defense.filter_updates(entries_from([-0.3]), policy, 0.0) == {0}


@pytest.mark.parametrize("policy", defense.FILTER_KINDS)
def test_filter_without_a_finite_score_accepts_nobody(policy):
    entries = entries_from([math.nan, -math.inf, math.inf])
    assert defense.filter_updates(entries, policy, -1.0) == set()
    assert not any(e.accepted for e in entries)


def test_filters_match_set_builder_definitions_50_sets():
    """fixed/adaptive rebuilt as one-line set comprehensions, 50 sets."""
    rng = np.random.default_rng(51)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        scores = (rng.random(n) * 2.0 - 0.5).tolist()
        tau = float(rng.random())
        entries = entries_from(scores)
        got_fixed = defense.filter_updates(entries, "fixed", tau)
        assert got_fixed == {i for i, s in enumerate(scores) if s > tau}
        entries = entries_from(scores)
        got_adaptive = defense.filter_updates(entries, "adaptive", tau)
        mean = sum(scores) / n
        assert got_adaptive == {i for i, s in enumerate(scores) if s > mean or n == 1}


def test_filter_updates_unknown_policy():
    with pytest.raises(ValueError):
        defense.filter_updates(entries_from([0.1]), "quantile", 0.0)


def test_filter_updates_empty_entries():
    assert defense.filter_updates([], "adaptive", 0.0) == set()
