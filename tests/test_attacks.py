import numpy as np
import pytest

import nn_oracles
from bfl import attacks, data, nn


def test_attack_config_defaults_resolve_gamma():
    assert attacks.AttackConfig(kind="sign_flip", epsilon=0.1).gamma == 5.0
    assert attacks.AttackConfig(kind="label_flip", epsilon=0.1).gamma == 4.0
    assert attacks.AttackConfig(kind="sign_flip", epsilon=0.1, gamma=2.5).gamma == 2.5


def test_attack_config_rejects_garbage():
    with pytest.raises(ValueError):
        attacks.AttackConfig(kind="meteor", epsilon=0.1)
    with pytest.raises(ValueError):
        attacks.AttackConfig(kind="sign_flip", epsilon=1.5)
    with pytest.raises(ValueError):
        attacks.AttackConfig(kind="ipm", epsilon=0.1, ipm_objective="whatever")


def test_assign_roles_count_rounds_half_up():
    rng = np.random.default_rng(0)
    assert len(attacks.assign_roles(20, 0.3, rng)) == 6
    assert len(attacks.assign_roles(10, 0.25, rng)) == 3  # 2.5 rounds up
    assert len(attacks.assign_roles(10, 0.24, rng)) == 2
    assert attacks.assign_roles(10, 0.0, rng) == set()


def test_assign_roles_within_range_no_repeats():
    rng = np.random.default_rng(1)
    roles = attacks.assign_roles(15, 0.4, rng)
    assert len(roles) == 6
    assert all(0 <= c < 15 for c in roles)


def test_random_noise_payload_shared_bitwise():
    rng = np.random.default_rng(3)
    reference = rng.standard_normal(30)
    noise = attacks.draw_shared_noise(30, 0.5, rng)
    a = attacks.random_noise_attack(reference, noise)
    b = attacks.random_noise_attack(reference, noise)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, reference + noise)


def test_draw_shared_noise_scale():
    rng = np.random.default_rng(4)
    noise = attacks.draw_shared_noise(200_000, 0.5, rng)
    assert abs(noise.std() - 0.5) < 0.01
    assert abs(noise.mean()) < 0.01


def test_sign_flip_is_negated_and_amplified():
    delta = np.array([1.0, -2.0, 0.5])
    gamma = attacks.AttackConfig(kind="sign_flip").gamma
    np.testing.assert_array_equal(attacks.sign_flip_attack(delta, gamma), [-5.0, 10.0, -2.5])
    np.testing.assert_array_equal(
        attacks.sign_flip_attack(delta, gamma=2.0), [-2.0, 4.0, -1.0]
    )
    with pytest.raises(ValueError):
        attacks.sign_flip_attack(delta, gamma=0.0)


def test_rotate_labels_cycles_classes():
    ds = data.Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 2]), 3)
    out = attacks.rotate_labels(ds)
    np.testing.assert_array_equal(out.labels, [1, 2, 0, 0])
    assert out.features is ds.features
    assert out.num_classes == 3


def test_scale_delta():
    delta = np.array([0.5, -1.0])
    gamma = attacks.AttackConfig(kind="label_flip").gamma
    np.testing.assert_array_equal(attacks.scale_delta(delta, gamma), [2.0, -4.0])


def test_simulated_aggregate_matches_hand_formula():
    est = np.array([2.0, -1.0])
    # n=10, m=3, gamma=2: ((7)est + 3(-2 est)) / 10 = 0.1 est
    out = attacks.simulated_aggregate_delta(est, 2.0, 10, 3)
    np.testing.assert_allclose(out, 0.1 * est)


def _line_search_case(rng, dim=6, classes=3):
    """Random global model, benign direction, and proxy set for one case."""
    template = nn.init_mlp([dim, 5, classes], "relu", rng)
    vector = template.params
    estimate = rng.standard_normal(vector.size) * rng.uniform(0.05, 0.6)
    feats = rng.standard_normal((12, dim)) * 2.0
    labels = rng.integers(0, classes, size=12)
    proxy = data.Dataset(feats, labels.astype(np.int64), classes)
    return template, vector, estimate, proxy


def test_ipm_line_search_matches_exhaustive_oracle_20_cases():
    """The picked scaling attains the max surrogate loss on every case."""
    rng = np.random.default_rng(77)
    grid = attacks.AttackConfig().gamma_grid
    for case in range(20):
        template, vector, estimate, proxy = _line_search_case(rng)
        n, m = 10, int(rng.integers(1, 5))
        gamma_star, losses = attacks.ipm_line_search(
            vector, template, estimate, proxy, grid, n, m
        )
        oracle = nn_oracles.surrogate_loss_per_gamma(
            vector, template, estimate, proxy.features, proxy.labels, grid, n, m
        )
        np.testing.assert_allclose(losses, oracle, rtol=1e-10)
        best = max(oracle)
        assert oracle[grid.index(gamma_star)] == pytest.approx(best, rel=1e-12), (
            f"case {case}: gamma*={gamma_star} misses the grid max"
        )


def test_ipm_line_search_tie_takes_larger_gamma():
    # With a zero benign estimate every gamma yields the same aggregate,
    # hence identical losses: the tie must resolve to the largest grid point.
    rng = np.random.default_rng(5)
    template, vector, _, proxy = _line_search_case(rng)
    estimate = np.zeros(vector.size)
    gamma_star, losses = attacks.ipm_line_search(
        vector, template, estimate, proxy, (0.5, 1.0, 2.0), 10, 3
    )
    assert len(set(np.round(losses, 12))) == 1
    assert gamma_star == 2.0


def test_ipm_attack_payload_opposes_estimate():
    rng = np.random.default_rng(6)
    template, vector, estimate, proxy = _line_search_case(rng)
    cfg = attacks.AttackConfig(kind="ipm", epsilon=0.3)
    payload, gamma_star = attacks.ipm_attack(
        vector, template, estimate, proxy, cfg, 10, 3
    )
    assert gamma_star in cfg.gamma_grid
    np.testing.assert_allclose(payload, -gamma_star * estimate)


def test_ipm_inner_product_objective_takes_max_grid_point():
    rng = np.random.default_rng(8)
    template, vector, estimate, proxy = _line_search_case(rng)
    cfg = attacks.AttackConfig(kind="ipm", epsilon=0.3, ipm_objective="inner_product")
    payload, gamma_star = attacks.ipm_attack(
        vector, template, estimate, proxy, cfg, 10, 3
    )
    assert gamma_star == max(cfg.gamma_grid)
    np.testing.assert_allclose(payload, -10.0 * estimate)


def test_ipm_line_search_validates_counts():
    rng = np.random.default_rng(9)
    template, vector, estimate, proxy = _line_search_case(rng)
    with pytest.raises(ValueError):
        attacks.ipm_line_search(vector, template, estimate, proxy, (1.0,), 5, 0)
    with pytest.raises(ValueError):
        attacks.ipm_line_search(vector, template, estimate, proxy, (1.0,), 5, 6)
    with pytest.raises(ValueError):
        attacks.ipm_line_search(vector, template, estimate, proxy, (), 5, 2)
    # Every sampled client compromised: the aggregate is the payload itself.
    grid = attacks.AttackConfig().gamma_grid
    gamma_star, losses = attacks.ipm_line_search(vector, template, estimate, proxy, grid, 5, 5)
    oracle = nn_oracles.surrogate_loss_per_gamma(
        vector, template, estimate, proxy.features, proxy.labels, grid, 5, 5
    )
    np.testing.assert_allclose(losses, oracle, rtol=1e-10)
    assert oracle[grid.index(gamma_star)] == pytest.approx(max(oracle), rel=1e-12)
