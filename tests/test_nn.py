import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfl import nn

import nn_oracles


def tiny_model(rng, dims=(4, 6, 3)):
    return nn.init_mlp(list(dims), "relu", rng)


def test_init_shapes_and_activations():
    rng = np.random.default_rng(7)
    model = nn.init_mlp([5, 8, 4, 3], "relu", rng)
    assert [l.weight.shape for l in model.layers] == [(8, 5), (4, 8), (3, 4)]
    assert [l.bias.shape for l in model.layers] == [(8,), (4,), (3,)]
    assert [l.activation for l in model.layers] == ["relu", "relu", "identity"]
    assert model.input_dim == 5
    assert model.output_dim == 3


def test_init_rejects_bad_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        nn.init_mlp([4], "relu", rng)
    with pytest.raises(ValueError):
        nn.init_mlp([4, 0, 3], "relu", rng)


def test_forward_matches_manual_matmul():
    # One hidden layer, checked against the schoolbook matrix product.
    rng = np.random.default_rng(3)
    model = tiny_model(rng)
    x = rng.standard_normal((5, 4))
    h = nn_oracles.matmul_triple_loop(x, model.layers[0].weight.T) + model.layers[0].bias
    h = np.maximum(h, 0.0)
    logits = nn_oracles.matmul_triple_loop(h, model.layers[1].weight.T) + model.layers[1].bias
    np.testing.assert_allclose(nn.forward(model, x), logits, rtol=1e-12)


def test_forward_cached_agrees_with_forward():
    rng = np.random.default_rng(11)
    model = nn.init_mlp([3, 7, 7, 2], "relu", rng)
    x = rng.standard_normal((6, 3))
    out, trace = nn.forward_cached(model, x)
    np.testing.assert_array_equal(out, nn.forward(model, x))
    assert len(trace.z) == 3


def test_forward_cached_builds_a_fresh_trace_for_another_model():
    # A trace serves one model: another model, even one of the same layout
    # over the same vector, gets its own and leaves the first alone.
    rng = np.random.default_rng(12)
    model = nn.init_mlp([3, 7, 2], "relu", rng)
    x = rng.standard_normal((6, 3))
    _, trace = nn.forward_cached(model, x)
    kept = [a.copy() for a in trace.a]
    for other in (model.with_params(model.params), model.with_params(model.params * 2.0)):
        out, fresh = nn.forward_cached(other, x)
        assert fresh is not trace and fresh.model is other
        np.testing.assert_array_equal(out, nn.forward(other, x))
        assert all(np.array_equal(a, b) for a, b in zip(trace.a, kept))


def test_backprop_through_rejects_another_models_trace():
    # Its activations came from the other model's weights.
    rng = np.random.default_rng(13)
    model = nn.init_mlp([3, 7, 2], "relu", rng)
    x = rng.standard_normal((6, 3))
    out, trace = nn.forward_cached(model, x)
    _, dout = nn.softmax_cross_entropy(out, rng.integers(0, 2, size=6))
    with pytest.raises(ValueError, match="another model"):
        nn.backprop_through(model.with_params(model.params.copy()), trace, dout)
    grads, _ = nn.backprop_through(model, trace, dout)
    assert grads.shape == model.params.shape


def test_softmax_cross_entropy_matches_logsumexp():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((8, 4)) * 3.0
    labels = rng.integers(0, 4, size=8)
    loss, dlogits = nn.softmax_cross_entropy(logits, labels)
    per_row = []
    for row, y in zip(logits, labels):
        shifted = row - row.max()
        per_row.append(np.log(np.exp(shifted).sum()) - shifted[y])
    np.testing.assert_allclose(loss, np.mean(per_row), rtol=1e-12)
    assert dlogits.shape == logits.shape


@pytest.mark.parametrize("bad", [3, -1])
def test_softmax_cross_entropy_rejects_labels_out_of_range(bad):
    # Picks use flat indices, so an unchecked label would read another row.
    with pytest.raises(ValueError, match="out of range"):
        nn.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, bad]))


def test_softmax_cross_entropy_huge_logits_stay_finite():
    logits = np.array([[1e5, -1e5, 0.0], [-1e5, 1e5, 0.0]])
    loss, dlogits = nn.softmax_cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss)
    assert np.all(np.isfinite(dlogits))


def _pre_activation_margin(model, batch):
    """Smallest |pre-activation| over the relu layers for this batch.

    Central differences straddle the relu kink whenever some unit's input
    sits within the step size of zero, so draws that close are invalid
    gradient-check cases rather than backprop failures.
    """
    margin = np.inf
    _, trace = nn.forward_cached(model, batch)
    for layer, z in zip(model.layers, trace.z):
        if layer.activation == "relu":
            margin = min(margin, float(np.abs(z).min()))
    return margin


def test_gradient_check_20_random_networks():
    """Backprop vs central finite differences on random shapes and data.

    Normwise relative error below 1e-4 on every one of 20 kink-free draws.
    """
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < 20:
        attempts += 1
        assert attempts < 400, "could not find enough kink-free draws"
        depth = rng.integers(1, 4)
        dims = [int(rng.integers(2, 6))]
        for _ in range(depth):
            dims.append(int(rng.integers(2, 7)))
        dims.append(int(rng.integers(2, 5)))
        model = nn.init_mlp(dims, "relu", rng)
        batch = rng.standard_normal((int(rng.integers(2, 8)), dims[0]))
        labels = rng.integers(0, dims[-1], size=batch.shape[0])
        if _pre_activation_margin(model, batch) < 1e-3:
            continue
        checked += 1

        _, flat = nn.backward(model, batch, labels)

        fd = nn_oracles.central_difference_grads(model, batch, labels)
        err = np.abs(flat - fd).max() / max(np.abs(fd).max(), 1e-12)
        worst = max(worst, err)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_backprop_through_input_gradient():
    # The propagated input gradient must match finite differences too;
    # the generator relies on it to learn through the frozen classifier.
    rng = np.random.default_rng(31)
    model = nn.init_mlp([3, 5, 2], "relu", rng)
    x = rng.standard_normal((4, 3))
    labels = rng.integers(0, 2, size=4)
    out, caches = nn.forward_cached(model, x)
    _, dlogits = nn.softmax_cross_entropy(out, labels)
    _, dx = nn.backprop_through(model, caches, dlogits)

    h = 1e-6
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            bumped = x.copy()
            bumped[i, j] += h
            up, _ = nn.softmax_cross_entropy(nn.forward(model, bumped), labels)
            bumped[i, j] -= 2 * h
            down, _ = nn.softmax_cross_entropy(nn.forward(model, bumped), labels)
            fd[i, j] = (up - down) / (2 * h)
    np.testing.assert_allclose(dx, fd, atol=1e-6)


def test_sgd_step_constant_gradient_recurrence():
    """Two momentum steps with a constant gradient, frozen by hand.

    v1 = g, w1 = w0 - lr g; v2 = 1.9 g, w2 = w0 - lr g (1 + 1.9).
    """
    model = nn.MlpModel((1, 1), ("identity",), np.array([2.0, 0.0]))  # w, b
    cfg = nn.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    state = nn.init_momentum(model)
    g = np.array([1.0, 0.0])
    model = nn.sgd_step(model, g, cfg, state)
    assert model.layers[0].weight[0, 0] == pytest.approx(2.0 - 0.1)
    model = nn.sgd_step(model, g, cfg, state)
    assert model.layers[0].weight[0, 0] == pytest.approx(2.0 - 0.1 * (1.0 + 1.9))
    closed = nn_oracles.constant_gradient_momentum_value(2.0, 1.0, 0.1, 0.9, 2)
    assert model.layers[0].weight[0, 0] == pytest.approx(closed)


def test_sgd_step_ten_steps_match_closed_form():
    model = nn.MlpModel((1, 1), ("identity",), np.array([0.5, 0.0]))
    cfg = nn.SgdConfig(learning_rate=0.01, momentum=0.9, weight_decay=0.0)
    state = nn.init_momentum(model)
    g = np.array([2.0, 0.0])
    for _ in range(10):
        model = nn.sgd_step(model, g, cfg, state)
    expect = nn_oracles.constant_gradient_momentum_value(0.5, 2.0, 0.01, 0.9, 10)
    assert model.layers[0].weight[0, 0] == pytest.approx(expect, rel=1e-12)


def test_weight_decay_hits_weights_not_biases():
    model = nn.MlpModel((1, 1), ("identity",), np.array([1.0, 1.0]))
    cfg = nn.SgdConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.5)
    state = nn.init_momentum(model)
    zero = np.array([0.0, 0.0])
    model = nn.sgd_step(model, zero, cfg, state)
    # weight gradient 0 + 0.5*1.0 decay, bias untouched
    assert model.layers[0].weight[0, 0] == pytest.approx(0.5)
    assert model.layers[0].bias[0] == pytest.approx(1.0)


def test_flat_layout_views_roundtrip():
    rng = np.random.default_rng(9)
    model = nn.init_mlp([4, 6, 3], "relu", rng)
    vec = model.params
    assert vec.size == 4 * 6 + 6 + 6 * 3 + 3
    rebuilt = model.with_params(vec)
    for a, b in zip(model.layers, rebuilt.layers):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
    # layout: layer 0 weights row-major, layer 0 bias, then layer 1
    np.testing.assert_array_equal(vec[:24], model.layers[0].weight.ravel())
    np.testing.assert_array_equal(vec[24:30], model.layers[0].bias)
    # the layers are views: writing one writes the vector
    model.layers[1].bias[0] = 5.0
    assert vec[-3] == 5.0


def test_with_params_rejects_wrong_length():
    rng = np.random.default_rng(1)
    model = tiny_model(rng)
    with pytest.raises(ValueError):
        model.with_params(np.zeros(model.params.size + 1))


def test_with_params_does_not_alias_template():
    rng = np.random.default_rng(13)
    model = tiny_model(rng)
    vec = model.params
    doubled = vec * 2.0
    other = model.with_params(doubled)
    assert other.layers[0].weight[0, 0] == pytest.approx(2.0 * model.layers[0].weight[0, 0])
    other.layers[0].weight[0, 0] = 123.0
    assert model.layers[0].weight[0, 0] != 123.0
    # it wraps the vector it was given, without a copy
    assert doubled[0] == 123.0


def test_sgd_step_updates_params_and_state_in_place():
    rng = np.random.default_rng(17)
    model = tiny_model(rng)
    cfg = nn.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    state = nn.init_momentum(model)
    grads = np.ones_like(model.params)
    before = model.params.copy()
    stepped = nn.sgd_step(model, grads, cfg, state)
    assert stepped is model
    assert not np.array_equal(model.params, before)
    assert np.any(state.velocity != 0)


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        nn.SgdConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        nn.SgdConfig(momentum=-0.1)
    with pytest.raises(ValueError):
        nn.SgdConfig(momentum=1.0)
    with pytest.raises(ValueError):
        nn.SgdConfig(weight_decay=-1e-4)


def test_stacked_step_matches_each_model_alone():
    # Three models of one layout in an (m, P) stack, one 5-row batch each:
    # forward, cross-entropy, backward and SGD step give each model the bits
    # it gets alone, and the stack's layer views write through to it.
    rng = np.random.default_rng(21)
    template = nn.init_mlp([4, 6, 5, 3], "relu", rng)
    stack = rng.standard_normal((3, template.params.size))
    batches = rng.standard_normal((3, 5, 4))
    labels = rng.integers(0, 3, size=(3, 5))
    cfg = nn.SgdConfig()
    stacked = template.with_params(stack.copy())
    assert stacked.layers[0].weight.shape == (3, 6, 4)
    assert stacked.layers[0].bias.shape == (3, 1, 6)
    out, trace = nn.forward_cached(stacked, batches)
    losses, dout = nn.softmax_cross_entropy(out, labels)
    grads, _ = nn.backprop_through(stacked, trace, dout, input_grad=False)
    nn.sgd_step(stacked, grads, cfg, nn.init_momentum(stacked))
    for k in range(3):
        alone = template.with_params(stack[k].copy())
        out, trace = nn.forward_cached(alone, batches[k])
        loss, dout = nn.softmax_cross_entropy(out, labels[k])
        grads, _ = nn.backprop_through(alone, trace, dout, input_grad=False)
        nn.sgd_step(alone, grads, cfg, nn.init_momentum(alone))
        assert losses[k] == loss
        assert stacked.params[k].tobytes() == alone.params.tobytes()


def test_padding_rows_get_no_gradient_and_stay_out_of_the_mean():
    rng = np.random.default_rng(23)
    logits = rng.standard_normal((2, 6, 3))
    labels = rng.integers(0, 3, size=(2, 6))
    losses, dlogits = nn.softmax_cross_entropy(logits, labels, np.array([6, 4]))
    assert not dlogits[1, 4:].any()
    for k, n in enumerate((6, 4)):
        loss, grad = nn.softmax_cross_entropy(logits[k, :n], labels[k, :n])
        assert dlogits[k, :n].tobytes() == grad.tobytes()
        assert losses[k] == pytest.approx(loss, rel=1e-15)


@settings(max_examples=80)
@given(
    hidden=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    classes=st.integers(2, 10),
    rows=st.integers(2, 40),
    models=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_stacked_step_matches_each_model_alone_at_narrow_widths(hidden, classes, rows, models, seed):
    # Layers of width 1-3 and 2-10 classes: the stacked cross-entropy shift,
    # the bias sums (einsum from width 2, add.reduce at width 1) and the
    # weight decay give each model the bits it gets alone.
    rng = np.random.default_rng(seed)
    template = nn.init_mlp([3, *hidden, classes], "relu", rng)
    stack = rng.standard_normal((models, template.params.size))
    batches = rng.standard_normal((models, rows, 3))
    labels = rng.integers(0, classes, size=(models, rows))
    cfg = nn.SgdConfig(weight_decay=0.01)
    stacked = template.with_params(stack.copy())
    out, trace = nn.forward_cached(stacked, batches)
    losses, dout = nn.softmax_cross_entropy(out, labels)
    grads, _ = nn.backprop_through(stacked, trace, dout, input_grad=False)
    raw = grads.copy()  # sgd_step adds the decay into grads
    nn.sgd_step(stacked, grads, cfg, nn.init_momentum(stacked))
    for k in range(models):
        alone = template.with_params(stack[k].copy())
        out, trace = nn.forward_cached(alone, batches[k])
        loss, dout = nn.softmax_cross_entropy(out, labels[k])
        grad, _ = nn.backprop_through(alone, trace, dout, input_grad=False)
        assert raw[k].tobytes() == grad.tobytes()
        nn.sgd_step(alone, grad, cfg, nn.init_momentum(alone))
        assert losses[k] == loss
        assert stacked.params[k].tobytes() == alone.params.tobytes()


def test_stacked_cross_entropy_gradient_keeps_its_bits_on_ties_and_non_finite_logits():
    # A stacked row gets the finite loss and every gradient bit it gets
    # alone, on tied zeros of either sign and on non-finite logits too,
    # apart from which NaN a NaN row carries.
    rng = np.random.default_rng(41)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308])
    for classes in range(1, 11):
        logits = rng.choice([0.0, -0.0, -1.0, 2.0], size=(4, 9, classes))
        logits[rng.random(logits.shape) < 0.1] = rng.choice(specials)
        labels = rng.integers(0, classes, size=(4, 9))
        with np.errstate(invalid="ignore", over="ignore"):
            losses, dlogits = nn.softmax_cross_entropy(logits, labels)
        for k in range(4):
            with np.errstate(invalid="ignore", over="ignore"):
                loss, grad = nn.softmax_cross_entropy(logits[k], labels[k])
            same_nan = np.where(np.isnan(dlogits[k]), np.nan, dlogits[k])
            assert same_nan.tobytes() == np.where(np.isnan(grad), np.nan, grad).tobytes()
            assert losses[k] == loss or (np.isnan(losses[k]) and np.isnan(loss))


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4, 0.5])
def test_sgd_step_matches_the_per_layer_reference_on_non_finite_parameters(stacked, weight_decay):
    rng = np.random.default_rng(43)
    template = nn.init_mlp([3, 4, 2, 3], "relu", rng)
    shape = (3, template.params.size) if stacked else (template.params.size,)
    params = rng.standard_normal(shape)
    grads = rng.standard_normal(shape)
    for vec in (params, grads):
        flat = vec.reshape(-1)
        flat[rng.integers(0, flat.size, 20)] = rng.choice([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0], 20)
    # Every layer's bias holds an inf and a -0.0 gradient, so decaying it,
    # or adding +0.0 to it, would show.
    for _, b in template.spans:
        params[..., b.start] = np.inf
        grads[..., b.stop - 1] = -0.0
    velocity = rng.standard_normal(shape)
    cfg = nn.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=weight_decay)
    model = template.with_params(params.copy())
    got_grads = grads.copy()
    state = nn.init_momentum(model)
    state.velocity[...] = velocity
    want = template.with_params(params.copy())
    want_grads, want_velocity = grads.copy(), velocity.copy()
    with np.errstate(invalid="ignore"):
        nn.sgd_step(model, got_grads, cfg, state)
        nn_oracles.sgd_step_per_layer(want, want_grads, cfg, want_velocity)
    assert got_grads.tobytes() == want_grads.tobytes()
    assert state.velocity.tobytes() == want_velocity.tobytes()
    assert model.params.tobytes() == want.params.tobytes()
    for _, b in template.spans:
        assert got_grads[..., b].tobytes() == grads[..., b].tobytes()
