import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfanet.automata import make_parity_dfa
from dfanet.compiler import build_unrolled_acceptor
from dfanet.encodings import encode_string
from dfanet.network import apply_activation, forward, forward_batch
from dfanet.nn import LOSSES, TRAINABLE, AdamState, TrainableMlp, TrainConfig, UnrolledNet, adam_step, train


def finite_difference_grads(model, inputs, targets, loss, h=1e-5):
    grads = []
    for param in model.parameters:
        grad = np.zeros_like(param)
        flat = param.ravel()
        flat_grad = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up, _ = model.loss_and_gradients(inputs, targets, loss)
            flat[i] = original - h
            down, _ = model.loss_and_gradients(inputs, targets, loss)
            flat[i] = original
            flat_grad[i] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def test_forward_on_compiled_spec_and_mlp():
    parity = make_parity_dfa()
    net = build_unrolled_acceptor(parity, 2)
    assert forward(net, encode_string([1, 1], 2).data).tolist() == [1.0]

    mlp = TrainableMlp([2, 2], ["identity"], seed=0)
    mlp.weights[0][:] = np.eye(2)
    mlp.biases[0][:] = 0.0
    assert forward_batch(mlp.to_network(), np.array([[1.5, -2.0]]))[0].tolist() == [1.5, -2.0]


def test_init_mlp_shapes_and_count():
    mlp = TrainableMlp([2, 1], ["sigmoid"], seed=0)
    assert mlp.weights[0].shape == (1, 2) and mlp.biases[0].shape == (1,)

    mlp = TrainableMlp([4, 32, 2], ["relu", "sigmoid"], seed=0)
    assert sum(p.size for p in mlp.parameters) == 4 * 32 + 32 + 32 * 2 + 2


def test_init_mlp_deterministic_per_seed():
    a = TrainableMlp([3, 5, 2], ["relu", "sigmoid"], seed=42)
    b = TrainableMlp([3, 5, 2], ["relu", "sigmoid"], seed=42)
    for pa, pb in zip(a.parameters, b.parameters):
        assert np.array_equal(pa, pb)
    c = TrainableMlp([3, 5, 2], ["relu", "sigmoid"], seed=43)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.parameters, c.parameters))


def test_init_mlp_bounds_and_zero_bias():
    mlp = TrainableMlp([9, 4], ["relu"], seed=1)
    limit = np.sqrt(1.0 / 9)
    assert np.all(np.abs(mlp.weights[0]) <= limit)
    assert np.all(mlp.biases[0] == 0.0)


def test_init_mlp_rejects_bad_dims():
    with pytest.raises(ValueError):
        TrainableMlp([3], [], seed=0)
    with pytest.raises(ValueError):
        TrainableMlp([3, 2], ["relu", "relu"], seed=0)


@pytest.mark.parametrize("head", [["tanh"], ["relu", "step"]])
def test_unrolled_rejects_unknown_head_activation_at_construction(head):
    with pytest.raises(ValueError, match="unknown trainable activation"):
        UnrolledNet(2, 2, 1, 0, [1] * len(head), head, seed=0)


def test_bce_at_zero_weights_is_ln2():
    mlp = TrainableMlp([1, 1], ["sigmoid"], seed=0)
    mlp.weights[0][:] = 0.0
    value, _ = mlp.loss_and_gradients(np.array([[0.7]]), np.array([[1.0]]), "bce")
    assert value == pytest.approx(np.log(2.0), abs=1e-15)


def test_mse_perfect_predictions():
    mlp = TrainableMlp([2, 2], ["identity"], seed=0)
    mlp.weights[0][:] = np.eye(2)
    inputs = np.array([[1.0, 2.0], [3.0, -1.0]])
    value, grads = mlp.loss_and_gradients(inputs, inputs, "mse")
    assert value == 0.0
    assert all(np.all(g == 0.0) for g in grads)


def test_loss_validation():
    mlp = TrainableMlp([2, 1], ["identity"], seed=0)
    with pytest.raises(ValueError):
        mlp.loss_and_gradients(np.zeros((0, 2)), np.zeros((0, 1)), "mse")
    with pytest.raises(ValueError):
        mlp.loss_and_gradients(np.zeros((2, 2)), np.zeros((2, 3)), "mse")
    with pytest.raises(ValueError):
        mlp.loss_and_gradients(np.zeros((2, 2)), np.zeros((2, 1)), "bce")  # not sigmoid
    with pytest.raises(ValueError):
        mlp.loss_and_gradients(np.zeros((2, 2)), np.zeros((2, 1)), "nll")


@pytest.mark.parametrize(
    "activations,loss",
    [
        (["sigmoid", "sigmoid"], "bce"),
        (["sigmoid", "identity"], "mse"),
        (["sigmoid", "identity"], "softmax_ce"),
    ],
)
def test_gradients_match_central_differences(activations, loss):
    rng = np.random.default_rng(7)
    mlp = TrainableMlp([4, 6, 3], activations, seed=5)
    inputs = rng.normal(size=(5, 4))
    if loss == "softmax_ce":
        targets = np.eye(3)[rng.integers(0, 3, 5)]
    elif loss == "bce":
        targets = rng.integers(0, 2, (5, 3)).astype(float)
    else:
        targets = rng.normal(size=(5, 3))
    _, analytic = mlp.loss_and_gradients(inputs, targets, loss)
    numeric = finite_difference_grads(mlp, inputs, targets, loss)
    assert max_relative_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize(
    "head_dims,head_activations,loss",
    [
        ([1], ["sigmoid"], "bce"),
        ([4, 3], ["relu", "sigmoid"], "mse"),
        ([2, 3], ["identity", "identity"], "softmax_ce"),
    ],
    ids=["bce-sigmoid-head", "mse-relu-sigmoid-head", "softmax_ce-identity-head"],
)
def test_unrolled_gradients_match_central_differences(head_dims, head_activations, loss):
    rng = np.random.default_rng(11)
    model = UnrolledNet(
        state_dim=3, alphabet_size=2, length=2, start_state=0,
        head_dims=head_dims, head_activations=head_activations,
        seed=9, hidden_width=4,
    )
    # the init zeroes the last head layer and every bias, which would zero the gradients
    # below the head and put pre-activations exactly on the relu kink; draw them all
    for param in model.parameters:
        param[...] = rng.normal(scale=0.5, size=param.shape)
    inputs = np.eye(2)[rng.integers(0, 2, (6, 2))].reshape(6, 4)
    out_dim = head_dims[-1]
    if loss == "softmax_ce":
        targets = np.eye(out_dim)[rng.integers(0, out_dim, 6)]
    elif loss == "bce":
        targets = rng.integers(0, 2, (6, out_dim)).astype(float)
    else:
        targets = rng.uniform(size=(6, out_dim))
    _, analytic = model.loss_and_gradients(inputs, targets, loss)
    assert all(np.any(g != 0.0) for g in analytic[:4])  # the signal reaches the first block
    numeric = finite_difference_grads(model, inputs, targets, loss)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_train_learns_two_bit_and():
    inputs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([[0.0], [0.0], [0.0], [1.0]])
    mlp = TrainableMlp([2, 8, 1], ["relu", "sigmoid"], seed=0)
    trace = train(mlp, inputs, labels, TrainConfig(epochs=200, loss="bce"))
    predictions = np.floor(forward_batch(mlp.to_network(), inputs) + 0.5)
    assert np.array_equal(predictions, labels)
    assert trace[-1] < trace[0]


def test_train_zero_epochs_keeps_parameters():
    mlp = TrainableMlp([2, 3, 1], ["relu", "sigmoid"], seed=1)
    before = [p.copy() for p in mlp.parameters]
    trace = train(mlp, np.zeros((4, 2)), np.zeros((4, 1)), TrainConfig(epochs=0, loss="bce"))
    assert trace == []
    for old, new in zip(before, mlp.parameters):
        assert np.array_equal(old, new)


def test_train_bitwise_reproducible():
    inputs = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([[1.0], [0.0], [1.0]])

    def fit():
        mlp = TrainableMlp([2, 4, 1], ["relu", "sigmoid"], seed=3)
        trace = train(mlp, inputs, labels, TrainConfig(epochs=50, loss="bce"))
        return trace, [p.copy() for p in mlp.parameters]

    trace_a, params_a = fit()
    trace_b, params_b = fit()
    assert trace_a == trace_b
    for pa, pb in zip(params_a, params_b):
        assert np.array_equal(pa, pb)


def test_adam_zero_gradient_is_identity():
    params = [np.array([1.0, -2.0]), np.array([[0.5]])]
    state = AdamState.for_parameters(params, TrainConfig())
    before = [p.copy() for p in params]
    adam_step(params, [np.zeros_like(p) for p in params], state)
    for old, new in zip(before, params):
        assert np.array_equal(old, new)


def test_adam_moves_against_gradient():
    params = [np.array([1.0])]
    state = AdamState.for_parameters(params, TrainConfig(learning_rate=0.1))
    adam_step(params, [np.array([2.0])], state)
    assert params[0][0] < 1.0


def test_train_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().learning_rate = 0.1


def test_adam_state_holds_the_config_it_was_made_from():
    config = TrainConfig(learning_rate=0.1)
    assert AdamState.for_parameters([np.zeros(3)], config).config is config


def test_unrolled_net_structure():
    model = UnrolledNet(
        state_dim=4, alphabet_size=3, length=2, start_state=1,
        head_dims=[1], head_activations=["sigmoid"], seed=0, hidden_width=5,
    )
    assert model.input_dim == 6 and model.output_dim == 1
    # per step: W1, b1, W2, b2; then head W, b
    assert len(model.parameters) == 2 * 4 + 2
    assert model.initial_state.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert model.step_weights[0][0].shape == (5, 4 + 3)
    # final head layer starts at zero so the output begins at the loss's neutral point
    assert np.all(model.head_weights[-1][0] == 0.0)


def test_unrolled_net_zero_length():
    model = UnrolledNet(
        state_dim=2, alphabet_size=2, length=0, start_state=0,
        head_dims=[1], head_activations=["sigmoid"], seed=0,
    )
    out = forward_batch(model.to_network(), np.zeros((3, 0)))
    assert out.shape == (3, 1)
    assert np.all(out == out[0])


@pytest.mark.parametrize("method", ["forward_batch", "trunk_batch"])
@pytest.mark.parametrize(
    "shape,message",
    [
        ((3, 7), "network expects 6, got 7"),
        ((3, 5), "network expects 6, got 5"),
        ((6,), "forward_batch expects a 2-D batch"),
        ((2, 3, 2), "forward_batch expects a 2-D batch"),
    ],
    ids=["wider", "narrower", "1-D", "3-D"],
)
def test_unrolled_net_rejects_a_batch_that_is_not_of_input_vectors(method, shape, message):
    model = UnrolledNet(
        state_dim=2, alphabet_size=2, length=3, start_state=0,
        head_dims=[1], head_activations=["sigmoid"], seed=0, hidden_width=4,
    )
    run = model.trunk_batch if method == "trunk_batch" else lambda x: forward_batch(model.to_network(), x)
    with pytest.raises(ValueError, match=message):
        run(np.zeros(shape))


def test_unrolled_net_deterministic_per_seed():
    kwargs = dict(
        state_dim=3, alphabet_size=2, length=2, start_state=0,
        head_dims=[2, 3], head_activations=["identity", "identity"], hidden_width=4,
    )
    a = UnrolledNet(seed=5, **kwargs)
    b = UnrolledNet(seed=5, **kwargs)
    for pa, pb in zip(a.parameters, b.parameters):
        assert np.array_equal(pa, pb)


@pytest.mark.parametrize(
    "inputs,targets,message",
    [
        (np.zeros((3, 2)), np.zeros((2, 1)), "disagree on batch size"),
        (np.zeros((0, 2)), np.zeros((0, 1)), "batch must be nonempty"),
        (np.zeros(2), np.zeros((2, 1)), "must be 2-D batches"),
    ],
    ids=["mismatched", "empty", "1-D"],
)
def test_train_checks_the_batch_before_any_epoch(inputs, targets, message):
    mlp = TrainableMlp([2, 1], ["sigmoid"], seed=0)
    with pytest.raises(ValueError, match=message):
        train(mlp, inputs, targets, TrainConfig(epochs=0))


def test_loss_rejects_counts_of_the_wrong_shape():
    mlp = TrainableMlp([2, 1], ["sigmoid"], seed=0)
    with pytest.raises(ValueError, match="counts of shape"):
        mlp.loss_and_gradients(np.zeros((3, 2)), np.zeros((3, 1)), "bce", np.ones(3))


# last activation for each loss; the models below put a relu layer under it
LAST_ACTIVATION = {"bce": "sigmoid", "mse": "sigmoid", "softmax_ce": "identity"}


def perturbed_model(family: str, loss: str, rng: np.random.Generator):
    """A 4-input, 3-output model with every parameter drawn off its initial point."""
    last = LAST_ACTIVATION[loss]
    if family == "mlp":
        model = TrainableMlp([4, 5, 3], ["relu", last], seed=0)
    else:
        model = UnrolledNet(3, 2, 2, 0, [4, 3], ["relu", last], seed=0, hidden_width=4)
    for param in model.parameters:
        param[...] = rng.normal(scale=0.5, size=param.shape)
    return model


def draw_targets(loss: str, rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    if loss == "softmax_ce":
        return np.eye(width)[rng.integers(0, width, rows)]
    if loss == "bce":
        return rng.integers(0, 2, (rows, width)).astype(float)
    return rng.uniform(size=(rows, width))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["mlp", "unrolled"]),
    st.sampled_from(LOSSES),
    st.lists(st.integers(1, 4), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_counts_weight_rows_like_repeated_rows(family, loss, counts, seed):
    rng = np.random.default_rng(seed)
    model = perturbed_model(family, loss, rng)
    rows = len(counts)
    inputs = np.eye(2)[rng.integers(0, 2, (rows, 2))].reshape(rows, 4)
    targets = draw_targets(loss, rng, rows, 3)
    value, grads = model.loss_and_gradients(inputs, targets, loss, np.array(counts, dtype=float)[:, None])
    expanded_value, expanded_grads = model.loss_and_gradients(
        np.repeat(inputs, counts, axis=0), np.repeat(targets, counts, axis=0), loss
    )
    assert value == pytest.approx(expanded_value, rel=1e-12, abs=0.0)
    for grad, expected in zip(grads, expanded_grads):
        assert np.abs(grad - expected).max() <= 1e-12 * np.abs(expected).max()


def test_unit_counts_give_the_unweighted_bytes():
    rng = np.random.default_rng(4)
    model = perturbed_model("unrolled", "softmax_ce", rng)
    inputs = np.eye(2)[rng.integers(0, 2, (7, 2))].reshape(7, 4)
    targets = draw_targets("softmax_ce", rng, 7, 3)
    value, grads = model.loss_and_gradients(inputs, targets, "softmax_ce")
    unit_value, unit_grads = model.loss_and_gradients(inputs, targets, "softmax_ce", np.ones((7, 1)))
    assert unit_value == value
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, unit_grads))


def reference_adam_step(params, grads, moments, step, config):
    """Textbook per-array Adam (Kingma & Ba, 2015), with the library's operation order."""
    for p, g, (m, v) in zip(params, grads, moments):
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**step)
        v_hat = v / (1.0 - config.beta2**step)
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


def test_flat_adam_step_matches_per_array_adam_bytes():
    rng = np.random.default_rng(12)
    shapes = [(3, 4), (4,), (1, 1), (2, 3, 2), (5,)]
    config = TrainConfig(learning_rate=0.03)
    params = [rng.normal(size=shape) for shape in shapes]
    reference = [p.copy() for p in params]
    moments = [(np.zeros(shape), np.zeros(shape)) for shape in shapes]
    state = AdamState.for_parameters(params, config)
    for step in range(1, 6):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape) for shape in shapes]
        adam_step(params, grads, state)
        reference_adam_step(reference, grads, moments, step, config)
        assert all(p.tobytes() == r.tobytes() for p, r in zip(params, reference))


def parity_rows(strings: np.ndarray):
    return np.eye(2)[strings].reshape(len(strings), -1), (strings.sum(axis=1) % 2)[:, None].astype(float)


PLAIN_LOOP_MODELS = {
    "unrolled-relu": lambda: UnrolledNet(4, 2, 4, 0, [1], ["sigmoid"], seed=8, hidden_width=6),
    "unrolled-T0": lambda: UnrolledNet(4, 2, 0, 0, [3, 1], ["relu", "sigmoid"], seed=8, hidden_width=6),
    "mlp": lambda: TrainableMlp([8, 6, 1], ["relu", "sigmoid"], seed=8),
}


def test_train_without_repeats_matches_a_plain_epoch_loop():
    for family, make in PLAIN_LOOP_MODELS.items():
        rng = np.random.default_rng(5)
        # all 16 strings of length 4, shuffled so that first-occurrence order is not byte order
        strings = np.array([[(i >> b) & 1 for b in range(4)] for i in rng.permutation(16)])
        inputs, labels = parity_rows(strings)
        model, plain = make(), make()
        if model.input_dim == 0:  # no symbols: distinct soft targets keep the rows distinct
            inputs, labels = np.zeros((16, 0)), rng.uniform(size=(16, 1))
        config = TrainConfig(epochs=6, loss="bce")
        trace = train(model, inputs, labels, config)
        state = AdamState.for_parameters(plain.parameters, config)
        plain_trace = []
        for _ in range(config.epochs):
            value, grads = plain.loss_and_gradients(inputs, labels, "bce")
            plain_trace.append(value)
            adam_step(plain.parameters, grads, state)
        assert trace == plain_trace, family
        assert all(a.tobytes() == b.tobytes() for a, b in zip(model.parameters, plain.parameters)), family


def test_train_with_repeats_follows_the_mean_over_all_rows():
    rng = np.random.default_rng(6)
    inputs, labels = parity_rows(rng.integers(0, 2, (60, 3)))  # 60 rows, at most 8 distinct
    config = TrainConfig(epochs=6, loss="bce")
    kwargs = dict(head_dims=[1], head_activations=["sigmoid"], seed=9, hidden_width=6)
    model, plain = (UnrolledNet(4, 2, 3, 0, **kwargs) for _ in range(2))
    trace = train(model, inputs, labels, config)
    state = AdamState.for_parameters(plain.parameters, config)
    for value in trace:
        plain_value, grads = plain.loss_and_gradients(inputs, labels, "bce")
        assert value == pytest.approx(plain_value, rel=1e-12)
        adam_step(plain.parameters, grads, state)
    for a, b in zip(model.parameters, plain.parameters):
        assert np.allclose(a, b, rtol=0.0, atol=1e-10)


# A plain per-position reference: every position block is its own dense stack
# run on fresh arrays, and the activation derivatives are computed from the
# pre-activations. The library's stacked kernel must give the same bytes.
REFERENCE_DERIVATIVES = {
    "relu": lambda z, a: (z > 0).astype(float),
    "sigmoid": lambda z, a: a * (1.0 - a),
    "identity": lambda z, a: np.ones_like(z),
}


def reference_forward(params, activations, x):
    pre, post = [], [x]
    for w, b, act in zip(params[::2], params[1::2], activations):
        pre.append(post[-1] @ w.T + b)
        post.append(apply_activation(act, pre[-1]))
    return pre, post


def reference_backward(params, activations, pre, post, dz):
    grads = [np.empty(0)] * len(params)
    for layer in range(len(activations) - 1, -1, -1):
        grads[2 * layer] = dz.T @ post[layer]
        grads[2 * layer + 1] = dz.sum(axis=0)
        if layer:
            upstream = dz @ params[2 * layer]
            dz = upstream * REFERENCE_DERIVATIVES[activations[layer - 1]](pre[layer - 1], post[layer])
    return grads, dz


def reference_loss(loss, z, a, targets, last, counts):
    total = counts.sum()
    if loss == "bce":
        per_elem = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
        return float((per_elem * counts).sum() / total), (a - targets) * counts / total
    if loss == "softmax_ce":
        shifted = z - z.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        value = float(-(targets * log_probs * counts).sum() / total)
        return value, (np.exp(log_probs) - targets) * counts / total
    diff = a - targets
    grad = diff * counts / total * REFERENCE_DERIVATIVES[last](z, a)
    return float(0.5 * (diff * diff * counts).sum() / total), grad


def reference_trunk(model, params, inputs):
    """Final state and every position block's (pre, post) activations, from fresh arrays."""
    k = model.alphabet_size
    state, stacks = np.tile(model.initial_state, (len(inputs), 1)), []
    for t in range(model.length):
        joint = np.concatenate([state, inputs[:, t * k : (t + 1) * k]], axis=1)
        stacks.append(reference_forward(params[4 * t : 4 * t + 4], ("relu", "relu"), joint))
        state = stacks[-1][1][-1]
    return state, stacks


def reference_loss_and_gradients(model, inputs, targets, loss, counts):
    params = [p.copy() for p in model.parameters]
    if isinstance(model, TrainableMlp):
        pre, post = reference_forward(params, model.activations, inputs)
        value, dz = reference_loss(loss, pre[-1], post[-1], targets, model.activations[-1], counts)
        return value, reference_backward(params, model.activations, pre, post, dz)[0]
    n, length = model.state_dim, model.length
    state, stacks = reference_trunk(model, params, inputs)
    head = params[4 * length :]
    pre, post = reference_forward(head, model.head_activations, state)
    value, dz = reference_loss(loss, pre[-1], post[-1], targets, model.head_activations[-1], counts)
    grads, dz = reference_backward(head, model.head_activations, pre, post, dz)
    d_state = dz @ head[0]
    for t in range(length - 1, -1, -1):
        pre, post = stacks[t]
        block = params[4 * t : 4 * t + 4]
        dz = d_state * REFERENCE_DERIVATIVES["relu"](pre[-1], post[-1])
        block_grads, dz = reference_backward(block, ("relu", "relu"), pre, post, dz)
        grads[:0] = block_grads
        d_state = (dz @ block[0])[:, :n]
    return value, grads


@st.composite
def kernel_cases(draw):
    loss = draw(st.sampled_from(LOSSES))
    last = {"bce": "sigmoid", "softmax_ce": "identity"}.get(loss) or draw(st.sampled_from(TRAINABLE))
    hidden_heads = draw(st.lists(st.sampled_from(TRAINABLE), max_size=2))
    head_dims = [draw(st.integers(1, 4)) for _ in range(len(hidden_heads) + 1)]
    k, rows, seed = draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        length = draw(st.integers(0, 6))
        model = UnrolledNet(
            draw(st.integers(1, 5)), k, length, 0, head_dims, hidden_heads + [last], seed=seed,
            hidden_width=draw(st.integers(1, 6)),
        )
    else:
        model = TrainableMlp([draw(st.integers(1, 6)), *head_dims], hidden_heads + [last], seed=seed)
    weighted = draw(st.booleans())
    return model, loss, rows, weighted, seed


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_stacked_kernel_matches_a_per_position_reference_bit_for_bit(case):
    model, loss, rows, weighted, seed = case
    rng = np.random.default_rng(seed)
    for param in model.parameters:  # off the init, which zeroes the last head layer and the biases
        param[...] = rng.normal(scale=0.8, size=param.shape)
    inputs = rng.integers(0, 2, (rows, model.input_dim)).astype(float)
    targets = draw_targets(loss, rng, rows, model.output_dim)
    counts = rng.integers(1, 5, (rows, 1)).astype(float) if weighted else None
    value, grads = model.loss_and_gradients(inputs, targets, loss, counts)
    expected_value, expected = reference_loss_and_gradients(
        model, inputs, targets, loss, np.ones((rows, 1)) if counts is None else counts
    )
    assert repr(value) == repr(expected_value)
    assert [g.shape for g in grads] == [e.shape for e in expected]
    assert all(g.tobytes() == e.tobytes() for g, e in zip(grads, expected))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_export_evaluates_like_a_per_position_reference_bit_for_bit(case):
    model, _, rows, _, seed = case
    rng = np.random.default_rng(seed)
    for param in model.parameters:
        param[...] = rng.normal(scale=0.8, size=param.shape)
    net = model.to_network()
    params = [p.copy() for p in model.parameters]
    if isinstance(model, TrainableMlp):
        inputs = rng.normal(size=(rows, model.input_dim))
        expected = reference_forward(params, model.activations, inputs)[1][-1]
        assert net.metadata == {"construction": "trained-mlp"} and len(net.layers) == len(model.activations)
    else:
        # the relu layers pass unread columns through relu, so the export equals the model on
        # inputs with no negative entry, as every encoded string is
        inputs = rng.uniform(size=(rows, model.input_dim))
        state = reference_trunk(model, params, inputs)[0]
        expected = reference_forward(params[4 * model.length :], model.head_activations, state)[1][-1]
        assert net.metadata == {"construction": "trained-unrolled"}
        assert len(net.layers) == 2 * model.length + 1 + len(model.head_activations)
        assert model.trunk_batch(inputs).tobytes() == state.tobytes()
    outputs = forward_batch(net, inputs)
    assert outputs.shape == expected.shape and outputs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", ["unrolled", "mlp"])
def test_parameters_are_views_of_one_flat_vector(family):
    rng = np.random.default_rng(3)
    model = perturbed_model(family, "bce", rng)
    params = model.parameters
    offsets = np.cumsum([0] + [p.size for p in params])
    assert offsets[-1] == model.flat.size
    for param, offset in zip(params, offsets):
        assert param.flags.writeable and np.shares_memory(param, model.flat)
        assert param.ctypes.data == model.flat.ctypes.data + offset * model.flat.itemsize
    assert np.concatenate([p.ravel() for p in params]).tobytes() == model.flat.tobytes()
    if family == "unrolled":
        stacks = (model.w1, model.b1, model.w2, model.b2)
        assert [s.shape for s in stacks] == [(2, 4, 5), (2, 4), (2, 3, 4), (2, 3)]
        named = [a for layer in [*model.step_weights, *model.head_weights] for a in layer]
        stacked = [s[t] for t in range(model.length) for s in stacks]
    else:
        named = [a for layer in zip(model.weights, model.biases) for a in layer]
        stacked = []
    for param, view in zip(params, named):
        assert (param.ctypes.data, param.shape) == (view.ctypes.data, view.shape)
    for param, view in zip(params, stacked):
        assert (param.ctypes.data, param.shape) == (view.ctypes.data, view.shape)
    assert AdamState.for_parameters(params, TrainConfig()).first_moment.size == model.flat.size

    # an in-place edit through a flat view, as a central-difference check makes one
    inputs = np.eye(2)[rng.integers(0, 2, (5, 2))].reshape(5, 4)
    targets = draw_targets("bce", rng, 5, 3)
    before, _ = model.loss_and_gradients(inputs, targets, "bce")
    params[0].reshape(-1)[0] += 0.5
    edited, _ = model.loss_and_gradients(inputs, targets, "bce")
    assert edited != before
    assert train(model, inputs, targets, TrainConfig(epochs=1, loss="bce")) == [edited]


def test_forward_only_calls_keep_no_per_position_activations():
    model = UnrolledNet(4, 2, 20, 0, [3, 1], ["relu", "sigmoid"], seed=1, hidden_width=8)
    rng = np.random.default_rng(2)
    inputs = np.eye(2)[rng.integers(0, 2, (16_384, 20))].reshape(16_384, 40)
    tracemalloc.start()
    try:
        trunk = model.trunk_batch(inputs)
        outputs = forward_batch(model.to_network(), inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MB"
    targets = draw_targets("bce", rng, len(inputs), 1)
    work = model._workspace(inputs)
    model._loss_and_flat_gradient(work, targets, np.ones((len(inputs), 1)), "bce")
    assert trunk.tobytes() == work[1][-1].tobytes()  # the training trunk's final states
    params = model.parameters
    state = reference_trunk(model, params, inputs)[0]
    assert trunk.tobytes() == state.tobytes()
    head = params[4 * model.length :]
    assert outputs.tobytes() == reference_forward(head, model.head_activations, state)[1][-1].tobytes()
