import numpy as np
import pytest

from dfanet.automata import make_parity_dfa
from dfanet.compiler import build_unrolled_acceptor
from dfanet.encodings import encode_string
from dfanet.network import forward
from dfanet.nn import AdamState, TrainableMlp, TrainConfig, UnrolledNet, adam_step, train


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
    assert mlp.forward_batch(np.array([[1.5, -2.0]]))[0].tolist() == [1.5, -2.0]


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
    "head_dims,head_activations,loss,state_activation",
    [
        ([1], ["sigmoid"], "bce", "relu"),
        ([4, 3], ["relu", "sigmoid"], "mse", "identity"),
        ([2, 3], ["identity", "identity"], "softmax_ce", "relu"),
    ],
    ids=["bce-sigmoid-head", "mse-relu-sigmoid-head-identity-state", "softmax_ce-identity-head"],
)
def test_unrolled_gradients_match_central_differences(
    head_dims, head_activations, loss, state_activation
):
    rng = np.random.default_rng(11)
    model = UnrolledNet(
        state_dim=3, alphabet_size=2, length=2, start_state=0,
        head_dims=head_dims, head_activations=head_activations,
        seed=9, hidden_width=4, state_activation=state_activation,
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
    predictions = np.floor(mlp.forward_batch(inputs) + 0.5)
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
    out = model.forward_batch(np.zeros((3, 0)))
    assert out.shape == (3, 1)
    assert np.all(out == out[0])


def test_unrolled_net_deterministic_per_seed():
    kwargs = dict(
        state_dim=3, alphabet_size=2, length=2, start_state=0,
        head_dims=[2, 3], head_activations=["identity", "identity"], hidden_width=4,
    )
    a = UnrolledNet(seed=5, **kwargs)
    b = UnrolledNet(seed=5, **kwargs)
    for pa, pb in zip(a.parameters, b.parameters):
        assert np.array_equal(pa, pb)
