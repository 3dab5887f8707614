import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dfas, scaled_acceptor, tailed_layers, tailed_parts
from dfanet import network
from dfanet.automata import accepts_batch, all_strings, make_mod_counter_dfa, make_parity_dfa
from dfanet.compiler import (
    build_binary_threshold_network,
    build_compressed_embedding,
    build_embedding_head,
    build_transition_layer,
    build_unrolled_acceptor,
    verify_sampled,
)
from dfanet.encodings import encode_strings
from dfanet.formats import format_network_document, parse_network_document
from dfanet.network import LayerSpec, NetworkSpec, apply_activation, forward, forward_batch


def identity_layer(dim):
    return LayerSpec(weights=np.eye(dim), bias=np.zeros(dim), activation="identity")


def test_forward_identity():
    net = NetworkSpec(layers=(identity_layer(1),), input_dim=1, output_dim=1)
    assert forward(net, np.array([3.5])).tolist() == [3.5]


def test_forward_single_relu_unit():
    layer = LayerSpec(weights=np.array([[1.0]]), bias=np.array([-1.0]), activation="relu")
    net = NetworkSpec(layers=(layer,), input_dim=1, output_dim=1)
    assert forward(net, np.array([0.2])).tolist() == [0.0]
    assert forward(net, np.array([1.5])).tolist() == [0.5]


def test_step_strict_vs_inclusive():
    strict = LayerSpec(
        weights=np.eye(1), bias=np.zeros(1), activation="step",
        thresholds=np.array([0.5]), strict=True,
    )
    inclusive = LayerSpec(
        weights=np.eye(1), bias=np.zeros(1), activation="step",
        thresholds=np.array([0.5]), strict=False,
    )
    at_threshold = np.array([0.5])
    assert forward(NetworkSpec((strict,), 1, 1), at_threshold).tolist() == [0.0]
    assert forward(NetworkSpec((inclusive,), 1, 1), at_threshold).tolist() == [1.0]


def test_layer_validation():
    with pytest.raises(ValueError):
        LayerSpec(weights=np.eye(2), bias=np.zeros(3), activation="relu")
    with pytest.raises(ValueError):
        LayerSpec(weights=np.eye(2), bias=np.zeros(2), activation="swish")
    with pytest.raises(ValueError):
        LayerSpec(weights=np.eye(2), bias=np.zeros(2), activation="step")  # no thresholds
    with pytest.raises(ValueError):
        LayerSpec(
            weights=np.eye(2), bias=np.zeros(2), activation="relu", thresholds=np.zeros(2)
        )


def test_network_dimension_chaining():
    a = LayerSpec(weights=np.zeros((3, 2)), bias=np.zeros(3), activation="relu")
    b = LayerSpec(weights=np.zeros((1, 4)), bias=np.zeros(1), activation="identity")
    with pytest.raises(ValueError):
        NetworkSpec(layers=(a, b), input_dim=2, output_dim=1)
    with pytest.raises(ValueError):
        NetworkSpec(layers=(a,), input_dim=5, output_dim=3)
    with pytest.raises(ValueError):
        NetworkSpec(layers=(), input_dim=1, output_dim=1)


def test_forward_dimension_mismatch():
    net = NetworkSpec(layers=(identity_layer(2),), input_dim=2, output_dim=2)
    with pytest.raises(ValueError):
        forward(net, np.array([1.0]))
    with pytest.raises(ValueError):
        forward_batch(net, np.zeros((4, 3)))


def test_forward_batch_matches_forward():
    rng = np.random.default_rng(3)
    layer = LayerSpec(weights=rng.normal(size=(3, 2)), bias=rng.normal(size=3), activation="sigmoid")
    net = NetworkSpec(layers=(layer,), input_dim=2, output_dim=3)
    batch = rng.normal(size=(5, 2))
    outputs = forward_batch(net, batch)
    for row, x in zip(outputs, batch):
        # batched and single-row evaluation may differ by one ulp (gemm vs gemv)
        assert np.allclose(row, forward(net, x), rtol=1e-14, atol=1e-15)


def test_forward_batch_bit_exact_on_integer_weights():
    # compiled networks only carry small integers, where summation order is irrelevant
    layer = LayerSpec(
        weights=np.array([[1.0, -1.0], [0.0, 1.0], [1.0, 1.0]]),
        bias=np.array([-1.0, 0.0, 1.0]),
        activation="relu",
    )
    net = NetworkSpec(layers=(layer,), input_dim=2, output_dim=3)
    batch = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    outputs = forward_batch(net, batch)
    for row, x in zip(outputs, batch):
        assert np.array_equal(row, forward(net, x))


def test_parameter_count():
    a = LayerSpec(weights=np.zeros((3, 2)), bias=np.zeros(3), activation="relu")
    b = LayerSpec(weights=np.zeros((1, 3)), bias=np.zeros(1), activation="identity")
    net = NetworkSpec(layers=(a, b), input_dim=2, output_dim=1)
    assert net.parameter_count == 6 + 3 + 3 + 1


def test_sigmoid_saturates_without_overflow():
    layer = LayerSpec(weights=np.eye(1), bias=np.zeros(1), activation="sigmoid")
    net = NetworkSpec(layers=(layer,), input_dim=1, output_dim=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert forward(net, np.array([-1000.0])).tolist() == [0.0]


def dense_forward(net, inputs):
    """Reference evaluator: every layer whole, ``act(a @ W.T + b)``."""
    a = np.asarray(inputs, dtype=float)
    for layer in net.layers:
        z = a @ layer.weights.T + layer.bias
        a = apply_activation(layer.activation, z, layer.thresholds, layer.strict)
    return a


def assert_same_bytes(net, inputs):
    with np.errstate(all="ignore"):  # inf and nan inputs warn in the dense product
        got, want = forward_batch(net, inputs), dense_forward(net, inputs)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def builder_nets(dfa, length):
    nets = [
        build_unrolled_acceptor(dfa, length),
        build_embedding_head(dfa, length),
        build_transition_layer(dfa),
        build_binary_threshold_network(dfa),
    ]
    if dfa.state_count >= 2:
        projection, _ = build_compressed_embedding(dfa, seed=0)
        nets.append(build_embedding_head(dfa, length, head=projection))
    return nets


def integer_inputs(rng, rows, cols):
    """Small integers with about a tenth of the zeros negative."""
    x = rng.integers(-3, 4, size=(rows, cols)).astype(float)
    x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
    return x


def one_hot_inputs(rng, rows, net, k):
    if net.input_dim % k:
        return rng.integers(0, 2, size=(rows, net.input_dim)).astype(float)
    return encode_strings(rng.integers(0, k, size=(rows, net.input_dim // k)), k)


@settings(max_examples=40, deadline=None)
@given(dfas(max_states=5, max_symbols=3), st.integers(0, 8), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_forward_batch_bytes_match_dense_loop_on_builders(dfa, length, rows, seed):
    # one-hot and integer inputs keep every sum exact, so the skipped zeros change no bit
    rng = np.random.default_rng(seed)
    for net in builder_nets(dfa, length):
        assert_same_bytes(net, one_hot_inputs(rng, rows, net, dfa.alphabet_size))
        assert_same_bytes(net, integer_inputs(rng, rows, net.input_dim))
        x = one_hot_inputs(rng, rows, net, dfa.alphabet_size)
        x.flat[rng.integers(0, max(x.size, 1), size=min(x.size, 1))] = rng.choice([np.inf, -np.inf, np.nan])
        assert_same_bytes(net, x)


@settings(max_examples=40, deadline=None)
@given(dfas(max_states=5, max_symbols=3), st.integers(0, 8), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_forward_batch_matches_dense_loop_on_float_inputs(dfa, length, rows, seed):
    # Sums of three or more inexact floats may round differently, because BLAS
    # picks its kernel by matrix shape (the dense loop's own output moves with
    # the batch size); so floats get a tolerance fixed from the float64 epsilon.
    rng = np.random.default_rng(seed)
    for net in builder_nets(dfa, length):
        x = rng.normal(size=(rows, net.input_dim)) * 10.0 ** rng.integers(-3, 4, size=(rows, net.input_dim))
        x[rng.random(x.shape) < 0.1] = -0.0
        got, want = forward_batch(net, x), dense_forward(net, x)
        scale = max(1.0, float(np.abs(x).max(initial=0.0)))
        tolerance = 1e4 * np.finfo(float).eps * scale * len(net.layers)
        assert np.all(np.abs(got - want) <= tolerance)
        assert np.array_equal(np.signbit(got[got == 0]), np.signbit(want[want == 0]))


NEAR_MISSES = ("none", "row", "column", "bias", "diagonal", "step", "sigmoid")


def reference_passthrough_width(layer):
    """Trailing identity width, checked entry by entry."""
    if layer.activation not in ("relu", "identity"):
        return 0
    w, (rows, cols) = 0, layer.weights.shape
    while w < min(rows, cols):
        r, c = rows - 1 - w, cols - 1 - w
        others_in_row = [layer.weights[r, j] for j in range(cols) if j != c]
        others_in_column = [layer.weights[i, c] for i in range(rows) if i != r]
        if layer.weights[r, c] != 1.0 or any(others_in_row) or any(others_in_column) or layer.bias[r] != 0.0:
            break
        w += 1
    return w


@settings(max_examples=300, deadline=None)
@given(tailed_layers())
def test_a_known_tail_gives_the_width_of_the_whole_scan(layer):
    assert layer.passthrough_width == reference_passthrough_width(layer)
    # replace forgets the tail, so the whole matrix is scanned, to the same width
    plain = dataclasses.replace(layer)
    assert plain._tail == 0 and plain.passthrough_width == layer.passthrough_width
    if layer.activation != "sigmoid":
        assert layer.passthrough_width >= layer._tail


def dense_beside_identity(block, bias, tail, activation):
    """The layer built the plain way: a zero matrix, the block, ``fill_diagonal``, and the public constructor."""
    rows, cols = block.shape
    weights = np.zeros((rows + tail, cols + tail))
    weights[:rows, :cols] = block
    np.fill_diagonal(weights[rows:, cols:], 1.0)
    return LayerSpec(weights=weights, bias=np.concatenate([bias, np.zeros(tail)]), activation=activation)


@settings(max_examples=300, deadline=None)
@given(tailed_parts())
def test_a_layer_beside_an_identity_is_the_plain_construction_and_owns_its_arrays(parts):
    block, bias, tail, activation = parts
    layer, plain = network._beside_identity(block, bias, tail, activation), dense_beside_identity(*parts)
    assert (layer.activation, layer.thresholds, layer.strict, layer._tail) == (activation, None, False, tail)
    assert layer.weights.tobytes() == plain.weights.tobytes() and layer.weights.shape == plain.weights.shape
    assert layer.bias.tobytes() == plain.bias.tobytes()
    assert not layer.weights.flags.writeable and not layer.bias.flags.writeable
    written = layer.weights.tobytes(), layer.bias.tobytes()
    block[...] = 7.0
    bias[...] = 7.0
    assert (layer.weights.tobytes(), layer.bias.tobytes()) == written


@pytest.mark.parametrize("bias_length,activation", [(1, "relu"), (3, "relu"), (5, "identity"), (2, "tanh"), (2, "step")])
def test_a_layer_beside_an_identity_is_refused_as_the_constructor_refuses_it(bias_length, activation):
    """A bias of the whole layer's length (3 here) is as wrong as any other: it is the block's that is passed."""
    block, bias = np.ones((2, 4)), np.zeros(bias_length)
    with pytest.raises(ValueError) as plain:
        dense_beside_identity(block, bias, 1, activation)
    with pytest.raises(ValueError) as built:
        network._beside_identity(block, bias, 1, activation)
    assert str(built.value) == str(plain.value)


@pytest.mark.parametrize("source", ["built", "parsed"])
def test_plan_scans_no_matrix_wider_than_its_active_block(monkeypatch, source):
    net = build_unrolled_acceptor(make_mod_counter_dfa(5), 120)
    if source == "parsed":
        net = parse_network_document(format_network_document(net))
    scanned, scan = [], network._identity_width

    def counted(weights, bias):
        scanned.append(weights.shape)
        return scan(weights, bias)

    monkeypatch.setattr(network, "_identity_width", counted)
    active = [step.weights.shape for step, layer in zip(net._plan, net.layers) if layer.activation != "step"]
    assert len(scanned) == len(active) == 240
    assert all(rows <= r and cols <= c for (rows, cols), (r, c) in zip(scanned, active))


def planted_layer(rng, active_rows, active_cols, tail, activation, miss):
    """A layer whose last ``tail`` rows and columns are an identity pass-through,
    unless ``miss`` breaks it. Returns the layer and the pass-through width the
    break leaves, or None when nothing was broken."""
    rows, cols = active_rows + tail, active_cols + tail
    weights = np.zeros((rows, cols))
    weights[:active_rows, :active_cols] = rng.integers(-2, 3, size=(active_rows, active_cols))
    weights[active_rows:, active_cols:] = np.eye(tail)
    bias = np.zeros(rows)
    bias[:active_rows] = rng.integers(-1, 2, size=active_rows)
    left, thresholds = None, None
    if miss in ("step", "sigmoid"):
        activation, left = miss, 0
        thresholds = np.zeros(rows) if miss == "step" else None
    elif tail and miss != "none":
        broken = int(rng.integers(0, tail))  # counted from the tail's first row
        r, c = active_rows + broken, active_cols + broken
        if miss == "bias":
            bias[r] = 0.5
        elif miss == "diagonal":
            weights[r, c] = 2.0
        elif miss == "row" and active_cols:
            weights[r, rng.integers(0, active_cols)] = 1.0  # a stray entry in a copying row
        elif miss == "column" and active_rows:
            weights[rng.integers(0, active_rows), c] = -1.0  # a copied column read elsewhere
        else:
            broken = -1
        if broken >= 0:
            left = tail - broken - 1
    return LayerSpec(weights=weights, bias=bias, activation=activation, thresholds=thresholds), left


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40))
def test_forward_batch_bytes_match_dense_loop_on_planted_chains(seed, depth, rows):
    rng = np.random.default_rng(seed)
    layers, width = [], int(rng.integers(0, 8))
    for _ in range(depth):
        tail = int(rng.integers(0, width + 1))
        activation = str(rng.choice(["relu", "identity"]))
        miss = str(rng.choice(NEAR_MISSES))
        layer, left = planted_layer(rng, int(rng.integers(0, 5)), width - tail, tail, activation, miss)
        assert layer.passthrough_width == reference_passthrough_width(layer)
        # a random active block may extend a clean tail by chance, never a broken one
        assert layer.passthrough_width >= tail if left is None else layer.passthrough_width == left
        layers.append(layer)
        width = layer.output_dim
    net = NetworkSpec(layers=tuple(layers), input_dim=layers[0].input_dim, output_dim=width)
    assert_same_bytes(net, integer_inputs(rng, rows, net.input_dim))
    x = integer_inputs(rng, rows, net.input_dim)
    if x.size:
        x.flat[rng.integers(0, x.size)] = rng.choice([np.inf, -np.inf, np.nan])
    assert_same_bytes(net, x)


def test_forward_batch_bytes_match_dense_loop_when_a_layer_overflows():
    # finite inputs, but the first layer's sum overflows to inf; the dense
    # product then turns the pass-through rows' zero weights into nan
    big = 2.0**600
    first = LayerSpec(weights=np.array([[big, 0.0], [0.0, 1.0]]), bias=np.zeros(2), activation="identity")
    second = LayerSpec(weights=np.array([[0.0, 1.0], [big, 0.0]]), bias=np.zeros(2), activation="identity")
    net = NetworkSpec(layers=(first, second), input_dim=2, output_dim=2)
    assert first.passthrough_width == 1
    assert_same_bytes(net, np.array([[big, 1.0], [1.0, -0.0], [-big, 3.0]]))


@pytest.mark.parametrize("n, length", [(2, 3), (5, 6)])
def test_forward_batch_runs_the_blocks_while_every_carrier_is_finite(n, length):
    # the layer gains multiply to 2^501 per module, but every carrier is 0, 1 or 2^500
    dfa = make_mod_counter_dfa(n)
    net = scaled_acceptor(dfa, length)
    strings = all_strings(dfa.alphabet_size, length)
    inputs = encode_strings(strings, dfa.alphabet_size)
    got = forward_batch(net, inputs)
    assert "_dense_plan" not in vars(net)
    assert got.tobytes() == dense_forward(net, inputs).tobytes()
    assert np.array_equal(got[:, 0] > 0.5, accepts_batch(dfa, strings))
    assert verify_sampled(net, dfa, length, 50).exact  # its draws are among the strings above
    assert "_dense_plan" not in vars(net)


@pytest.mark.parametrize("dfa", [make_parity_dfa(), make_mod_counter_dfa(4)], ids=["parity", "mod4"])
@pytest.mark.parametrize("length", range(9))
def test_acceptor_stages_pass_through_every_unread_block(dfa, length):
    net = build_unrolled_acceptor(dfa, length)
    n, k = dfa.state_count, dfa.alphabet_size
    remaining = [(length - t - 1) * k for t in range(length) for _ in range(2)]
    assert [layer.passthrough_width for layer in net.layers] == remaining + [0]
    # each stage multiplies only its transition module: pair units, then next states
    forward_batch(net, encode_strings(np.zeros((2, length), dtype=np.int64), k))
    shapes = [step.weights.shape for step in net._plan]
    modules = [(n * k, k), (n, n * k)] + [(n * k, n + k), (n, n * k)] * (length - 1)
    assert shapes == (modules[: 2 * length] + [(1, n)] if length else [(1, 0)])


def test_plan_is_made_on_first_forward_not_at_construction():
    net = build_unrolled_acceptor(make_parity_dfa(), 3)
    assert "_plan" not in vars(net)
    assert not any("passthrough_width" in vars(layer) for layer in net.layers)
    forward_batch(net, encode_strings(np.zeros((1, 3), dtype=np.int64), 2))
    assert "_plan" in vars(net)
