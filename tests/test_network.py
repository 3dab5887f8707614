import warnings

import numpy as np
import pytest

from dfanet.network import LayerSpec, NetworkSpec, forward, forward_batch


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
