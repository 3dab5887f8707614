"""Layered feedforward network IR and its evaluation.

This is the compilation target: an ordered list of dense affine layers, each
tagged with an activation. Step layers carry a per-unit threshold and a
comparison mode (``z >= theta`` by default, strict ``z > theta`` for the
acceptance readout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "identity", "step")


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: ``act(weights @ x + bias)``.

    ``weights`` has shape (output_dim, input_dim). For ``step`` activation,
    ``thresholds`` holds one threshold per unit and ``strict`` selects
    ``>`` instead of ``>=``.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str
    thresholds: np.ndarray | None = None
    strict: bool = False

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        bias = np.array(self.bias, dtype=float)
        if weights.ndim != 2:
            raise ValueError("weights must be a matrix")
        if bias.shape != (weights.shape[0],):
            raise ValueError("bias length must equal the weight row count")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        thresholds = self.thresholds
        if self.activation == "step":
            if thresholds is None:
                raise ValueError("step layers require per-unit thresholds")
            thresholds = np.array(thresholds, dtype=float)
            if thresholds.shape != (weights.shape[0],):
                raise ValueError("thresholds length must equal the unit count")
            thresholds.flags.writeable = False
        elif thresholds is not None:
            raise ValueError("thresholds only apply to step layers")
        weights.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "thresholds", thresholds)

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class NetworkSpec:
    """A chain of layers plus construction provenance metadata."""

    layers: tuple[LayerSpec, ...]
    input_dim: int
    output_dim: int
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        if self.input_dim < 0:
            raise ValueError("input_dim must be non-negative")
        if layers[0].input_dim != self.input_dim:
            raise ValueError(
                f"declared input_dim {self.input_dim} does not match first "
                f"layer input {layers[0].input_dim}"
            )
        for a, b in zip(layers, layers[1:]):
            if a.output_dim != b.input_dim:
                raise ValueError(
                    f"layer dimensions do not chain: {a.output_dim} -> {b.input_dim}"
                )
        if layers[-1].output_dim != self.output_dim:
            raise ValueError("declared output_dim does not match last layer")

    @property
    def parameter_count(self) -> int:
        return sum(l.weights.size + l.bias.size for l in self.layers)


def apply_activation(
    name: str, z: np.ndarray, thresholds: np.ndarray | None = None, strict: bool = False
) -> np.ndarray:
    """Elementwise activation ``name``; step units compare ``z`` with their thresholds."""
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        # exp only ever sees non-positive arguments, so it cannot overflow
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if name == "identity":
        return z
    if name == "step" and thresholds is not None:
        # per-unit threshold, broadcast over leading batch axis
        return (z > thresholds if strict else z >= thresholds).astype(float)
    raise ValueError(f"unknown activation {name!r}")


def forward_batch(net: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of row vectors."""
    a = np.asarray(inputs, dtype=float)
    if a.ndim != 2:
        raise ValueError("forward_batch expects a 2-D batch")
    if a.shape[1] != net.input_dim:
        raise ValueError(
            f"input dimension mismatch: network expects {net.input_dim}, got {a.shape[1]}"
        )
    for layer in net.layers:
        z = a @ layer.weights.T + layer.bias
        a = apply_activation(layer.activation, z, layer.thresholds, layer.strict)
    return a


def forward(net: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("forward expects a 1-D vector; use forward_batch for batches")
    return forward_batch(net, x[None, :])[0]
