"""Layered feedforward network IR and its evaluation.

This is the compilation target: an ordered list of dense affine layers, each
tagged with an activation. Step layers carry a per-unit threshold and a
comparison mode (``z >= theta`` by default, strict ``z > theta`` for the
acceptance readout).

The IR and its file format stay dense, but what runs is a plan
(``NetworkSpec._plan``) of one step per layer, holding all the layer computes;
``forward_batch`` and ``compiler._walk`` read the plan alone. A step multiplies
only its layer's active block: the rows and columns outside the layer's
trailing identity pass-through (the symbol blocks an unrolled acceptor has not
read yet). Unread input columns join the computation at the layer that reads
them, with the skipped layers' effect applied, so the output is the dense
loop's: bit for bit wherever the sums are exact, as on every compiled network
fed encoded strings (see ``forward_batch``).

A layer built by ``_beside_identity`` keeps the width of the identity it was
built beside (its ``_tail``), so finding its pass-through scans only the block
(see ``LayerSpec.passthrough_width``), and the file format writes and reads
that identity as text.

The blocks stand for the whole layers while every value a layer reads is
finite: each skipped zero weight then adds an exact zero, where zero times inf
is nan. ``forward_batch`` and ``compiler._walk`` run the plan through one loop
(``_run``), which judges that rule on the carriers before each layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple

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
    # width of the identity ``_beside_identity`` built the layer beside; 0 when not known
    _tail: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._keep(np.array(self.weights, dtype=float), np.array(self.bias, dtype=float))

    def _keep(self, weights: np.ndarray, bias: np.ndarray) -> None:
        """Check the layer and keep ``weights`` and ``bias``, which it owns from here on, made read-only."""
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

    @cached_property
    def passthrough_width(self) -> int:
        """Width ``w`` of the trailing identity pass-through, computed on first use.

        The last ``w`` rows copy the last ``w`` inputs unchanged: the block they
        share is the identity, no other entry of those rows or columns is
        nonzero, and their bias is zero. Only ``relu`` and ``identity`` layers
        pass values through; every other activation has width 0.

        The identity a layer was built beside (``_tail``) passes through by
        construction, so only the block beside it is scanned, and the scan
        stops at once unless the block's last row may extend the identity. A
        layer of unknown tail is scanned whole.
        """
        if self.activation not in ("relu", "identity"):
            return 0
        rows, cols = self.output_dim - self._tail, self.input_dim - self._tail
        return self._tail + _identity_width(self.weights[:rows, :cols], self.bias[:rows])


def _identity_width(weights: np.ndarray, bias: np.ndarray) -> int:
    """Width of the identity pass-through that ends ``weights`` and ``bias`` (see ``passthrough_width``)."""
    rows, cols = weights.shape
    k = min(rows, cols)
    if not k or weights[-1, -1] != 1.0 or bias[-1] != 0.0:
        return 0
    nonzero = weights != 0
    copies = (  # entry i: row rows-k+i copies input cols-k+i and nothing else does
        (np.diagonal(weights[rows - k:, cols - k:]) == 1.0)
        & (nonzero[rows - k:].sum(axis=1) == 1)
        & (nonzero[:, cols - k:].sum(axis=0) == 1)
        & (bias[rows - k:] == 0.0)
    )
    broken = np.flatnonzero(~copies)
    return k - (int(broken[-1]) + 1 if broken.size else 0)


def _beside_identity(block: np.ndarray, bias: np.ndarray, tail: int, activation: str) -> LayerSpec:
    """``block`` and its ``bias`` beside a ``tail``-wide identity passing the last inputs through.

    The layer keeps ``tail`` (``LayerSpec._tail``), so neither the plan nor
    the file format has to find the identity again. Its dense matrix is
    written once and owned by the layer: the public constructor's copy is
    skipped, and ``block`` and ``bias`` are only read.
    """
    rows, cols = block.shape
    if np.shape(bias) != (rows,):
        LayerSpec(weights=block, bias=bias, activation=activation)  # raises the constructor's own error
    width = cols + tail
    weights = np.zeros((rows + tail, width))
    weights[:rows, :cols] = block
    weights.reshape(-1)[rows * width + cols::width + 1] = 1.0  # the identity's diagonal
    padded = np.zeros(rows + tail)
    padded[:rows] = bias
    layer = object.__new__(LayerSpec)
    vars(layer).update(activation=activation, thresholds=None, strict=False, _tail=tail)
    layer._keep(weights, padded)
    return layer


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

    @cached_property
    def _plan(self) -> tuple[_Step, ...]:
        """Each layer's step, computed on first use.

        A layer skips the part of its pass-through that carries input columns
        no layer has read yet; the rest of the layer is its active block. The
        columns it reads first passed through every layer before it.
        """
        steps, unread, through = [], self.input_dim, None
        for layer in self.layers:
            skip = min(layer.passthrough_width, unread)
            steps.append(_step(layer, layer.output_dim - skip, layer.input_dim - skip, unread - skip, through))
            unread, through = skip, "relu" if "relu" in (through, layer.activation) else "identity"
        return tuple(steps)

    @cached_property
    def _dense_plan(self) -> tuple[_Step, ...]:
        """Every layer whole: the first reads all inputs, the rest none."""
        reads = [self.input_dim] + [0] * (len(self.layers) - 1)
        return tuple(
            _step(layer, layer.output_dim, layer.input_dim, fresh, None)
            for layer, fresh in zip(self.layers, reads)
        )


class _Step(NamedTuple):
    """One layer of a forward plan: all it computes, and the ``fresh`` input columns it reads first."""

    weights: np.ndarray
    bias: np.ndarray | float
    activation: str
    thresholds: np.ndarray | None
    strict: bool
    fresh: int
    through: str | None  # the rows the fresh columns passed on the way: None, "identity" or "relu"


def _step(layer: LayerSpec, rows: int, cols: int, fresh: int, through: str | None) -> _Step:
    whole = rows == layer.output_dim and cols == layer.input_dim
    weights = layer.weights if whole else np.ascontiguousarray(layer.weights[:rows, :cols])
    thresholds = None if layer.thresholds is None else layer.thresholds[:rows]
    # adding the scalar 0.0 is the same elementwise sum as adding a vector of 0.0, and faster
    bias = 0.0 if not layer.bias.any() and not np.signbit(layer.bias).any() else layer.bias[:rows]
    return _Step(weights, bias, layer.activation, thresholds, layer.strict, fresh, through)


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


def _passed_through(columns: np.ndarray, through: str | None) -> np.ndarray:
    """``columns`` after the identity rows they passed ``through``.

    Each such row computes ``act(x * 1 + 0)``: the ``+ 0.0`` turns ``-0.0``
    into ``0.0``, and relu is idempotent, so one of each is the composition.
    """
    if through is None:
        return columns
    columns = columns + 0.0
    if through == "relu":
        np.maximum(columns, 0.0, out=columns)
    return columns


def _layer_step(step: _Step, a: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """``step``'s active block on ``a`` joined by the ``step.fresh`` columns of ``fresh``.

    ``fresh`` holds the input columns the step reads first, as they entered the network.
    """
    if step.fresh:
        fresh = _passed_through(fresh, step.through)
        a = np.concatenate([a, fresh], axis=1) if a.shape[1] else fresh
    z = a @ step.weights.T
    z += step.bias
    if step.activation == "relu":  # z is this step's own, so relu may overwrite it
        return np.maximum(z, 0.0, out=z)
    return apply_activation(step.activation, z, step.thresholds, step.strict)


def _run(plan: tuple[_Step, ...], a: np.ndarray, x: np.ndarray, judged: bool = True) -> np.ndarray | None:
    """``plan`` on the carriers ``a``, its steps reading the columns of ``x`` in turn;
    None if ``judged`` and a step would read a value that is not finite."""
    read = 0
    for step in plan:
        if judged and not np.isfinite(a).all():
            return None
        a = _layer_step(step, a, x[:, read:read + step.fresh])
        read += step.fresh
    if read < x.shape[1]:  # every layer passed these columns through
        through = "relu" if any(step.activation == "relu" for step in plan) else "identity"
        a = np.concatenate([a, _passed_through(x[:, read:], through)], axis=1)
    return a


def forward_batch(net: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of row vectors.

    Finite inputs run on the active blocks (``NetworkSpec._plan``). At the
    first layer that would read a carrier that is not finite (the module's
    rule), the batch runs again on the dense plan, as non-finite inputs do
    from the start. So the output is the dense ``act(a @ W.T + b)`` loop's,
    bit for bit wherever the sums are exact, as on every compiled network fed
    encoded strings. Sums of three or more inexact floats may round
    differently, as the dense loop's own do when the batch size changes,
    because BLAS picks its kernel by matrix shape.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2:
        raise ValueError("forward_batch expects a 2-D batch")
    if x.shape[1] != net.input_dim:
        raise ValueError(
            f"input dimension mismatch: network expects {net.input_dim}, got {x.shape[1]}"
        )
    if np.isfinite(x).all():
        a = _run(net._plan, x[:, :0], x)
        if a is not None:
            return a
    return _run(net._dense_plan, x[:, :0], x, judged=False)


def forward(net: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("forward expects a 1-D vector; use forward_batch for batches")
    return forward_batch(net, x[None, :])[0]
