"""Minimal dense training runtime: backprop and Adam.

Two trainable model families cover every experiment in the suite: a plain
:class:`TrainableMlp` and the :class:`UnrolledNet`, which stacks one unshared
two-layer ReLU block per sequence position (consuming the carried state and
that position's one-hot symbol block) under a configurable head stack.
This module only trains them: ``to_network()`` exports either model to the
network IR, and ``network.forward_batch`` evaluates it, as it does a compiled one.
Each model keeps its parameters in one flat vector, ``flat``, whose views are
the public arrays in order; the unrolled blocks are stacked over positions,
so one ``np.matmul`` gives every position's weight gradient. ``train``
minimises the mean loss over the distinct ``(input, target)`` rows, each
weighted by its count, on one workspace of buffers reused by every epoch,
and steps Adam on ``flat`` in place.
Everything is double precision and deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .automata import _distinct_rows
from .network import LayerSpec, NetworkSpec, _beside_identity, apply_activation, forward_batch

LOSSES = ("bce", "mse", "softmax_ce")
TRAINABLE = ("relu", "sigmoid", "identity")


def _times_derivative(activation: str, dz: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``dz`` times the derivative at output ``a``, in place: relu's is the mask
    ``a > 0`` (which is ``z > 0``); identity's is one, an exact factor, so it is skipped."""
    if activation == "relu":
        dz *= a > 0
    elif activation == "sigmoid":
        dz *= a * (1.0 - a)
    return dz


def _check_trainable(activations: Sequence[str]) -> None:
    for act in activations:
        if act not in TRAINABLE:
            raise ValueError(f"unknown trainable activation {act!r}")


def _loss_and_output_grad(
    loss: str,
    z_last: np.ndarray,
    a_last: np.ndarray,
    targets: np.ndarray,
    last_activation: str,
    counts: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Return the count-weighted mean loss and its gradient wrt the last pre-activation.

    ``counts`` is an ``(N, 1)`` column of row weights: row i stands for
    ``counts[i]`` copies of itself, and the mean is over ``counts.sum()``
    rows. Multiplying by 1.0 is exact, so unit counts give the unweighted
    mean bit for bit.
    """
    total = counts.sum()
    if loss == "bce":
        if last_activation != "sigmoid":
            raise ValueError("bce loss requires a sigmoid output layer")
        # numerically fused form: softplus(z) - y*z, gradient sigma(z) - y
        per_elem = np.maximum(z_last, 0.0) - z_last * targets + np.log1p(np.exp(-np.abs(z_last)))
        return float((per_elem * counts).sum() / total), (a_last - targets) * counts / total
    if loss == "softmax_ce":
        if last_activation != "identity":
            raise ValueError("softmax cross-entropy expects identity (logit) outputs")
        shifted = z_last - z_last.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_norm
        value = float(-(targets * log_probs * counts).sum() / total)
        return value, (np.exp(log_probs) - targets) * counts / total
    if loss == "mse":
        diff = a_last - targets
        grad = _times_derivative(last_activation, diff * counts / total, a_last)
        return float(0.5 * (diff * diff * counts).sum() / total), grad
    raise ValueError(f"unknown loss {loss!r}; choose from {LOSSES}")


def _stack_gradients(
    params: Sequence[np.ndarray], activations: Sequence[str], x, targets, counts, loss: str, grads: list
) -> tuple[float, np.ndarray]:
    """Loss of a dense stack on ``x`` and the gradient at its first pre-activation.

    ``params`` alternates weight and bias, one pair per activation; the
    parameter gradients are written into ``grads``, which is shaped like ``params``.
    """
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    for w, b, act in zip(params[::2], params[1::2], activations):
        pre.append(post[-1] @ w.T + b)
        post.append(apply_activation(act, pre[-1]))
    value, dz = _loss_and_output_grad(loss, pre[-1], post[-1], targets, activations[-1], counts)
    for layer in range(len(activations) - 1, -1, -1):
        np.matmul(dz.T, post[layer], out=grads[2 * layer])
        np.sum(dz, axis=0, out=grads[2 * layer + 1])
        if layer:
            dz = _times_derivative(activations[layer - 1], dz @ params[2 * layer], post[layer])
    return value, dz


def _as_batch(
    inputs, targets, counts, input_dim: int, output_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float ``(inputs, targets, counts)`` of a batch, or a ValueError naming what is wrong.

    Omitted counts are ones.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if inputs.ndim != 2 or targets.ndim != 2:
        raise ValueError("inputs and targets must be 2-D batches")
    if inputs.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets disagree on batch size")
    if inputs.shape[1] != input_dim:
        raise ValueError(f"expected input dim {input_dim}, got {inputs.shape[1]}")
    if targets.shape[1] != output_dim:
        raise ValueError(f"expected label dim {output_dim}, got {targets.shape[1]}")
    counts = np.ones((inputs.shape[0], 1)) if counts is None else np.asarray(counts, dtype=float)
    if counts.shape != (inputs.shape[0], 1):
        raise ValueError(f"expected counts of shape ({inputs.shape[0]}, 1), got {counts.shape}")
    return inputs, targets, counts


def _init_weights(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    # scaled-uniform init: weights ~ U(-sqrt(1/fan_in), +sqrt(1/fan_in)); biases start at zero
    limit = np.sqrt(1.0 / max(in_dim, 1))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def _carve(rows: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of consecutive column runs of ``rows``, one ``(len(rows), *shape)`` array per shape."""
    views, end = [], 0
    for shape in shapes:
        start, end = end, end + math.prod(shape)
        views.append(rows[:, start:end].reshape(len(rows), *shape))
    return views


def _affine_shapes(dims: Sequence[int]) -> list[tuple[int, ...]]:
    return [shape for fan_in, out in zip(dims, dims[1:]) for shape in ((out, fan_in), (out,))]


class _FlatModel:
    """Parameters in one flat vector ``flat``; the public loss runs the kernel on a one-shot workspace."""

    @property
    def parameters(self) -> list[np.ndarray]:
        return list(self._params)

    def loss_and_gradients(
        self, inputs: np.ndarray, targets: np.ndarray, loss: str, counts: np.ndarray | None = None
    ) -> tuple[float, list[np.ndarray]]:
        """Mean batch loss and exact reverse-mode gradients, parameter-shaped.

        ``counts``, an ``(N, 1)`` column, makes row i count as ``counts[i]``
        copies of itself: on distinct rows weighted by their counts this is
        the same mean as on the rows with their repeats. Omitted, every row
        counts once.
        """
        inputs, targets, counts = _as_batch(inputs, targets, counts, self.input_dim, self.output_dim)
        value, grad = self._loss_and_flat_gradient(self._workspace(inputs), targets, counts, loss)
        return value, self._public(grad)


class TrainableMlp(_FlatModel):
    """Dense MLP with per-layer activations, trained by full-batch Adam."""

    def __init__(self, dims: Sequence[int], activations: Sequence[str], seed) -> None:
        dims = [int(d) for d in dims]
        if len(dims) < 2:
            raise ValueError("an MLP needs at least an input and an output dimension")
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        _check_trainable(activations)
        self.dims = dims
        self.activations = list(activations)
        self._shapes = _affine_shapes(dims)
        self.flat = np.zeros(sum(math.prod(shape) for shape in self._shapes))
        self._params = self._public(self.flat)
        self.weights, self.biases = self._params[::2], self._params[1::2]
        rng = np.random.default_rng(seed)
        for w in self.weights:
            w[...] = _init_weights(rng, *w.shape)

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]

    def _public(self, vector: np.ndarray) -> list[np.ndarray]:
        return [view[0] for view in _carve(vector[None], self._shapes)]

    def to_network(self) -> NetworkSpec:
        """The model as a network, one layer per affine layer, holding a copy of the weights."""
        layers = [LayerSpec(w, b, act) for w, b, act in zip(self.weights, self.biases, self.activations)]
        return NetworkSpec(tuple(layers), self.input_dim, self.output_dim, {"construction": "trained-mlp"})

    def _workspace(self, inputs: np.ndarray) -> tuple:
        grad = np.empty_like(self.flat)
        return inputs, grad, self._public(grad)

    def _loss_and_flat_gradient(self, work, targets, counts, loss: str) -> tuple[float, np.ndarray]:
        inputs, grad, grads = work
        return _stack_gradients(self._params, self.activations, inputs, targets, counts, loss, grads)[0], grad


class UnrolledNet(_FlatModel):
    """Trainable sequence acceptor/embedder unrolled over positions.

    Position t gets its own two-layer ReLU block (no weight sharing) mapping
    [carried state; one-hot symbol block t] to the next carried state; the
    fixed initial state is the one-hot of ``start_state``. After the last
    position a stack of dense head layers produces the output (a sigmoid
    acceptance probability, an embedding, classifier logits, or any
    combination, depending on ``head_dims``/``head_activations``).

    The blocks are stacked over positions as views of ``flat``: ``w1`` (T, h, n+k),
    ``b1`` (T, h), ``w2`` (T, n, h) and ``b2`` (T, n); ``flat`` holds them position by position.
    """

    def __init__(
        self,
        state_dim: int,
        alphabet_size: int,
        length: int,
        start_state: int,
        head_dims: Sequence[int],
        head_activations: Sequence[str],
        seed,
        hidden_width: int = 32,
        state_activation: str = "relu",
    ) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if len(head_dims) != len(head_activations) or not head_dims:
            raise ValueError("need one activation per head layer, at least one head layer")
        _check_trainable(head_activations)
        if state_activation not in ("relu", "identity"):
            raise ValueError("state activation must be relu or identity")
        if not 0 <= start_state < state_dim:
            raise ValueError("start_state out of range")
        self.state_dim = state_dim
        self.alphabet_size = alphabet_size
        self.length = length
        self.hidden_width = hidden_width
        self.state_activation = state_activation
        self.head_activations = list(head_activations)
        self.initial_state = np.zeros(state_dim)
        self.initial_state[start_state] = 1.0
        n, h = state_dim, hidden_width
        self._block_shapes = [(h, n + alphabet_size), (h,), (n, h), (n,)]
        self._head_shapes = _affine_shapes([n, *head_dims])
        self._block_size = sum(math.prod(shape) for shape in self._block_shapes)
        self.flat = np.zeros(length * self._block_size + sum(math.prod(s) for s in self._head_shapes))
        self._params = self._public(self.flat)
        (self.w1, self.b1, self.w2, self.b2), self._head = self._split(self.flat)
        self.step_weights = list(zip(self.w1, self.b1, self.w2, self.b2))
        self.head_weights = list(zip(self._head[::2], self._head[1::2]))

        # Init scheme tuned for deep unshared stacks: gain-preserving uniform
        # (+-sqrt(6/fan_in)) on the step blocks so the carried signal survives
        # the depth, and a zero-initialized final head layer so the output
        # starts at the loss's neutral point instead of saturating early.
        rng = np.random.default_rng(seed)
        for w1, _, w2, _ in self.step_weights:
            w1[...] = _init_weights(rng, *w1.shape) * np.sqrt(6.0)
            w2[...] = _init_weights(rng, *w2.shape) * np.sqrt(6.0)
        for w, _ in self.head_weights[:-1]:  # nothing is drawn after the last, zero, layer
            w[...] = _init_weights(rng, *w.shape)

    @property
    def input_dim(self) -> int:
        return self.length * self.alphabet_size

    @property
    def output_dim(self) -> int:
        return self.head_weights[-1][0].shape[0]

    def _split(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The stacked block views and the head views of a parameter-sized vector."""
        end = self.length * self._block_size
        stacks = _carve(vector[:end].reshape(self.length, self._block_size), self._block_shapes)
        return stacks, [view[0] for view in _carve(vector[None, end:], self._head_shapes)]

    def _public(self, vector: np.ndarray) -> list[np.ndarray]:
        stacks, head = self._split(vector)
        return [stack[t] for t in range(self.length) for stack in stacks] + head

    def to_network(self) -> NetworkSpec:
        """The model as the unrolled acceptor's network, holding a copy of the weights.

        Layer 0 reads no input and emits the initial state beside an identity
        over all T symbol blocks. Position t adds its ReLU layer and its state
        layer, each beside an identity over the (T - t - 1)k unread columns,
        and the head follows, one layer per head layer. ``forward_batch`` on it
        gives this model's outputs on inputs with no negative entry, as every
        encoded string is (identity rows of a ReLU layer clip the columns they
        carry); ``verify_exact`` and the file format take it like a compiled network.
        """
        n, k, length = self.state_dim, self.alphabet_size, self.length
        layers = [_beside_identity(np.zeros((n, 0)), self.initial_state, length * k, "identity")]
        for t in range(length):
            tail = (length - t - 1) * k
            layers.append(_beside_identity(self.w1[t], self.b1[t], tail, "relu"))
            layers.append(_beside_identity(self.w2[t], self.b2[t], tail, self.state_activation))
        layers += [LayerSpec(w, b, act) for (w, b), act in zip(self.head_weights, self.head_activations)]
        return NetworkSpec(tuple(layers), self.input_dim, self.output_dim, {"construction": "trained-unrolled"})

    def trunk_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Carried state after consuming the whole sequence: the network's first 2T + 1 layers."""
        trunk = self.to_network().layers[: 2 * self.length + 1]
        return forward_batch(NetworkSpec(trunk, self.input_dim, self.state_dim), inputs)

    def _workspace(self, inputs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Training buffers: every position's joint input, its symbol block filled once;
        the hidden values; the states, ``states[t + 1]`` being position t's output;
        the gradients at the hidden and state pre-activations and at one joint
        input; and a flat gradient with its views."""
        (rows, _), length, n, k = inputs.shape, self.length, self.state_dim, self.alphabet_size
        joint, states = np.empty((length, rows, n + k)), np.empty((length + 1, rows, n))
        joint[:, :, n:] = inputs.reshape(rows, length, k).swapaxes(0, 1)
        joint[:1, :, :n] = states[0] = self.initial_state
        hidden, d_hidden = np.empty((2, length, rows, self.hidden_width))
        d_states, d_joint = np.empty((length, rows, n)), np.empty((rows, n + k))
        grad = np.empty_like(self.flat)
        return joint, states, hidden, d_hidden, d_states, d_joint, grad, self._split(grad)

    def _loss_and_flat_gradient(self, work, targets, counts, loss: str) -> tuple[float, np.ndarray]:
        joint, states, hidden, d_hidden, d_states, d_joint, grad, ((g_w1, g_b1, g_w2, g_b2), g_head) = work
        n, length = self.state_dim, self.length
        for t in range(length):
            if t:
                joint[t, :, :n] = states[t]
            np.matmul(joint[t], self.w1[t].T, out=hidden[t])
            hidden[t] += self.b1[t]
            np.maximum(hidden[t], 0.0, out=hidden[t])
            np.matmul(hidden[t], self.w2[t].T, out=states[t + 1])
            states[t + 1] += self.b2[t]
            if self.state_activation == "relu":
                np.maximum(states[t + 1], 0.0, out=states[t + 1])
        state = states[length]
        value, dz = _stack_gradients(self._head, self.head_activations, state, targets, counts, loss, g_head)
        d_state = dz @ self._head[0]
        # the carried-state chain runs one position at a time, the weight gradients in one batch
        for t in range(length - 1, -1, -1):
            d_states[t] = d_state
            _times_derivative(self.state_activation, d_states[t], states[t + 1])
            _times_derivative("relu", np.matmul(d_states[t], self.w2[t], out=d_hidden[t]), hidden[t])
            if t:
                d_state = np.matmul(d_hidden[t], self.w1[t], out=d_joint)[:, :n]
        np.matmul(d_states.transpose(0, 2, 1), hidden, out=g_w2)
        np.sum(d_states, axis=1, out=g_b2)
        np.matmul(d_hidden.transpose(0, 2, 1), joint, out=g_w1)
        np.sum(d_hidden, axis=1, out=g_b1)
        return value, grad


TrainableModel = TrainableMlp | UnrolledNet


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch Adam training configuration.

    Each epoch takes one step on the mean loss over the whole dataset; ``train``
    computes that mean over the distinct rows, each weighted by its count.
    Frozen, so an ``AdamState`` that holds a config sees it unchanged.
    """

    epochs: int = 200
    learning_rate: float = 0.01
    loss: str = "bce"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass
class AdamState:
    """An Adam run over a parameter list: its config, step count and two moment vectors.

    The hyperparameters are read from ``config``; each moment is one flat
    vector over the concatenated parameters.
    """

    config: TrainConfig
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_parameters(cls, params: list[np.ndarray], config: TrainConfig) -> "AdamState":
        size = sum(p.size for p in params)
        return cls(config, np.zeros(size), np.zeros(size))


def _adam_update(state: AdamState, g: np.ndarray, buffers: np.ndarray) -> np.ndarray:
    """Advance ``state`` by the flat gradient ``g`` and return the update, written into
    ``buffers[0]`` of two ``g.size`` buffers; the textbook per-array operations, in their order."""
    config = state.config
    state.step_count += 1
    t = state.step_count
    m, v, update, denominator = state.first_moment, state.second_moment, buffers[0], buffers[1]
    m *= config.beta1
    m += np.multiply(1.0 - config.beta1, g, out=update)
    v *= config.beta2
    v += np.multiply(np.multiply(1.0 - config.beta2, g, out=update), g, out=update)
    np.multiply(config.learning_rate, np.divide(m, 1.0 - config.beta1**t, out=update), out=update)
    np.sqrt(np.divide(v, 1.0 - config.beta2**t, out=denominator), out=denominator)
    denominator += config.epsilon
    update /= denominator
    return update


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, applied to the parameters in place.

    The update is computed once over the concatenated gradients and subtracted
    from each parameter through its slice. Every operation is elementwise, so
    this gives the same bytes as updating each array on its own.
    """
    update = _adam_update(state, np.concatenate([grad.ravel() for grad in grads]),
                          np.empty((2, state.first_moment.size)))
    end = 0
    for p in params:
        start, end = end, end + p.size
        p -= update[start:end].reshape(p.shape)


def train(
    model: TrainableModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig | None = None,
    progress: Callable[[int, float], None] | None = None,
) -> list[float]:
    """Run full-batch Adam for the configured epochs; returns the loss trace.

    The objective is the mean loss over all rows of the dataset. Rows of
    ``[inputs | targets]`` that are byte-equal are merged once, in
    first-occurrence order, and each epoch takes the same mean over the
    distinct rows weighted by their counts; a dataset without repeats trains
    exactly as row by row. Adam updates ``model.flat`` in place. The trace
    holds the loss at the start of each epoch (so zero epochs returns an empty
    trace and leaves the parameters untouched). Deterministic given (model,
    data, config).
    """
    config = config or TrainConfig()
    inputs, targets, _ = _as_batch(inputs, targets, None, model.input_dim, model.output_dim)
    first, index = _distinct_rows(np.concatenate([inputs, targets], axis=1))
    order = np.argsort(first)
    rows, counts = first[order], np.bincount(index)[order][:, None].astype(float)
    work = model._workspace(inputs[rows])
    targets = targets[rows]
    state = AdamState.for_parameters([model.flat], config)
    buffers = np.empty((2, model.flat.size))
    trace: list[float] = []
    for epoch in range(config.epochs):
        value, grad = model._loss_and_flat_gradient(work, targets, counts, config.loss)
        trace.append(value)
        model.flat -= _adam_update(state, grad, buffers)
        if progress is not None:
            progress(epoch, value)
    return trace
