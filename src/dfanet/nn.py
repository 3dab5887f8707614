"""Minimal dense neural runtime: forward evaluation, backprop, Adam.

Two trainable model families cover every experiment in the suite: a plain
:class:`TrainableMlp` and the :class:`UnrolledNet`, which stacks one unshared
two-layer ReLU block per sequence position (consuming the carried state and
that position's one-hot symbol block) under a configurable head stack. The
MLP, each position block and the head are all dense stacks, run by one forward
pass (``_stack_forward``) and one backward pass (``_stack_backward``).
Everything is double precision and deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .network import apply_activation

LOSSES = ("bce", "mse", "softmax_ce")


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(float)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "identity":
        return np.ones_like(z)
    raise ValueError(f"unknown trainable activation {name!r}")


def _loss_and_output_grad(
    loss: str, z_last: np.ndarray, a_last: np.ndarray, targets: np.ndarray, last_activation: str
) -> tuple[float, np.ndarray]:
    """Return the mean loss and its gradient wrt the last pre-activation."""
    batch = z_last.shape[0]
    if loss == "bce":
        if last_activation != "sigmoid":
            raise ValueError("bce loss requires a sigmoid output layer")
        # numerically fused form: softplus(z) - y*z, gradient sigma(z) - y
        per_elem = np.maximum(z_last, 0.0) - z_last * targets + np.log1p(np.exp(-np.abs(z_last)))
        return float(per_elem.sum() / batch), (a_last - targets) / batch
    if loss == "softmax_ce":
        if last_activation != "identity":
            raise ValueError("softmax cross-entropy expects identity (logit) outputs")
        shifted = z_last - z_last.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_norm
        value = float(-(targets * log_probs).sum() / batch)
        return value, (np.exp(log_probs) - targets) / batch
    if loss == "mse":
        diff = a_last - targets
        grad = diff / batch * _activation_grad(last_activation, z_last, a_last)
        return float(0.5 * (diff * diff).sum() / batch), grad
    raise ValueError(f"unknown loss {loss!r}; choose from {LOSSES}")


def _stack_forward(
    params: Sequence[np.ndarray], activations: Sequence[str], x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Run a dense stack; ``params`` alternates weight and bias, one pair per activation.

    Returns the pre-activation of every layer and the post-activations, the
    latter starting with ``x`` itself.
    """
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    for w, b, act in zip(params[::2], params[1::2], activations):
        pre.append(post[-1] @ w.T + b)
        post.append(apply_activation(act, pre[-1]))
    return pre, post


def _stack_backward(
    params: Sequence[np.ndarray], activations: Sequence[str], pre: list, post: list, dz: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Backprop ``dz``, the gradient at the last pre-activation, through the stack.

    Returns the parameter gradients (shaped like ``params``) and the gradient
    at the first layer's pre-activation; a caller that needs the input
    gradient multiplies that by the first weight matrix itself.
    """
    grads: list[np.ndarray] = [np.empty(0)] * len(params)
    for layer in range(len(activations) - 1, -1, -1):
        grads[2 * layer] = dz.T @ post[layer]
        grads[2 * layer + 1] = dz.sum(axis=0)
        if layer:
            upstream = dz @ params[2 * layer]
            dz = upstream * _activation_grad(activations[layer - 1], pre[layer - 1], post[layer])
    return grads, dz


def _check_batch(inputs: np.ndarray, targets: np.ndarray, input_dim: int, output_dim: int) -> None:
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


def _init_affine(rng: np.random.Generator, out_dim: int, in_dim: int) -> tuple[np.ndarray, np.ndarray]:
    # scaled-uniform init: weights ~ U(-sqrt(1/fan_in), +sqrt(1/fan_in)), zero bias
    limit = np.sqrt(1.0 / max(in_dim, 1))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim)), np.zeros(out_dim)


class TrainableMlp:
    """Dense MLP with per-layer activations, trained by full-batch Adam."""

    def __init__(self, dims: Sequence[int], activations: Sequence[str], seed) -> None:
        dims = [int(d) for d in dims]
        if len(dims) < 2:
            raise ValueError("an MLP needs at least an input and an output dimension")
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        for act in activations:
            if act not in ("relu", "sigmoid", "identity"):
                raise ValueError(f"unknown trainable activation {act!r}")
        self.dims = dims
        self.activations = list(activations)
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for in_dim, out_dim in zip(dims, dims[1:]):
            w, b = _init_affine(rng, out_dim, in_dim)
            self.weights.append(w)
            self.biases.append(b)

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]

    @property
    def parameters(self) -> list[np.ndarray]:
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        a = np.asarray(inputs, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.input_dim:
            raise ValueError(f"expected a batch of {self.input_dim}-vectors")
        return _stack_forward(self.parameters, self.activations, a)[1][-1]

    def loss_and_gradients(
        self, inputs: np.ndarray, targets: np.ndarray, loss: str
    ) -> tuple[float, list[np.ndarray]]:
        """Mean batch loss and exact reverse-mode gradients, parameter-shaped."""
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        _check_batch(inputs, targets, self.input_dim, self.output_dim)
        params = self.parameters
        pre, post = _stack_forward(params, self.activations, inputs)
        value, dz = _loss_and_output_grad(loss, pre[-1], post[-1], targets, self.activations[-1])
        return value, _stack_backward(params, self.activations, pre, post, dz)[0]


class UnrolledNet:
    """Trainable sequence acceptor/embedder unrolled over positions.

    Position t gets its own two-layer ReLU block (no weight sharing) mapping
    [carried state; one-hot symbol block t] to the next carried state; the
    fixed initial state is the one-hot of ``start_state``. After the last
    position a stack of dense head layers produces the output (a sigmoid
    acceptance probability, an embedding, classifier logits, or any
    combination, depending on ``head_dims``/``head_activations``).
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

        # Init scheme tuned for deep unshared stacks: gain-preserving uniform
        # (+-sqrt(6/fan_in)) on the step blocks so the carried signal survives
        # the depth, and a zero-initialized final head layer so the output
        # starts at the loss's neutral point instead of saturating early.
        rng = np.random.default_rng(seed)
        gain = np.sqrt(6.0)
        self.step_weights: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for _ in range(length):
            w1, b1 = _init_affine(rng, hidden_width, state_dim + alphabet_size)
            w2, b2 = _init_affine(rng, state_dim, hidden_width)
            self.step_weights.append((w1 * gain, b1, w2 * gain, b2))
        self.head_weights: list[tuple[np.ndarray, np.ndarray]] = []
        in_dim = state_dim
        for pos, out_dim in enumerate(head_dims):
            w, b = _init_affine(rng, out_dim, in_dim)
            if pos == len(head_dims) - 1:
                w = np.zeros_like(w)
            self.head_weights.append((w, b))
            in_dim = out_dim

    @property
    def input_dim(self) -> int:
        return self.length * self.alphabet_size

    @property
    def output_dim(self) -> int:
        return self.head_weights[-1][0].shape[0]

    @property
    def parameters(self) -> list[np.ndarray]:
        return [p for layer in [*self.step_weights, *self.head_weights] for p in layer]

    def _blocks(self, inputs: np.ndarray) -> list[np.ndarray]:
        k = self.alphabet_size
        return [inputs[:, t * k : (t + 1) * k] for t in range(self.length)]

    def _trunk(self, inputs: np.ndarray) -> tuple[np.ndarray, list[tuple[list, list]]]:
        """Final carried state, and the (pre, post) activations of every position block."""
        state = np.tile(self.initial_state, (inputs.shape[0], 1))
        stacks = []
        for block, params in zip(self._blocks(inputs), self.step_weights):
            joint = np.concatenate([state, block], axis=1)
            stacks.append(_stack_forward(params, ("relu", self.state_activation), joint))
            state = stacks[-1][1][-1]
        return state, stacks

    def trunk_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Carried state after consuming the whole sequence."""
        return self._trunk(np.asarray(inputs, dtype=float))[0]

    def head_outputs(self, inputs: np.ndarray) -> list[np.ndarray]:
        """Output after each head layer (last entry is the network output)."""
        head = self.parameters[4 * self.length :]
        return _stack_forward(head, self.head_activations, self.trunk_batch(inputs))[1][1:]

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        return self.head_outputs(inputs)[-1]

    def loss_and_gradients(
        self, inputs: np.ndarray, targets: np.ndarray, loss: str
    ) -> tuple[float, list[np.ndarray]]:
        """Mean batch loss and exact reverse-mode gradients, parameter-shaped."""
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        _check_batch(inputs, targets, self.input_dim, self.output_dim)
        state, stacks = self._trunk(inputs)
        head = self.parameters[4 * self.length :]
        pre, post = _stack_forward(head, self.head_activations, state)
        value, dz = _loss_and_output_grad(loss, pre[-1], post[-1], targets, self.head_activations[-1])
        grads, dz = _stack_backward(head, self.head_activations, pre, post, dz)
        d_state = dz @ head[0]  # gradient wrt the final carried state
        for params, (pre, post) in zip(self.step_weights[::-1], stacks[::-1]):
            dz = d_state * _activation_grad(self.state_activation, pre[-1], post[-1])
            block_grads, dz = _stack_backward(params, ("relu", self.state_activation), pre, post, dz)
            grads[:0] = block_grads
            d_state = (dz @ params[0])[:, : self.state_dim]
        return value, grads


TrainableModel = TrainableMlp | UnrolledNet


@dataclass
class TrainConfig:
    """Full-batch Adam training configuration (the whole dataset per epoch)."""

    epochs: int = 200
    learning_rate: float = 0.01
    loss: str = "bce"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, shaped like the parameter list."""

    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_parameters(cls, params: list[np.ndarray], config: TrainConfig) -> "AdamState":
        return cls(
            learning_rate=config.learning_rate,
            beta1=config.beta1,
            beta2=config.beta2,
            epsilon=config.epsilon,
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, applied to the parameters in place."""
    state.step_count += 1
    t = state.step_count
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


def train(
    model: TrainableModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig | None = None,
    progress: Callable[[int, float], None] | None = None,
) -> list[float]:
    """Run full-batch Adam for the configured epochs; returns the loss trace.

    The model is updated in place; the trace holds the loss at the start of
    each epoch (so zero epochs returns an empty trace and leaves the
    parameters untouched). Deterministic given (model, data, config).
    """
    config = config or TrainConfig()
    params = model.parameters
    state = AdamState.for_parameters(params, config)
    trace: list[float] = []
    for epoch in range(config.epochs):
        value, grads = model.loss_and_gradients(inputs, targets, config.loss)
        trace.append(value)
        adam_step(params, grads, state)
        if progress is not None:
            progress(epoch, value)
    return trace
