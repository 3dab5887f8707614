"""Deterministic compilation passes from a DFA to explicit network weights.

Every pass here is exact by construction: the emitted weights are small
integers (plus the 0.5 readout threshold), so evaluation in double precision
reproduces the automaton bit for bit. ``verify_exact`` certifies that claim by
exhaustive enumeration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .automata import Dfa, accepts_batch
from .encodings import binary_state_encoding, encode_strings
from .network import LayerSpec, NetworkSpec, forward_batch

DEFAULT_ENUMERATION_BUDGET = 1 << 24


class ProjectionError(RuntimeError):
    """Raised when no sampled projection reaches the requested separation."""

    def __init__(self, message: str, best_distance: float):
        super().__init__(message)
        self.best_distance = best_distance


class EnumerationBudgetError(ValueError):
    """Raised when an exhaustive verification would enumerate too many strings."""


def dfa_fingerprint(dfa: Dfa) -> str:
    """Stable hex digest of the automaton, for construction provenance."""
    payload = ";".join(
        [
            str(dfa.state_count),
            str(dfa.alphabet_size),
            str(dfa.start_state),
            ",".join(map(str, sorted(dfa.accepting))),
            ",".join(map(str, dfa.transitions.ravel().tolist())),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _pair_match_stage(dfa: Dfa, passthrough: int, first_state_fixed: int | None) -> LayerSpec:
    """Hidden stage of one transition module: one ReLU AND-gadget per pair.

    Unit (i, j) fires (value exactly 1) iff the state part is e_i and the
    symbol block is u_j; weights are +1 on both coordinates with bias -1.
    When ``first_state_fixed`` is given there is no state part in the input:
    the state contribution is folded into the bias, which pins the state to
    the start state. ``passthrough`` trailing inputs (the not-yet-consumed
    symbol blocks) are routed through unchanged.
    """
    n, k = dfa.state_count, dfa.alphabet_size
    state_dims = 0 if first_state_fixed is not None else n
    in_dim = state_dims + k + passthrough
    out_dim = n * k + passthrough
    weights = np.zeros((out_dim, in_dim))
    bias = np.zeros(out_dim)
    for i in range(n):
        for j in range(k):
            unit = i * k + j
            if first_state_fixed is None:
                weights[unit, i] = 1.0
                bias[unit] = -1.0
            else:
                bias[unit] = (1.0 if i == first_state_fixed else 0.0) - 1.0
            weights[unit, state_dims + j] = 1.0
    for p in range(passthrough):
        weights[n * k + p, state_dims + k + p] = 1.0
    return LayerSpec(weights=weights, bias=bias, activation="relu")


def _next_state_stage(dfa: Dfa, passthrough: int) -> LayerSpec:
    """Output stage of one transition module: sum fired pairs into e_next."""
    n, k = dfa.state_count, dfa.alphabet_size
    weights = np.zeros((n + passthrough, n * k + passthrough))
    for i in range(n):
        for j in range(k):
            weights[int(dfa.transitions[i, j]), i * k + j] = 1.0
    for p in range(passthrough):
        weights[n + p, n * k + p] = 1.0
    return LayerSpec(weights=weights, bias=np.zeros(n + passthrough), activation="identity")


def build_transition_layer(dfa: Dfa) -> NetworkSpec:
    """One-step transition as a two-layer ReLU lookup.

    Input is a concatenated one-hot pair [e_state; u_symbol] of dimension
    n + k; the hidden layer has exactly n*k units, one per transition pair;
    the output is exactly the one-hot code of the successor state.
    """
    n, k = dfa.state_count, dfa.alphabet_size
    layers = (
        _pair_match_stage(dfa, passthrough=0, first_state_fixed=None),
        _next_state_stage(dfa, passthrough=0),
    )
    return NetworkSpec(
        layers=layers,
        input_dim=n + k,
        output_dim=n,
        metadata={
            "construction": "transition-lookup",
            "dfa_sha256": dfa_fingerprint(dfa),
            "hidden_width": n * k,
        },
    )


def _carrier_stages(dfa: Dfa, length: int) -> list[LayerSpec]:
    """Transition-module stages mapping R^(T*k) to the final state one-hot.

    Module t consumes symbol block t and the carried state while routing the
    remaining blocks through untouched; the start state enters through the
    first module's bias.
    """
    k = dfa.alphabet_size
    stages: list[LayerSpec] = []
    for t in range(length):
        remaining = (length - t - 1) * k
        fixed = dfa.start_state if t == 0 else None
        stages.append(_pair_match_stage(dfa, passthrough=remaining, first_state_fixed=fixed))
        stages.append(_next_state_stage(dfa, passthrough=remaining))
    return stages


def _carrier_network(dfa: Dfa, length: int, head: np.ndarray, metadata: dict, **readout) -> NetworkSpec:
    """Carrier stages plus one ``head @ final state`` layer, with the shared provenance.

    At T=0 there is no carrier: the layer reads no input and its bias is the
    start state's column of ``head``. ``readout`` sets that layer's activation.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        layers = [LayerSpec(weights=np.zeros((head.shape[0], 0)), bias=head[:, dfa.start_state], **readout)]
    else:
        last = LayerSpec(weights=head, bias=np.zeros(head.shape[0]), **readout)
        layers = _carrier_stages(dfa, length) + [last]
    return NetworkSpec(
        layers=tuple(layers),
        input_dim=length * dfa.alphabet_size,
        output_dim=head.shape[0],
        metadata={
            **metadata,
            "dfa_sha256": dfa_fingerprint(dfa),
            "length": length,
            "transition_modules": length,
            "depth": length + 1,
        },
    )


def build_unrolled_acceptor(dfa: Dfa, length: int) -> NetworkSpec:
    """Fixed-length acceptor: T stacked transition modules plus a readout.

    The readout takes the dot product of the final state with the accepting
    indicator vector and thresholds it strictly above 0.5; carried values are
    exactly 0 or 1, so the output equals the language indicator on every
    string of the given length.
    """
    indicator = np.zeros((1, dfa.state_count))
    indicator[0, list(dfa.accepting)] = 1.0
    return _carrier_network(
        dfa, length, indicator, {"construction": "unrolled-acceptor"},
        activation="step", thresholds=np.array([0.5]), strict=True,
    )


def build_binary_threshold_network(dfa: Dfa) -> NetworkSpec:
    """One-step transition over binary state codes, using step units only.

    Input is [b_state; u_symbol] with d = ceil(log2 n) state bits. The hidden
    layer holds one exact-match unit per transition pair: +1 weights where the
    pattern has a one, -1 where it has a zero, threshold equal to the
    pattern's popcount, so the unit fires iff the input equals the pattern.
    Each output bit is an OR (threshold 1) over the hidden units whose target
    code sets that bit.
    """
    n, k = dfa.state_count, dfa.alphabet_size
    enc = binary_state_encoding(n)
    d = enc.dim
    hidden_w = np.zeros((n * k, d + k))
    hidden_theta = np.zeros(n * k)
    out_w = np.zeros((d, n * k))
    for i in range(n):
        for j in range(k):
            unit = i * k + j
            pattern = np.concatenate([enc.codes[i], np.eye(k)[j]])
            hidden_w[unit] = 2.0 * pattern - 1.0
            hidden_theta[unit] = pattern.sum()
            target = enc.codes[int(dfa.transitions[i, j])]
            out_w[:, unit] = target
    layers = (
        LayerSpec(
            weights=hidden_w,
            bias=np.zeros(n * k),
            activation="step",
            thresholds=hidden_theta,
        ),
        LayerSpec(
            weights=out_w,
            bias=np.zeros(d),
            activation="step",
            thresholds=np.ones(d),
        ),
    )
    return NetworkSpec(
        layers=layers,
        input_dim=d + k,
        output_dim=d,
        metadata={
            "construction": "binary-threshold",
            "dfa_sha256": dfa_fingerprint(dfa),
            "state_bits": d,
        },
    )


def build_embedding_head(dfa: Dfa, length: int, head: np.ndarray | None = None) -> NetworkSpec:
    """State carrier plus a linear map assigning each state a distinct vector.

    ``head`` is a (d, n) matrix with pairwise-distinct columns; column i is
    the embedding of state i, so strings reaching the same state map to
    identical vectors and strings reaching different states map to distinct
    ones. Defaults to the identity (one-hot state embeddings).
    """
    n = dfa.state_count
    head = np.eye(n) if head is None else np.array(head, dtype=float)
    if head.ndim != 2 or head.shape[1] != n:
        raise ValueError(f"head must have one column per state; expected {n} columns")
    for i in range(n):
        for j in range(i + 1, n):
            if np.array_equal(head[:, i], head[:, j]):
                raise ValueError(f"head columns {i} and {j} coincide; embeddings must be distinct")
    metadata = {"construction": "embedding-head", "embedding_dim": head.shape[0]}
    return _carrier_network(dfa, length, head, metadata, activation="identity")


def build_compressed_embedding(
    dfa: Dfa,
    epsilon: float = 0.1,
    seed: int | tuple[int, ...] = 0,
    max_retries: int = 100,
) -> tuple[np.ndarray, float]:
    """Sample a random projection separating all state embeddings.

    Draws a (d, n) matrix of standard normals scaled by 1/sqrt(d), with
    d = ceil(log2 n) + 1, and resamples until every pair of projected states
    is more than ``epsilon`` apart. Returns the projection and the achieved
    minimum pairwise distance.
    """
    n = dfa.state_count
    if n < 2:
        raise ValueError("compression needs at least two states to separate")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = int(np.ceil(np.log2(n))) + 1
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(max_retries):
        projection = rng.standard_normal((d, n)) / np.sqrt(d)
        distance = min(
            float(np.linalg.norm(projection[:, i] - projection[:, j]))
            for i in range(n)
            for j in range(i + 1, n)
        )
        best = max(best, distance)
        if distance > epsilon:
            return projection, distance
    raise ProjectionError(
        f"no projection reached separation {epsilon} within {max_retries} draws "
        f"(best achieved: {best:.6g})",
        best_distance=best,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing a compiled network against its source automaton."""

    total_strings: int
    mismatches: tuple[tuple[tuple[int, ...], bool, bool], ...]
    exact: bool

    def __post_init__(self) -> None:
        if self.exact != (len(self.mismatches) == 0):
            raise ValueError("exact flag inconsistent with mismatch list")


def _check_input_dim(net: NetworkSpec, dfa: Dfa, length: int) -> None:
    k = dfa.alphabet_size
    if net.input_dim != length * k:
        raise ValueError(
            f"network input dim {net.input_dim} does not match length {length} "
            f"over a {k}-symbol alphabet"
        )


def _compare_on_strings(net: NetworkSpec, dfa: Dfa, strings: np.ndarray) -> list[tuple[tuple[int, ...], bool, bool]]:
    expected = accepts_batch(dfa, strings)
    outputs = forward_batch(net, encode_strings(strings, dfa.alphabet_size))
    got = outputs[:, 0] > 0.5
    bad = np.flatnonzero(expected != got)
    found = zip(strings[bad].tolist(), expected[bad].tolist(), got[bad].tolist())
    return [(tuple(string), want, have) for string, want, have in found]


def verify_exact(
    net: NetworkSpec,
    dfa: Dfa,
    length: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    chunk_size: int = 1 << 16,
) -> VerificationReport:
    """Compare the network verdict to the automaton on every string of ``length``.

    Enumerates all k^T strings in lexicographic order (chunked, so memory
    stays bounded). Refuses lengths whose enumeration exceeds ``budget``;
    use sampled verification for those.
    """
    _check_input_dim(net, dfa, length)
    k = dfa.alphabet_size
    total = k**length
    if total > budget:
        raise EnumerationBudgetError(
            f"{k}^{length} = {total} strings exceeds the enumeration budget {budget}; "
            "use sampled verification"
        )
    mismatches: list[tuple[tuple[int, ...], bool, bool]] = []
    powers = k ** np.arange(length - 1, -1, -1, dtype=np.int64) if length else None
    for start in range(0, total, chunk_size):
        stop = min(start + chunk_size, total)
        indices = np.arange(start, stop, dtype=np.int64)
        if length == 0:
            strings = np.zeros((1, 0), dtype=np.int64)
        else:
            strings = (indices[:, None] // powers[None, :]) % k
        mismatches.extend(_compare_on_strings(net, dfa, strings))
    return VerificationReport(
        total_strings=total, mismatches=tuple(mismatches), exact=not mismatches
    )


def verify_sampled(
    net: NetworkSpec,
    dfa: Dfa,
    length: int,
    count: int,
    seed: int | tuple[int, ...] = 0,
) -> VerificationReport:
    """Spot-check the network on ``count`` uniform strings of ``length``."""
    _check_input_dim(net, dfa, length)
    if count < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    strings = rng.integers(0, dfa.alphabet_size, size=(count, length))
    mismatches = sorted(set(_compare_on_strings(net, dfa, strings)))
    return VerificationReport(
        total_strings=count, mismatches=tuple(mismatches), exact=not mismatches
    )
