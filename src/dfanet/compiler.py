"""Deterministic compilation passes from a DFA to explicit network weights.

Every pass here is exact by construction: the emitted weights are small
integers (plus the 0.5 readout threshold), so evaluation in double precision
reproduces the automaton bit for bit. The transition layers are all read off
the automaton's (state, symbol) pair table (``encodings.transition_table``),
and the unrolled carrier stacks one such module per position beside an
identity over the unread symbol blocks. ``verify_exact`` certifies exactness
for every one of the k^T strings of a length.

It does so without running each string. A layer of ``NetworkSpec._plan`` that
has read the first t symbol blocks computes a vector, its carrier, that depends
on the string only through those t symbols, and the unread blocks reach later
layers unchanged. So ``verify_exact`` walks the plan and the automaton together
over the distinct (carrier, state) pairs, the product construction of Hopcroft
and Karp: it merges byte-equal pairs and extends each by every symbol block the
next layer reads, moving the carrier through the layers and the state through
the symbols. An unrolled acceptor repeats one module, so once its reachable
pairs stop growing each stage repeats the one before; the walk runs each
distinct stage once and reuses its table, so its cost does not grow with T.
Where it cannot walk, it runs every string through ``forward_batch``, and only
that enumeration, or listing the mismatches, is limited by a budget.

A network that is not exact is judged from the same tables: pushing string
counts from the start pair to the final pairs counts the mismatching strings,
and a descent towards a bad final pair finds the first of them. So the report
carries a count and a witness, and lists every mismatching string only when its
``mismatches`` are read.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .automata import Dfa, _distinct_rows, _numbered_strings, accepts_batch, all_strings
from .encodings import binary_state_encoding, bits_for_state_count, encode_strings, one_hot_state_encoding
from .encodings import transition_table
from .network import LayerSpec, NetworkSpec, _beside_identity, _layer_step, _Step, forward_batch

DEFAULT_ENUMERATION_BUDGET = 1 << 24
_CHUNK = 1 << 16  # strings per enumeration chunk, and the most rows one walk stage may hold


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


def build_transition_layer(dfa: Dfa) -> NetworkSpec:
    """One-step transition as a two-layer ReLU lookup.

    Input is a concatenated one-hot pair [e_state; u_symbol] of dimension
    n + k; the hidden layer has exactly n*k units, one per transition pair:
    unit (i, j) has weights [e_i; u_j] and bias -1, so it fires, with value
    exactly 1, iff the input is that pair. The output sums the fired unit
    into the one-hot code of the successor state.
    """
    n, k = dfa.state_count, dfa.alphabet_size
    pairs, successors = transition_table(dfa, one_hot_state_encoding(n))
    return NetworkSpec(
        layers=(
            LayerSpec(weights=pairs, bias=np.full(n * k, -1.0), activation="relu"),
            LayerSpec(weights=successors.T, bias=np.zeros(n), activation="identity"),
        ),
        input_dim=n + k,
        output_dim=n,
        metadata={"construction": "transition-lookup", "dfa_sha256": dfa_fingerprint(dfa), "hidden_width": n * k},
    )


def _carrier_stages(dfa: Dfa, length: int) -> list[LayerSpec]:
    """T >= 1 transition modules mapping R^(T*k) to the final state one-hot.

    Module t is the transition layer's two stages on the carried state and
    symbol block t, beside an identity passing the unread blocks through. The
    first module has no state input: its pair units see the symbol columns
    only, and the start state's column of the pair table enters their bias.
    """
    n, k = dfa.state_count, dfa.alphabet_size
    pairs, successors = transition_table(dfa, one_hot_state_encoding(n))
    first, later = (pairs[:, n:], pairs[:, dfa.start_state] - 1.0), (pairs, np.full(n * k, -1.0))
    stages = []
    for t in range(length):
        block, bias = later if t else first
        tail = (length - t - 1) * k
        stages.append(_beside_identity(block, bias, tail, "relu"))
        stages.append(_beside_identity(successors.T, np.zeros(n), tail, "identity"))
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
    indicator = dfa.accepting_mask[None, :].astype(float)
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
    pairs, successors = transition_table(dfa, binary_state_encoding(n))
    d = successors.shape[1]
    return NetworkSpec(
        layers=(
            LayerSpec(weights=2.0 * pairs - 1.0, bias=np.zeros(n * k), activation="step", thresholds=pairs.sum(1)),
            LayerSpec(weights=successors.T, bias=np.zeros(d), activation="step", thresholds=np.ones(d)),
        ),
        input_dim=d + k,
        output_dim=d,
        metadata={"construction": "binary-threshold", "dfa_sha256": dfa_fingerprint(dfa), "state_bits": d},
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
    if not 0 < epsilon < np.inf:  # also refuses nan
        raise ValueError("epsilon must be positive and finite")
    d = bits_for_state_count(n) + 1
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


Mismatch = tuple[tuple[int, ...], bool, bool]  # (string, automaton verdict, network verdict)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing a compiled network against its source automaton.

    ``mismatch_count`` strings (or draws) got a network verdict that differs
    from the automaton's; ``witness`` is the first of them, None when there is
    none, and ``exact`` says there is none. ``mismatches`` lists them all, in
    order, and is computed the first time it is read, by calling
    ``list_mismatches``.
    """

    total_strings: int
    mismatch_count: int
    witness: Mismatch | None
    list_mismatches: Callable[[], tuple[Mismatch, ...]] = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.mismatch_count == 0) != (self.witness is None):
            raise ValueError("a report has a witness exactly when it has mismatches")

    @property
    def exact(self) -> bool:
        return self.mismatch_count == 0

    @cached_property
    def mismatches(self) -> tuple[Mismatch, ...]:
        return self.list_mismatches()


def _check_dims(net: NetworkSpec, dfa: Dfa, length: int) -> None:
    k = dfa.alphabet_size
    if net.input_dim != length * k:
        raise ValueError(
            f"network input dim {net.input_dim} does not match length {length} "
            f"over a {k}-symbol alphabet"
        )
    if net.output_dim < 1:
        raise ValueError("network has no output unit to read a verdict from")


def _mismatches(strings: np.ndarray, expected: np.ndarray, got: np.ndarray) -> list[Mismatch]:
    """The rows of ``strings`` whose network verdict ``got`` differs from the automaton's ``expected``."""
    bad = np.flatnonzero(expected != got)
    found = zip(strings[bad].tolist(), expected[bad].tolist(), got[bad].tolist())
    return [(tuple(string), want, have) for string, want, have in found]


def _verdicts(outputs: np.ndarray) -> np.ndarray:
    """Accept where an output exceeds 0.5: the one rule that reads a verdict off an acceptor's output."""
    return outputs > 0.5


def _compare_on_strings(net: NetworkSpec, dfa: Dfa, strings: np.ndarray) -> list[Mismatch]:
    # inf or nan weights, or an overflow, give inf or nan outputs; the verdict
    # compares them like any other value (nan reads as "reject"), so no warning
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = forward_batch(net, encode_strings(strings, dfa.alphabet_size))
    return _mismatches(strings, accepts_batch(dfa, strings), _verdicts(outputs[:, 0]))


class _Walk(NamedTuple):
    """A network and its automaton over symbol strings, through their distinct (carrier, state) pairs.

    Pairs are numbered per stage: plan steps from the first, or from one that
    reads fresh symbol blocks, up to the next such. ``tables[s][p, j]`` is the
    pair that pair ``p`` becomes once stage ``s`` has read the ``blocks[s]``
    symbols numbered ``j`` (base k, first symbol most significant; a leading
    stage reads none) and run its steps. The walk starts from pair 0, the start
    state; ``verdicts`` and ``accepted`` are the final pairs' network and
    automaton verdicts.
    """

    tables: list[np.ndarray]
    blocks: list[int]
    verdicts: np.ndarray
    accepted: np.ndarray


def _distinct(carriers: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (carrier, state) rows and each row's index among them.

    Rows merge when their bytes are equal (``automata._distinct_rows``), so
    carriers that differ only in the sign of a zero stay apart.
    """
    rows = np.concatenate([carriers, states[:, None]], axis=1)  # state indices are exact as floats
    first, index = _distinct_rows(rows)
    return carriers[first], states[first], index


def _stage_key(steps: tuple[_Step, ...]) -> tuple:
    """Everything a walk stage computes from besides its pairs, as comparable values.

    That is each step's fields, its arrays taken as shape and bytes so that
    ``-0.0`` and nan compare as they compute.
    """
    return tuple(
        tuple((field.shape, field.tobytes()) if isinstance(field, np.ndarray) else field for field in step)
        for step in steps
    )


def _walk_layers(steps: tuple[_Step, ...], carriers: np.ndarray, fresh: np.ndarray) -> np.ndarray | None:
    """``steps`` on ``carriers``, the first joined by ``fresh``; None if one would read a value that is not finite."""
    for step in steps:
        if not np.isfinite(carriers).all():
            return None
        carriers = _layer_step(step, carriers, fresh)
    return carriers


def _walk(net: NetworkSpec, dfa: Dfa, limit: int) -> _Walk | None:
    """Walk ``net._plan`` and ``dfa`` together over the distinct pairs; None where it cannot.

    It cannot when a layer reads part of a symbol block, when the output passes
    input columns through, when a layer would read a carrier that is not
    finite (the rule of ``dfanet.network``, judged as ``forward_batch`` judges
    it), or when one stage would hold more than ``limit`` pair-symbol rows.
    The last layer's inf or nan is a verdict.

    Each distinct stage runs once. A stage whose steps compute what the
    previous stage's did (``_stage_key``), from pairs that the previous stage
    left byte for byte as it found them, would compute the same table again, so
    it reuses that table. An unrolled acceptor's modules repeat once its
    reachable states stop growing, so the walk costs one pass per distinct
    stage rather than one per position.
    """
    k = dfa.alphabet_size
    plan = net._plan
    reads = [step.fresh for step in plan]
    if any(r % k for r in reads) or sum(reads) < net.input_dim:
        return None
    starts = [0] + [i for i, r in enumerate(reads) if r and i]
    carriers, states = np.zeros((1, 0)), np.array([dfa.start_state])
    tables, blocks = [], []
    repeat = None  # the last stage run: its key and table, if its pairs came out as they went in
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is judged, not warned about
        for lo, hi in zip(starts, starts[1:] + [len(plan)]):
            steps = plan[lo:hi]
            key, b = _stage_key(steps), steps[0].fresh // k
            blocks.append(b)
            if repeat is not None and repeat[0] == key:
                tables.append(repeat[1])
                continue
            if len(carriers) * k**b > limit:
                return None
            symbols = np.tile(all_strings(k, b), (len(carriers), 1))
            fresh = np.eye(k)[symbols].reshape(len(symbols), steps[0].fresh)
            before = carriers, states
            states = np.repeat(states, k**b)
            for column in symbols.T:
                states = dfa.transitions[states, column]
            carriers = _walk_layers(steps, np.repeat(carriers, k**b, axis=0), fresh)
            if carriers is None:
                return None
            carriers, states, index = _distinct(carriers, states)
            tables.append(index.reshape(-1, k**b))
            unchanged = (carriers.shape == before[0].shape and carriers.tobytes() == before[0].tobytes()
                         and np.array_equal(states, before[1]))
            repeat = (key, tables[-1]) if unchanged else None
    return _Walk(tables, blocks, _verdicts(carriers[:, 0]), dfa.accepting_mask[states])


def _final_pairs(walk: _Walk, strings: np.ndarray, k: int) -> np.ndarray:
    """The final pair of each row of ``strings``, read from the walk's tables."""
    pairs = np.zeros(len(strings), dtype=np.int64)
    read = 0
    for table, b in zip(walk.tables, walk.blocks):
        symbols = strings[:, read:read + b] @ (k ** np.arange(b - 1, -1, -1, dtype=np.int64))
        pairs = table[pairs, symbols]
        read += b
    return pairs


def _tally(walk: _Walk, k: int) -> tuple[int, Mismatch]:
    """The number of strings whose final pair's verdicts differ, and the first of them.

    ``walk`` has at least one such pair. The count pushes the number of strings
    that reach each pair forward through the tables, from one string at pair 0.
    The first string descends from pair 0 through the smallest symbol block
    whose pair can still reach a bad final pair. Counts are int64 while k^T
    fits in it, and Python ints beyond.
    """
    bad = walk.verdicts != walk.accepted
    dtype = np.int64 if k ** sum(walk.blocks) <= np.iinfo(np.int64).max else object
    counts = np.ones(1, dtype=dtype)
    for table, pairs in zip(walk.tables, [len(table) for table in walk.tables[1:]] + [len(bad)]):
        reached = np.zeros(pairs, dtype=dtype)
        np.add.at(reached, table, counts[:, None])
        counts = reached
    live = [bad]  # live[s]: the pairs of stage s that reach a bad final pair
    for table in reversed(walk.tables):
        live.insert(0, live[0][table].any(axis=1))
    pair, string = 0, []
    for table, b, reaches in zip(walk.tables, walk.blocks, live[1:]):
        j = int(np.argmax(reaches[table[pair]]))
        pair = int(table[pair, j])
        string += _numbered_strings(j, k, b).tolist()
    return int(counts[bad].sum()), (tuple(string), bool(walk.accepted[pair]), bool(walk.verdicts[pair]))


def _list_mismatches(
    net: NetworkSpec, dfa: Dfa, length: int, walk: _Walk | None, budget: int
) -> tuple[Mismatch, ...]:
    """Every mismatch, in lexicographic order, chunk by chunk; refuses more than ``budget`` strings.

    Each string's verdicts are read from its final pair in the walk's tables,
    or, with no walk, from ``forward_batch``.
    """
    k, total = dfa.alphabet_size, dfa.alphabet_size**length
    if total > budget:
        raise EnumerationBudgetError(
            f"{k}^{length} = {total} strings exceeds the enumeration budget {budget}; "
            "use sampled verification"
        )
    if total > np.iinfo(np.int64).max:
        raise EnumerationBudgetError(
            f"{k}^{length} = {total} strings cannot be numbered in 64 bits; use sampled verification"
        )
    mismatches: list[Mismatch] = []
    for start in range(0, total, _CHUNK):
        strings = _numbered_strings(np.arange(start, min(start + _CHUNK, total)), k, length)
        if walk is None:
            mismatches.extend(_compare_on_strings(net, dfa, strings))
        else:
            pairs = _final_pairs(walk, strings, k)
            mismatches.extend(_mismatches(strings, walk.accepted[pairs], walk.verdicts[pairs]))
    return tuple(mismatches)


def verify_exact(
    net: NetworkSpec,
    dfa: Dfa,
    length: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VerificationReport:
    """Compare the network verdict to the automaton on every string of ``length``.

    The verdict on a string is output column 0 > 0.5. ``verify_exact`` walks
    the network's plan and the automaton together over their distinct
    (carrier, state) pairs (see the module docstring), running each distinct
    stage once; when no final pair's verdicts differ, the network is exact and
    no string is enumerated. Otherwise the walk's tables give the mismatch
    count, by pushing string counts from the start pair to the final pairs,
    and the first witness, by descending from the start pair towards a bad
    final pair. No string is listed until ``mismatches`` is read; that lists
    every mismatch, in lexicographic order, by reading each string's final
    pair from the tables, chunk by chunk.

    The walk is sound because it runs the same layer arithmetic as
    ``forward_batch`` on the same values, under the same finiteness rule (see
    ``dfanet.network``): byte-equal carriers give byte-equal results, and
    every string reaches the pair of its prefix. Its verdicts
    equal enumeration's bit for bit wherever the sums are exact, as on every
    network the builders emit. On a float network a verdict within rounding of
    0.5 can differ, as it already does between enumeration chunk shapes.

    It falls back to running all k^T strings through ``forward_batch`` (in
    chunks, so memory stays bounded) and listing every mismatch when a layer
    reads part of a symbol block, the output passes input columns through, a
    layer would read a carrier that is not finite, or one stage's pairs times
    its symbol blocks exceed one chunk.

    ``budget`` limits only enumeration: the fallback refuses, and reading
    ``mismatches`` raises, when k^T exceeds it, while a network the walk
    decides is judged, counted and given a witness at any length. Listing
    numbers the strings in int64, so whatever the budget the fallback refuses,
    and reading ``mismatches`` raises, beyond 2^63 - 1 strings; use sampled
    verification beyond either limit.
    """
    _check_dims(net, dfa, length)
    k = dfa.alphabet_size
    total = k**length
    walk = _walk(net, dfa, _CHUNK)
    if walk is not None and np.array_equal(walk.verdicts, walk.accepted):
        return VerificationReport(total, 0, None, tuple)
    listing = partial(_list_mismatches, net, dfa, length, walk, budget)
    if walk is None:
        listed = listing()
        return VerificationReport(total, len(listed), listed[0] if listed else None, partial(tuple, listed))
    count, witness = _tally(walk, k)
    return VerificationReport(total, count, witness, listing)


def verify_sampled(
    net: NetworkSpec,
    dfa: Dfa,
    length: int,
    count: int,
    seed: int | tuple[int, ...] = 0,
) -> VerificationReport:
    """Spot-check the network on ``count`` uniform strings of ``length``.

    ``mismatches`` holds one entry per draw whose verdict differs, sorted, so a
    string drawn twice is listed twice and ``total_strings - mismatch_count``
    draws matched; ``witness`` is the first entry.
    """
    _check_dims(net, dfa, length)
    if count < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    strings = rng.integers(0, dfa.alphabet_size, size=(count, length))
    mismatches = tuple(sorted(_compare_on_strings(net, dfa, strings)))
    witness = mismatches[0] if mismatches else None
    return VerificationReport(count, len(mismatches), witness, partial(tuple, mismatches))
