"""Deterministic finite automata: model, execution, minimization, Nerode classes.

States and symbols are dense non-negative indices. Human-readable names only
exist at the file-format level (see :mod:`dfanet.formats`). A string over the
alphabet is any sequence of symbol indices; the empty sequence is valid and
denotes the empty string.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

SymbolString = Sequence[int]


def _state_indices(values, state_count: int, what: str) -> np.ndarray:
    """``values`` as int64; ValueError unless each is an integer in [0, state_count).

    Integer-valued floats such as ``1.0`` count as integers.
    """
    raw = np.asarray(values)
    integral = raw.dtype.kind in "biu" or (raw.dtype.kind == "f" and (raw == np.round(raw)).all())
    if not integral or ((raw < 0) | (raw >= state_count)).any():
        raise ValueError(f"{what} must be an integer state index in [0, {state_count})")
    return raw.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Dfa:
    """A complete DFA: total transition table, start state, accepting set.

    ``transitions[state, symbol]`` is the successor state. The table must be
    total and closed (every entry a valid state index). ``accepting_mask`` is
    the read-only boolean vector of the accepting set over all states.
    """

    state_count: int
    alphabet_size: int
    transitions: np.ndarray
    start_state: int
    accepting: frozenset[int]
    accepting_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.state_count < 1:
            raise ValueError("state_count must be positive")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        table = _state_indices(self.transitions, self.state_count, "every transition table entry")
        if table.shape != (self.state_count, self.alphabet_size):
            raise ValueError(
                f"transition table must be total: expected shape "
                f"{(self.state_count, self.alphabet_size)}, got {table.shape}"
            )
        start = _state_indices(self.start_state, self.state_count, f"start_state {self.start_state!r}")
        accepting = _state_indices(list(self.accepting), self.state_count, "every accepting state")
        mask = np.zeros(self.state_count, dtype=bool)
        mask[accepting] = True
        for array in (table, mask):
            array.flags.writeable = False
        object.__setattr__(self, "transitions", table)
        object.__setattr__(self, "start_state", start.item())
        object.__setattr__(self, "accepting", frozenset(accepting.tolist()))
        object.__setattr__(self, "accepting_mask", mask)


def step(dfa: Dfa, state: int, symbol: int) -> int:
    """Apply the transition table once."""
    if not 0 <= state < dfa.state_count:
        raise ValueError(f"state {state} out of range [0, {dfa.state_count})")
    if not 0 <= symbol < dfa.alphabet_size:
        raise ValueError(f"symbol {symbol} out of range [0, {dfa.alphabet_size})")
    return int(dfa.transitions[state, symbol])


def run(dfa: Dfa, x: SymbolString) -> int:
    """Fold the transition table over ``x`` from the start state.

    The empty string returns the start state.
    """
    state = dfa.start_state
    for symbol in x:
        state = step(dfa, state, int(symbol))
    return state


def accepts(dfa: Dfa, x: SymbolString) -> bool:
    """Whether the state reached by ``x`` is accepting."""
    return run(dfa, x) in dfa.accepting


def run_batch(dfa: Dfa, strings: np.ndarray) -> np.ndarray:
    """Vectorized :func:`run` over a ``(count, length)`` matrix of symbols."""
    strings = np.asarray(strings, dtype=np.int64)
    if strings.ndim != 2:
        raise ValueError("strings must be a 2-D matrix of symbol indices")
    if strings.size and (strings.min() < 0 or strings.max() >= dfa.alphabet_size):
        raise ValueError("invalid symbol index in batch")
    states = np.full(strings.shape[0], dfa.start_state, dtype=np.int64)
    for t in range(strings.shape[1]):
        states = dfa.transitions[states, strings[:, t]]
    return states


def accepts_batch(dfa: Dfa, strings: np.ndarray) -> np.ndarray:
    """Vectorized :func:`accepts`; returns a boolean vector."""
    return dfa.accepting_mask[run_batch(dfa, strings)]


def reachable_states(dfa: Dfa) -> list[int]:
    """States reachable from the start, in BFS first-reached order."""
    seen = {dfa.start_state}
    order = [dfa.start_state]
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for c in range(dfa.alphabet_size):
            nxt = int(dfa.transitions[q, c])
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge the byte-equal rows of a 2-D array: each class's first row and each row's class.

    Rows are compared as raw bytes, not as values, so ``-0.0`` and ``0.0``
    stay apart. Classes are numbered in the order of their sorted bytes.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    return first, index


def minimize(dfa: Dfa) -> Dfa:
    """Return the language-equivalent DFA with the minimum number of states.

    Unreachable states are dropped, then equivalent states are merged by
    Moore's (1956) partition refinement. It starts from the accepting/rejecting
    split; each round puts two states in one block when their blocks and their
    successors' blocks all agree, and it stops when a round adds no block.
    Output states are numbered in the order a BFS from the start state first
    reaches them, so isomorphic inputs give identical outputs. The blocks are
    numbered by their first states in the BFS order of the input's states,
    which is the same order (the comment below says why).
    """
    reachable = np.array(reachable_states(dfa))
    position = np.zeros(dfa.state_count, dtype=np.int64)
    position[reachable] = np.arange(len(reachable))
    successors = position[dfa.transitions[reachable]]
    accepting = dfa.accepting_mask[reachable]
    count, (first, block) = 0, _distinct_rows(accepting[:, None])
    while len(first) > count:
        count = len(first)
        first, block = _distinct_rows(np.concatenate([block[:, None], block[successors]], axis=1))
    # Number the blocks by their first states in BFS order. That is the order
    # in which a BFS over the blocks reaches them: a block's successor blocks
    # are the same from each of its states, so only its first state can reach
    # a new block, and blocks are first reached in the order of their first states.
    order = np.sort(first)
    number = np.zeros(len(first), dtype=np.int64)
    number[block[order]] = np.arange(len(order))
    return Dfa(
        state_count=len(order),
        alphabet_size=dfa.alphabet_size,
        transitions=number[block[successors[order]]],
        start_state=0,
        accepting=frozenset(np.flatnonzero(accepting[order]).tolist()),
    )


@dataclass(frozen=True)
class NerodePartition:
    """Right-congruence classes of a set of strings: class id per string."""

    class_of: dict[tuple[int, ...], int]
    class_count: int


def nerode_classes(dfa: Dfa, strings: Iterable[SymbolString]) -> NerodePartition:
    """Group strings by the minimal-DFA state they reach.

    Two strings get the same class id iff no continuation distinguishes their
    membership in the DFA's language.
    """
    minimal = minimize(dfa)
    class_of = {tuple(int(s) for s in x): run(minimal, x) for x in strings}
    return NerodePartition(class_of=class_of, class_count=len(set(class_of.values())))


def make_parity_dfa() -> Dfa:
    """Two states over {0, 1}; accepts strings with an even count of ones."""
    return Dfa(
        state_count=2,
        alphabet_size=2,
        transitions=np.array([[0, 1], [1, 0]]),
        start_state=0,
        accepting=frozenset({0}),
    )


def make_mod_counter_dfa(n: int) -> Dfa:
    """Count '1' symbols modulo ``n`` over {0, 1}; '0' is a self-loop.

    Accepts exactly the strings whose count of ones is 0 mod n.
    """
    if n < 1:
        raise ValueError("counter modulus must be at least 1")
    table = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return Dfa(
        state_count=n,
        alphabet_size=2,
        transitions=table,
        start_state=0,
        accepting=frozenset({0}),
    )


def random_dfa(state_count: int, alphabet_size: int, seed) -> Dfa:
    """Seeded uniform random total DFA (each state accepting with prob 1/2)."""
    rng = np.random.default_rng(seed)
    table = rng.integers(0, state_count, size=(state_count, alphabet_size))
    accepting = frozenset(np.flatnonzero(rng.random(state_count) < 0.5).tolist())
    return Dfa(
        state_count=state_count,
        alphabet_size=alphabet_size,
        transitions=table,
        start_state=0,
        accepting=accepting,
    )


def _numbered_strings(numbers: np.ndarray | int, alphabet_size: int, length: int) -> np.ndarray:
    """The strings of ``length`` numbered ``numbers`` in base k, first symbol most significant, as rows."""
    powers = alphabet_size ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return np.asarray(numbers, dtype=np.int64)[..., None] // powers % alphabet_size


def all_strings(alphabet_size: int, length: int) -> np.ndarray:
    """All strings of exactly ``length``, lexicographically ordered, as rows."""
    return _numbered_strings(np.arange(alphabet_size**length), alphabet_size, length)


def all_strings_up_to(alphabet_size: int, max_length: int) -> list[tuple[int, ...]]:
    """All strings of length 0..max_length, shortest first, lex within length."""
    out: list[tuple[int, ...]] = []
    for length in range(max_length + 1):
        out.extend(tuple(row) for row in all_strings(alphabet_size, length).tolist())
    return out
