"""Shared oracles and strategies.

The oracles here deliberately avoid the library's own execution paths: string
labeling uses a plain dict-based fold, and minimality is checked with the
quadratic table-filling algorithm rather than partition refinement.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from dfanet.automata import Dfa
from dfanet.compiler import build_unrolled_acceptor
from dfanet.network import _beside_identity


def plain_fold(dfa: Dfa, string) -> int:
    """Reference run: dict lookups only, no numpy, no library fold."""
    table = {(i, j): int(dfa.transitions[i, j])
             for i in range(dfa.state_count) for j in range(dfa.alphabet_size)}
    state = dfa.start_state
    for symbol in string:
        state = table[(state, int(symbol))]
    return state


def plain_accepts(dfa: Dfa, string) -> bool:
    return plain_fold(dfa, string) in dfa.accepting


def strings_up_to(alphabet_size: int, max_length: int):
    for length in range(max_length + 1):
        yield from itertools.product(range(alphabet_size), repeat=length)


def table_filling_minimal_count(dfa: Dfa) -> int:
    """Minimal state count by reachability plus pairwise distinguishability."""
    reachable = [dfa.start_state]
    seen = {dfa.start_state}
    for q in reachable:
        for c in range(dfa.alphabet_size):
            nxt = int(dfa.transitions[q, c])
            if nxt not in seen:
                seen.add(nxt)
                reachable.append(nxt)

    marked = {
        (p, q)
        for p in reachable
        for q in reachable
        if p < q and ((p in dfa.accepting) != (q in dfa.accepting))
    }
    changed = True
    while changed:
        changed = False
        for p in reachable:
            for q in reachable:
                if p >= q or (p, q) in marked:
                    continue
                for c in range(dfa.alphabet_size):
                    a, b = int(dfa.transitions[p, c]), int(dfa.transitions[q, c])
                    if a == b:
                        continue
                    if (min(a, b), max(a, b)) in marked:
                        marked.add((p, q))
                        changed = True
                        break

    # group unmarked (equivalent) pairs into classes
    class_of = {}
    for q in reachable:
        for representative in reachable:
            if representative == q or (min(representative, q), max(representative, q)) not in marked:
                class_of[q] = representative
                break
    return len(set(class_of.values()))


@st.composite
def dfas(draw, max_states: int = 8, max_symbols: int = 3) -> Dfa:
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_symbols))
    table = np.array(
        [[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(n)], dtype=np.int64
    )
    accepting = frozenset(
        i for i in range(n) if draw(st.booleans())
    )
    start = draw(st.integers(0, n - 1))
    return Dfa(state_count=n, alphabet_size=k, transitions=table,
               start_state=start, accepting=accepting)


# entries on the pass-through rules' edges: both zeros, the identity's 1.0, other values, non-finite ones
TAIL_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, np.nan, np.inf, -np.inf])


@st.composite
def tailed_parts(draw, cols=None, tail=None):
    """A drawn block, bias, tail and activation, the arguments of ``_beside_identity``.

    The block may have no rows or no columns. Its last rows and columns may
    form an identity of their own with a zero bias, which extends the tail,
    and one drawn entry may then break that identity again.
    """
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4)) if cols is None else cols
    tail = draw(st.integers(0, 4)) if tail is None else tail
    block = np.array(draw(st.lists(TAIL_VALUES, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    bias = np.array(draw(st.lists(TAIL_VALUES, min_size=rows, max_size=rows)))
    extend = draw(st.integers(0, min(rows, cols)))
    if extend:
        block[rows - extend:] = 0.0
        block[:, cols - extend:] = 0.0
        np.fill_diagonal(block[rows - extend:, cols - extend:], 1.0)
        bias[rows - extend:] = draw(st.sampled_from([0.0, -0.0]))
        if draw(st.booleans()):
            block[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(TAIL_VALUES)
    return block, bias, tail, draw(st.sampled_from(["relu", "identity", "sigmoid"]))


def tailed_layers(cols=None, tail=None):
    """A layer ``_beside_identity`` builds from ``tailed_parts``."""
    return tailed_parts(cols, tail).map(lambda parts: _beside_identity(*parts))


@pytest.fixture
def parity():
    from dfanet.automata import make_parity_dfa

    return make_parity_dfa()


def scaled_acceptor(dfa: Dfa, length: int):
    """``dfa``'s acceptor with its pair stages scaled by 2^500 and its next-state stages by 2^-500.

    Only the transition rows are scaled, so every value stays exact: a carrier
    is 0 or 2^500 after a pair stage and 0 or 1 after a next-state stage.
    """
    net = build_unrolled_acceptor(dfa, length)
    layers = list(net.layers)
    for index in range(2 * length):
        layer, rows = layers[index], (dfa.state_count * dfa.alphabet_size if index % 2 == 0 else dfa.state_count)
        scale = np.ones(layer.output_dim)
        scale[:rows] = 2.0**500 if index % 2 == 0 else 2.0**-500
        layers[index] = replace(layer, weights=layer.weights * scale[:, None], bias=layer.bias * scale)
    return replace(net, layers=tuple(layers))
