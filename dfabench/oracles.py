"""Independent oracles that the benchmark checks dfanet's outputs against.

Nothing here imports dfanet or numpy: automata are plain dicts, networks are
nested lists of floats, and every computation is a plain Python loop. The
workloads convert the program's objects into these forms before comparing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Automaton:
    """A complete DFA as plain data: ``delta[(state, symbol)]`` is the successor."""

    states: int
    symbols: int
    delta: dict
    start: int
    accepting: frozenset

    @classmethod
    def from_rows(cls, rows, start: int, accepting) -> "Automaton":
        delta = {(i, j): int(rows[i][j]) for i in range(len(rows)) for j in range(len(rows[0]))}
        return cls(len(rows), len(rows[0]), delta, start, frozenset(accepting))

    def rows(self) -> list[list[int]]:
        return [[self.delta[(i, j)] for j in range(self.symbols)] for i in range(self.states)]


PARITY = Automaton.from_rows([[0, 1], [1, 0]], start=0, accepting={0})


def plain_fold(automaton: Automaton, string) -> int:
    """State reached from the start after reading ``string``: dict lookups only."""
    state = automaton.start
    for symbol in string:
        state = automaton.delta[(state, int(symbol))]
    return state


def plain_accepts(automaton: Automaton, string) -> bool:
    return plain_fold(automaton, string) in automaton.accepting


def final_state_counts(automaton: Automaton, length: int) -> list[int]:
    """How many strings of ``length`` end in each state (dynamic program over positions)."""
    counts = [0] * automaton.states
    counts[automaton.start] = 1
    for _ in range(length):
        nxt = [0] * automaton.states
        for state, ways in enumerate(counts):
            if ways:
                for symbol in range(automaton.symbols):
                    nxt[automaton.delta[(state, symbol)]] += ways
        counts = nxt
    return counts


@dataclass(frozen=True)
class DenseLayer:
    """One layer as plain lists: ``rows[i]`` holds the weights of unit i."""

    rows: list
    bias: list
    activation: str
    thresholds: list | None
    strict: bool


def dense_layers(layer_specs) -> list[DenseLayer]:
    """Copy ``LayerSpec``-like objects (weights, bias, activation, thresholds, strict)."""
    return [
        DenseLayer(
            rows=[list(map(float, row)) for row in layer.weights.tolist()],
            bias=list(map(float, layer.bias.tolist())),
            activation=layer.activation,
            thresholds=None if layer.thresholds is None else list(map(float, layer.thresholds.tolist())),
            strict=bool(layer.strict),
        )
        for layer in layer_specs
    ]


def _activate(layer: DenseLayer, z: list[float]) -> list[float]:
    if layer.activation == "relu":
        return [v if v > 0.0 else 0.0 for v in z]
    if layer.activation == "identity":
        return z
    if layer.activation == "sigmoid":
        return [1.0 / (1.0 + math.exp(-v)) if v >= 0.0 else math.exp(v) / (1.0 + math.exp(v)) for v in z]
    if layer.activation == "step":
        if layer.strict:
            return [1.0 if v > t else 0.0 for v, t in zip(z, layer.thresholds)]
        return [1.0 if v >= t else 0.0 for v, t in zip(z, layer.thresholds)]
    raise ValueError(f"unknown activation {layer.activation!r}")


def reference_forward(layers: list[DenseLayer], x) -> list[float]:
    """Dense evaluation of a layer chain on one input vector, one unit at a time."""
    a = [float(v) for v in x]
    for layer in layers:
        if layer.rows and len(layer.rows[0]) != len(a):
            raise ValueError("input width does not match the layer")
        z = [sum(w * v for w, v in zip(row, a)) + b for row, b in zip(layer.rows, layer.bias)]
        a = _activate(layer, z)
    return a


def one_hot_blocks(string, symbols: int) -> list[float]:
    """Concatenated one-hot symbol blocks, the network input for ``string``."""
    out = [0.0] * (len(string) * symbols)
    for position, symbol in enumerate(string):
        out[position * symbols + int(symbol)] = 1.0
    return out


def decode_blocks(vector, symbols: int) -> tuple[int, ...] | None:
    """Inverse of ``one_hot_blocks``; None unless every block holds exactly one 1.0."""
    values = [float(v) for v in vector]
    if len(values) % symbols:
        return None
    out = []
    for start in range(0, len(values), symbols):
        block = values[start : start + symbols]
        if sorted(block) != [0.0] * (symbols - 1) + [1.0]:
            return None
        out.append(block.index(1.0))
    return tuple(out)


def state_bits(states: int) -> int:
    """Width of the little-endian binary state code (at least one bit)."""
    bits = 1
    while (1 << bits) < states:
        bits += 1
    return bits


def binary_code(index: int, bits: int) -> list[float]:
    return [float((index >> b) & 1) for b in range(bits)]


def unrolled_parameter_count(n: int, k: int, length: int) -> int:
    """Closed form of the unrolled acceptor's weight-plus-bias count, length >= 1.

    Module t (0-based) routes r = (T - t - 1) * k passthrough inputs. Its
    pair-match stage maps n + k + r inputs (k + r for t = 0, whose state
    enters through the bias) to n*k + r units; its next-state stage maps
    n*k + r inputs to n + r outputs. A 1 x n readout closes the chain.
    Summing over r = j*k for j = 0..T-1 gives the polynomial below.
    """
    s1 = k * length * (length - 1) // 2
    s2 = k * k * (length - 1) * length * (2 * length - 1) // 6
    per_module = n * k * (n + k + 1) + n * (n * k + 1)
    linear = 2 * n * k + 2 * n + k + 2
    first_module_state = n * (n * k + (length - 1) * k)
    return length * per_module + s1 * linear + 2 * s2 - first_module_state + n + 1


def min_pairwise_distance(columns: list[list[float]]) -> float:
    """Smallest Euclidean distance between any two of the given vectors."""
    best = math.inf
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            best = min(best, math.sqrt(sum((a - b) ** 2 for a, b in zip(columns[i], columns[j]))))
    return best


def is_anbn(string, pad: int) -> bool:
    """Whether ``string`` with trailing pads removed is a^n b^n with n >= 1 (a=0, b=1)."""
    core = list(string)
    while core and core[-1] == pad:
        core.pop()
    half = len(core) // 2
    return half >= 1 and len(core) == 2 * half and core == [0] * half + [1] * half
