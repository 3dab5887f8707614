"""Deterministic vector encodings of states, symbols, and strings.

All vectors are double precision. The values produced here (zeros and ones)
are exactly representable, so the compiled networks' exactness claims survive
floating point.

``transition_table`` lays out an automaton's (state, symbol) pairs over a
state code: the paper's Lemma 1 over one-hot codes and Lemma 2 over binary
ones. Every compiled transition layer and both transition datasets read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import Dfa, SymbolString


def one_hot(index: int, dim: int) -> np.ndarray:
    """Standard basis vector e_index in R^dim."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range [0, {dim})")
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def binary_code(index: int, bits: int) -> np.ndarray:
    """Little-endian base-2 code of ``index``, padded to ``bits`` entries."""
    if bits < 1:
        raise ValueError("bits must be positive")
    if not 0 <= index < (1 << bits):
        raise ValueError(f"index {index} does not fit in {bits} bits")
    return np.array([(index >> b) & 1 for b in range(bits)], dtype=float)


def bits_for_state_count(n: int) -> int:
    """Width of the binary state code: ceil(log2 n), but at least 1."""
    if n < 1:
        raise ValueError("state count must be positive")
    return max(1, (n - 1).bit_length())


@dataclass(frozen=True)
class StateEncoding:
    """Mapping from state indices to vectors; ``codes[i]`` encodes state i."""

    kind: str  # "one-hot" | "binary"
    dim: int
    codes: np.ndarray

    def __post_init__(self) -> None:
        codes = np.array(self.codes, dtype=float)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)


def one_hot_state_encoding(n: int) -> StateEncoding:
    if n < 1:
        raise ValueError("state count must be positive")
    return StateEncoding(kind="one-hot", dim=n, codes=np.eye(n))


def binary_state_encoding(n: int) -> StateEncoding:
    d = bits_for_state_count(n)
    codes = np.stack([binary_code(i, d) for i in range(n)])
    return StateEncoding(kind="binary", dim=d, codes=codes)


def transition_table(dfa: Dfa, encoding: StateEncoding) -> tuple[np.ndarray, np.ndarray]:
    """The (state, symbol) pairs of ``dfa`` over ``encoding``, and their successors.

    Row i*k + j of ``pairs`` is [codes[i]; u_j], of shape (n*k, dim + k); the
    same row of ``successors`` is the code of state i's successor on symbol j.
    """
    k = dfa.alphabet_size
    symbols = np.tile(np.eye(k), (dfa.state_count, 1))
    pairs = np.concatenate([np.repeat(encoding.codes, k, axis=0), symbols], axis=1)
    return pairs, encoding.codes[dfa.transitions.ravel()]


@dataclass(frozen=True)
class EncodedString:
    """A string as concatenated one-hot symbol blocks, flattened to length T*k."""

    data: np.ndarray
    length: int
    alphabet_size: int


def encode_string(x: SymbolString, alphabet_size: int) -> EncodedString:
    """Concatenate one-hot blocks, one per symbol, left to right."""
    symbols = [int(s) for s in x]
    if any(not 0 <= s < alphabet_size for s in symbols):
        raise ValueError("symbol index out of range for the alphabet")
    data = np.zeros(len(symbols) * alphabet_size)
    for t, s in enumerate(symbols):
        data[t * alphabet_size + s] = 1.0
    return EncodedString(data=data, length=len(symbols), alphabet_size=alphabet_size)


def encode_strings(strings: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Batch version: ``(count, T)`` symbol matrix to ``(count, T*k)`` blocks."""
    strings = np.asarray(strings, dtype=np.int64)
    count, length = strings.shape
    if strings.size and (strings.min() < 0 or strings.max() >= alphabet_size):
        raise ValueError("symbol index out of range for the alphabet")
    return np.eye(alphabet_size)[strings].reshape(count, length * alphabet_size)


def decode_string(encoded: EncodedString | np.ndarray, alphabet_size: int | None = None) -> tuple[int, ...]:
    """Recover the symbol sequence from the argmax of each one-hot block."""
    if isinstance(encoded, EncodedString):
        data, k = encoded.data, encoded.alphabet_size
    else:
        data, k = np.asarray(encoded), alphabet_size
        if k is None:
            raise ValueError("alphabet_size required when decoding a raw vector")
    if data.size % k:
        raise ValueError("vector length is not a multiple of the alphabet size")
    return tuple(int(i) for i in data.reshape(-1, k).argmax(axis=1))
