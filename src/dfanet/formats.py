"""Structured text formats for automata and compiled networks.

Both formats are line-oriented, diffable, and round-trip exactly: automaton
documents reparse to the same named automaton, and network documents carry
weights as full-precision decimal (shortest round-trip repr), so a reloaded
network evaluates bit-identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .automata import Dfa
from .network import LayerSpec, NetworkSpec

NETWORK_FORMAT_HEADER = "dfanet-network-v1"


class DocumentError(ValueError):
    """Parse failure with a 1-based line (and, where known, column)."""

    def __init__(self, message: str, line: int, column: int | None = None):
        location = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{location}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class DfaDocument:
    """A DFA plus the human-readable names used in its text form."""

    dfa: Dfa
    state_names: tuple[str, ...]
    symbol_names: tuple[str, ...]

    @classmethod
    def from_dfa(cls, dfa: Dfa, state_names=None, symbol_names=None) -> "DfaDocument":
        states = tuple(state_names) if state_names else tuple(f"q{i}" for i in range(dfa.state_count))
        symbols = tuple(symbol_names) if symbol_names else tuple(str(j) for j in range(dfa.alphabet_size))
        if len(states) != dfa.state_count or len(symbols) != dfa.alphabet_size:
            raise ValueError("name lists must match the automaton's dimensions")
        return cls(dfa=dfa, state_names=states, symbol_names=symbols)


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Tokens with their 1-based column positions; '#' starts a comment."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"[^\s#]+", line.partition("#")[0])]


def parse_dfa_document(text: str) -> DfaDocument:
    """Parse the automaton text format.

    Sections: ``states:``, ``symbols:``, ``start:``, ``accept:`` (each on one
    line), then ``transitions:`` followed by one ``STATE SYMBOL -> STATE``
    line per table entry. The table must be total; a missing or duplicate
    entry is rejected with the offending (state, symbol) pair named.
    """
    lines = text.splitlines()
    sections: dict[str, tuple[list[tuple[str, int]], int]] = {}
    transition_lines: list[tuple[list[tuple[str, int]], int]] = []
    in_transitions = False
    for lineno, raw in enumerate(lines, start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        head, col = tokens[0]
        if head.endswith(":"):
            name = head[:-1]
            if name == "transitions":
                if tokens[1:]:
                    raise DocumentError("transitions entries start on the next line", lineno, tokens[1][1])
                in_transitions = True
                sections[name] = ([], lineno)
                continue
            if name in ("states", "symbols", "start", "accept"):
                if name in sections:
                    raise DocumentError(f"duplicate section {name!r}", lineno, col)
                sections[name] = (tokens[1:], lineno)
                in_transitions = False
                continue
            raise DocumentError(f"unknown section {head!r}", lineno, col)
        if in_transitions:
            transition_lines.append((tokens, lineno))
            continue
        raise DocumentError(f"unexpected token {head!r} outside any section", lineno, col)

    for required in ("states", "symbols", "start", "transitions"):
        if required not in sections:
            raise DocumentError(f"missing section {required!r}", len(lines) or 1)

    def names_of(section: str) -> tuple[dict[str, int], int]:
        tokens, lineno = sections[section]
        if not tokens:
            raise DocumentError(f"section {section!r} needs at least one name", lineno)
        table: dict[str, int] = {}
        for name, col in tokens:
            if name in table:
                raise DocumentError(f"duplicate {section[:-1]} name {name!r}", lineno, col)
            table[name] = len(table)
        return table, lineno

    state_index, _ = names_of("states")
    symbol_index, _ = names_of("symbols")

    start_tokens, start_line = sections["start"]
    if len(start_tokens) != 1:
        raise DocumentError("start takes exactly one state name", start_line)
    if start_tokens[0][0] not in state_index:
        raise DocumentError(f"unknown start state {start_tokens[0][0]!r}", start_line, start_tokens[0][1])
    start = state_index[start_tokens[0][0]]

    accepting: set[int] = set()
    if "accept" in sections:
        accept_tokens, accept_line = sections["accept"]
        for name, col in accept_tokens:
            if name not in state_index:
                raise DocumentError(f"unknown accepting state {name!r}", accept_line, col)
            accepting.add(state_index[name])

    n, k = len(state_index), len(symbol_index)
    table = -np.ones((n, k), dtype=np.int64)
    for tokens, lineno in transition_lines:
        if len(tokens) != 4 or tokens[2][0] != "->":
            raise DocumentError("expected 'STATE SYMBOL -> STATE'", lineno, tokens[0][1])
        (src, src_col), (sym, sym_col), _, (dst, dst_col) = tokens
        if src not in state_index:
            raise DocumentError(f"unknown state {src!r}", lineno, src_col)
        if sym not in symbol_index:
            raise DocumentError(f"unknown symbol {sym!r}", lineno, sym_col)
        if dst not in state_index:
            raise DocumentError(f"unknown state {dst!r}", lineno, dst_col)
        i, j = state_index[src], symbol_index[sym]
        if table[i, j] >= 0:
            raise DocumentError(f"duplicate transition for ({src!r}, {sym!r})", lineno, src_col)
        table[i, j] = state_index[dst]

    missing = np.argwhere(table < 0)
    if len(missing):
        i, j = missing[0]
        state_name = list(state_index)[int(i)]
        symbol_name = list(symbol_index)[int(j)]
        _, trans_line = sections["transitions"]
        raise DocumentError(
            f"transition table is partial: missing entry for ({state_name!r}, {symbol_name!r})",
            trans_line,
        )

    dfa = Dfa(
        state_count=n,
        alphabet_size=k,
        transitions=table,
        start_state=start,
        accepting=frozenset(accepting),
    )
    return DfaDocument(
        dfa=dfa,
        state_names=tuple(state_index),
        symbol_names=tuple(symbol_index),
    )


def format_dfa_document(doc: DfaDocument) -> str:
    """Canonical text rendering; parses back to an identical document."""
    dfa = doc.dfa
    lines = [
        "states: " + " ".join(doc.state_names),
        "symbols: " + " ".join(doc.symbol_names),
        "start: " + doc.state_names[dfa.start_state],
        "accept: " + " ".join(doc.state_names[q] for q in sorted(dfa.accepting)),
        "transitions:",
    ]
    for i, state in enumerate(doc.state_names):
        for j, symbol in enumerate(doc.symbol_names):
            lines.append(f"  {state} {symbol} -> {doc.state_names[int(dfa.transitions[i, j])]}")
    return "\n".join(lines) + "\n"


def _format_floats(values: np.ndarray) -> str:
    return " ".join(map(repr, values.tolist()))


def format_network_document(net: NetworkSpec) -> str:
    """Versioned text rendering with full-precision decimal weights."""
    lines = [NETWORK_FORMAT_HEADER]
    for key in sorted(net.metadata):
        lines.append(f"meta {key} {net.metadata[key]}")
    lines.append(f"input_dim {net.input_dim}")
    lines.append(f"output_dim {net.output_dim}")
    lines.append(f"layer_count {len(net.layers)}")
    for idx, layer in enumerate(net.layers):
        lines.append(f"layer {idx}")
        lines.append(f"activation {layer.activation}")
        if layer.activation == "step":
            lines.append(f"strict {'true' if layer.strict else 'false'}")
            lines.append("thresholds " + _format_floats(layer.thresholds))
        lines.append(f"shape {layer.output_dim} {layer.input_dim}")
        lines.append("weights")
        for row in range(layer.output_dim):
            if layer.input_dim:
                lines.append(_format_floats(layer.weights[row]))
        lines.append("bias " + _format_floats(layer.bias))
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> tuple[str, int]:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line and not line.startswith("#"):
                return line, self.pos
        raise DocumentError("unexpected end of document", len(self.lines) or 1)

    def expect(self, keyword: str) -> tuple[list[str], int]:
        line, lineno = self.next()
        parts = line.split()
        if parts[0] != keyword:
            raise DocumentError(f"expected {keyword!r}, found {parts[0]!r}", lineno, 1)
        return parts[1:], lineno


def _parse_meta_value(token: str):
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    if token in ("True", "False"):
        return token == "True"
    return token


def parse_network_document(text: str) -> NetworkSpec:
    """Parse the versioned network format emitted by format_network_document."""
    reader = _LineReader(text)
    header, lineno = reader.next()
    if header != NETWORK_FORMAT_HEADER:
        raise DocumentError(f"unsupported format header {header!r}", lineno, 1)

    metadata = {}
    line, lineno = reader.next()
    while line.startswith("meta "):
        parts = line.split(maxsplit=2)
        if len(parts) < 3:
            raise DocumentError("meta lines are 'meta KEY VALUE'", lineno)
        metadata[parts[1]] = _parse_meta_value(parts[2])
        line, lineno = reader.next()

    def take_int(parts: list[str], what: str, at: int) -> int:
        try:
            return int(parts[0])
        except (IndexError, ValueError):
            raise DocumentError(f"expected an integer {what}", at) from None

    parts = line.split()
    if parts[0] != "input_dim":
        raise DocumentError(f"expected 'input_dim', found {parts[0]!r}", lineno, 1)
    input_dim = take_int(parts[1:], "input_dim", lineno)
    tokens, at = reader.expect("output_dim")
    output_dim = take_int(tokens, "output_dim", at)
    tokens, at = reader.expect("layer_count")
    layer_count = take_int(tokens, "layer_count", at)

    def parse_floats(tokens: list[str], expected: int, at: int) -> np.ndarray:
        if len(tokens) != expected:
            raise DocumentError(f"expected {expected} values, found {len(tokens)}", at)
        try:
            return np.array([float(t) for t in tokens])
        except ValueError as exc:
            raise DocumentError(f"bad numeric literal: {exc}", at) from None

    layers = []
    for idx in range(layer_count):
        index_tokens, layer_line = reader.expect("layer")
        if take_int(index_tokens, "layer index", layer_line) != idx:
            raise DocumentError(f"layer blocks out of order (expected {idx})", layer_line)
        activation_tokens, at = reader.expect("activation")
        if not activation_tokens:
            raise DocumentError("activation name missing", at)
        activation = activation_tokens[0]
        strict = False
        thresholds = None
        if activation == "step":
            strict_tokens, at = reader.expect("strict")
            if strict_tokens[:1] not in (["true"], ["false"]):
                raise DocumentError("strict must be 'true' or 'false'", at)
            strict = strict_tokens[0] == "true"
            threshold_tokens, threshold_line = reader.expect("thresholds")
        dims, at = reader.expect("shape")
        if len(dims) != 2:
            raise DocumentError("shape takes output and input dims", at)
        out_dim = take_int(dims[:1], "output dim", at)
        in_dim = take_int(dims[1:], "input dim", at)
        if out_dim < 0 or in_dim < 0:
            raise DocumentError("shape dims must be non-negative", at)
        if activation == "step":
            thresholds = parse_floats(threshold_tokens, out_dim, threshold_line)
        reader.expect("weights")
        # rows are allocated as they are read, never from the declared shape alone
        rows = []
        if in_dim:
            for _ in range(out_dim):
                row_line, at = reader.next()
                rows.append(parse_floats(row_line.split(), in_dim, at))
        bias_tokens, at = reader.expect("bias")
        bias = parse_floats(bias_tokens, out_dim, at)
        try:
            layers.append(
                LayerSpec(
                    weights=np.array(rows).reshape(out_dim, in_dim),
                    bias=bias,
                    activation=activation,
                    thresholds=thresholds,
                    strict=strict,
                )
            )
        except ValueError as exc:
            raise DocumentError(f"layer {idx}: {exc}", layer_line) from None

    try:
        return NetworkSpec(
            layers=tuple(layers),
            input_dim=input_dim,
            output_dim=output_dim,
            metadata=metadata,
        )
    except ValueError as exc:
        raise DocumentError(f"inconsistent network document: {exc}", reader.pos) from None


def export_dot(doc: DfaDocument) -> str:
    """Directed-graph text rendering; accepting states are double circles.

    Emission order is fixed (states then transitions, in index order), so the
    output is deterministic for a given document.
    """
    dfa = doc.dfa
    lines = ["digraph dfa {", "  rankdir=LR;", '  __start [shape=point label=""];']
    for i, name in enumerate(doc.state_names):
        shape = "doublecircle" if i in dfa.accepting else "circle"
        lines.append(f'  "{name}" [shape={shape}];')
    lines.append(f'  __start -> "{doc.state_names[dfa.start_state]}";')
    for i, state in enumerate(doc.state_names):
        for j, symbol in enumerate(doc.symbol_names):
            target = doc.state_names[int(dfa.transitions[i, j])]
            lines.append(f'  "{state}" -> "{target}" [label="{symbol}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
