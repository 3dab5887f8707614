"""Structured text formats for automata and compiled networks.

Both formats are line-oriented, diffable, and round-trip exactly: automaton
documents reparse to the same named automaton, and network documents carry
weights as full-precision decimal (shortest round-trip repr), so a reloaded
network evaluates bit-identically.

Network documents are T^2-sized text for a T-step acceptor, and most of it is
the identity beside each layer's block that passes the unread symbol blocks
through. So both sides work a block at a time, and a tail at a time:

- The writer renders each distinct value of a layer once and joins its rows
  from those strings. A layer that knows the identity it was built beside
  (``network._beside_identity``) renders only its block and the bias above
  the identity that way; the zeros after each block row and bias, and the
  identity rows below, are copied from one string (``_identity_text``). A
  block or bias is rendered once per document: the T transition modules of
  an acceptor share theirs. The bytes are those of the dense rendering.
- The reader takes lines as it needs them, skipping blank and comment lines.
  Every weights block has one fast path: the rows above the canonical
  identity text that ends it, if any, are tokenized less its zeros in one
  ``np.loadtxt`` call, once per distinct shape and text in the document, and
  a layer with such a tail is rebuilt beside the identity; of a bias that
  ends in the writer's zeros, only the values above them are read. Only when
  that path refuses the block does the reader re-read the rows one by one
  with ``float()``: that loop names the bad line, and it accepts exactly what
  ``float()`` accepts, ``1_0`` and non-ASCII digits included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .automata import Dfa
from .network import LayerSpec, NetworkSpec, _beside_identity

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


def _format_rows(values: np.ndarray) -> list[str]:
    """Each row of a float matrix as its values' reprs, space-separated.

    Each distinct value, told apart by its bits so that ``-0.0`` keeps its
    sign, is rendered once; ``searchsorted`` maps every entry to its string.
    """
    bits = values.view(np.int64)
    # sorted distinct bits, as np.unique gives them; its first call imports numpy.ma (1.7 MB resident)
    ordered = np.sort(bits, axis=None)
    first = np.ones(ordered.shape, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    reprs = np.array([repr(value) for value in distinct.view(np.float64).tolist()], dtype=object)
    return list(map(" ".join, reprs[np.searchsorted(distinct, bits)].tolist()))


def _identity_text(width: int) -> str:
    """Every identity row of a ``width``-column layer, overlapping: the row with
    ``m`` zeros after its ``1.0`` is the ``4 * width - 1`` characters from ``4 * m``."""
    return "0.0 " * (width - 1) + "1.0" + " 0.0" * (width - 1)


def _weight_rows(layer: LayerSpec, rendered) -> list[str]:
    """The rows of ``layer.weights``; a known identity tail is copied as text, not rendered.

    ``rendered`` gives the rows of the block above the tail (``_format_rows``).
    """
    tail = layer._tail
    rows, cols = layer.output_dim - tail, layer.input_dim - tail
    zeros = " 0.0" * tail
    block = [row + zeros for row in rendered(layer.weights[:rows, :cols])] if cols else [zeros[1:]] * rows
    identity, width = _identity_text(layer.input_dim), 4 * layer.input_dim - 1
    return block + [identity[4 * m:4 * m + width] for m in range(tail - 1, -1, -1)]


def format_network_document(net: NetworkSpec) -> str:
    """Versioned text rendering with full-precision decimal weights.

    Every value is written as its shortest round-trip ``repr``. Each layer's
    distinct values are rendered once and its rows joined from those strings.
    A layer built beside an identity has only its block rendered; its
    identity rows, and the zeros that end the rows above them and its bias,
    are copied from one string. A block or bias equal in shape and bytes to
    one already written (a later transition module's) reuses that one's
    rows. The bytes are the dense rendering's either way.
    """
    memo: dict[tuple, list[str]] = {}

    def rendered(values: np.ndarray) -> list[str]:
        # bytes, not values, so that -0.0 and 0.0, or two nans, stay apart
        key = (values.shape, values.tobytes())
        if key not in memo:
            memo[key] = _format_rows(values)
        return memo[key]

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
            lines.append("thresholds " + rendered(layer.thresholds[None])[0])
        lines.append(f"shape {layer.output_dim} {layer.input_dim}")
        lines.append("weights")
        if layer.input_dim:
            lines.extend(_weight_rows(layer, rendered))
        # the identity's bias is zeros, copied as text like its rows; a rendered value is never empty
        head, zeros = rendered(layer.bias[None, :layer.output_dim - layer._tail])[0], " 0.0" * layer._tail
        lines.append("bias " + (head + zeros if head else zeros[1:]))
    return "\n".join(lines) + "\n"


class _LineReader:
    """The document's lines, taken one at a time as the parser asks for them.

    Blank and comment lines are skipped, and a line is stripped only when it
    is read. Each line keeps its 1-based number for errors, and the raw line
    count names the end of the document.
    """

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.line = 0  # the 1-based number of the last line read, so the index of the next
        # read_weights' blocks by shape and prefix text, None where refused; shared, so read-only
        self.blocks: dict[tuple, np.ndarray | None] = {}

    def next(self) -> tuple[str, int]:
        lines = self.lines
        while self.line < len(lines):
            line = lines[self.line].strip()
            self.line += 1
            if line and not line.startswith("#"):
                return line, self.line
        raise DocumentError("unexpected end of document", len(lines) or 1)

    def expect(self, keyword: str) -> tuple[list[str], int]:
        line, lineno = self.next()
        parts = line.split()
        if parts[0] != keyword:
            raise DocumentError(f"expected {keyword!r}, found {parts[0]!r}", lineno, 1)
        return parts[1:], lineno

    def read_weights(self, out_dim: int, in_dim: int, tailed: bool) -> tuple[np.ndarray, int] | None:
        """The next ``out_dim`` raw lines as a block beside a ``tail``-wide identity, or None.

        With ``tailed``, the tail is the longest run of canonical identity rows
        (``_identity_text``) that ends the block and leaves every row above
        ending in ``tail`` entries ``" 0.0"``; whole rows are compared, so a
        comment never counts. Otherwise, or with no such run, it is 0. The rows
        above the tail, less its zeros, are tokenized in one ``np.loadtxt`` call,
        once per distinct shape and text in the document: the block returned
        may be the one an earlier layer got, so it is read-only.

        On None the caller reads the rows one by one as ``next`` gives them and
        names the bad line. So this refuses a row that ``next`` would skip or
        strip (empty, or starting or ending with whitespace; a comment fails
        ``loadtxt``), no lines at all (``loadtxt`` warns), a short block, and a
        block ``loadtxt`` refuses. Every literal ``loadtxt`` accepts has the
        bits ``float()`` gives it, so what this accepts, the loop reads alike.
        """
        rows = self.lines[self.line:self.line + out_dim]
        if not (out_dim and in_dim) or len(rows) < out_dim:
            return None
        tail, width = 0, 4 * in_dim - 1
        # a last row of that length also bounds the identity text by the document's size
        if tailed and len(rows[-1]) == width:
            identity, most = _identity_text(in_dim), min(out_dim, in_dim)
            while tail < most and len(rows[-1 - tail]) == width and identity.startswith(rows[-1 - tail], 4 * tail):
                tail += 1
        zeros = " 0.0" * tail
        for row in rows[:out_dim - tail]:
            if not row or row[0].isspace() or row[-1].isspace():
                return None
            # the rows above the tail end in its zeros; a block of no columns is those zeros alone
            while tail and not (row.endswith(zeros) if tail < in_dim else row == zeros[1:]):
                tail -= 1
                zeros = zeros[4:]
        shape = (out_dim - tail, in_dim - tail)
        prefixes = [row[:len(row) - 4 * tail] for row in rows[:out_dim - tail]]
        # no row holds a line break, so the text tells blocks of one shape apart; the shape is
        # in the key because blocks of no rows or no columns share their text
        key = (shape, "\n".join(prefixes))
        if key not in self.blocks:
            self.blocks[key] = _loaded(prefixes, shape)
        if self.blocks[key] is None:
            return None
        self.line += out_dim
        return self.blocks[key], tail


def _loaded(prefixes: list[str], shape: tuple[int, int]) -> np.ndarray | None:
    """``prefixes`` tokenized in one ``np.loadtxt`` call as a read-only ``shape`` block; None if refused."""
    try:
        block = np.loadtxt(prefixes, ndmin=2, comments=None) if all(shape) else np.zeros(shape)
    except ValueError:
        return None
    if block.shape != shape:
        return None
    block.flags.writeable = False
    return block


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
    """Parse the versioned network format emitted by format_network_document.

    Blank lines and lines starting with ``#`` are skipped anywhere. A value is
    any literal ``float()`` accepts, and rows split on whitespace. Each
    weights block is read in one call. When the block of a layer other than a
    step layer ends in the writer's identity text, only the rows above it are
    tokenized, and the layer is rebuilt beside that identity: it keeps the
    tail it was written with, or a wider one where the block's last rows and
    columns extend it. If that call refuses the block, the rows are read one
    at a time, and the first bad one is named by its line.
    """
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
        # rows come only from lines present, never from the declared shape alone
        weights, tail = reader.read_weights(out_dim, in_dim, activation != "step") or (None, 0)
        if weights is None:
            rows = []
            if in_dim:
                for _ in range(out_dim):
                    row_line, at = reader.next()
                    rows.append(parse_floats(row_line.split(), in_dim, at))
            weights = np.array(rows).reshape(out_dim, in_dim)
        bias_tokens, at = reader.expect("bias")
        # the writer's zeros under the identity are +0.0, so only the tokens above them are read
        written = tail > 0 and len(bias_tokens) == out_dim and bias_tokens[out_dim - tail:].count("0.0") == tail
        if written:
            bias = parse_floats(bias_tokens[:out_dim - tail], out_dim - tail, at)
        else:
            bias = parse_floats(bias_tokens, out_dim, at)
        try:
            if tail:
                keep = tail
                if not written:
                    # the identity's rows need a +0.0 bias; rows above the bias's zeros rejoin the block
                    bits = bias[out_dim - tail:].view(np.int64)  # +0.0 alone has no bit set
                    keep = tail - int(np.flatnonzero(bits)[-1]) - 1 if bits.any() else tail
                if keep < tail:
                    weights = _beside_identity(weights, np.zeros(len(weights)), tail - keep, "identity").weights
                layers.append(_beside_identity(weights, bias[:out_dim - keep], keep, activation))
            else:
                layers.append(
                    LayerSpec(
                        weights=weights,
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
        raise DocumentError(f"inconsistent network document: {exc}", reader.line) from None


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
