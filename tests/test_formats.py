import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tailed_layers
from test_network import reference_passthrough_width
from dfanet import formats
from dfanet.automata import make_mod_counter_dfa, make_parity_dfa, random_dfa
from dfanet.cli import COMPILE_TARGETS, main
from dfanet.compiler import (
    build_binary_threshold_network,
    build_compressed_embedding,
    build_embedding_head,
    build_transition_layer,
    build_unrolled_acceptor,
)
from dfanet.encodings import encode_strings
from dfanet.formats import (
    NETWORK_FORMAT_HEADER,
    DfaDocument,
    DocumentError,
    _LineReader,
    _tokenize,
    export_dot,
    format_dfa_document,
    format_network_document,
    parse_dfa_document,
    parse_network_document,
)
from dfanet.network import LayerSpec, NetworkSpec, _beside_identity, forward_batch
from dfanet.nn import TrainableMlp, UnrolledNet

PARITY_TEXT = """\
# even parity
states: even odd
symbols: 0 1
start: even
accept: even
transitions:
  even 0 -> even
  even 1 -> odd
  odd 0 -> odd
  odd 1 -> even
"""


def test_parse_parity_document():
    doc = parse_dfa_document(PARITY_TEXT)
    assert doc.state_names == ("even", "odd")
    assert doc.symbol_names == ("0", "1")
    assert doc.dfa.start_state == 0
    assert doc.dfa.accepting == frozenset({0})
    assert doc.dfa.transitions.tolist() == [[0, 1], [1, 0]]


def test_dfa_document_round_trip():
    doc = parse_dfa_document(PARITY_TEXT)
    text = format_dfa_document(doc)
    again = parse_dfa_document(text)
    assert again.state_names == doc.state_names
    assert again.symbol_names == doc.symbol_names
    assert np.array_equal(again.dfa.transitions, doc.dfa.transitions)
    assert again.dfa.accepting == doc.dfa.accepting
    assert again.dfa.start_state == doc.dfa.start_state
    # canonical form is a fixed point
    assert format_dfa_document(again) == text


def test_parse_rejects_partial_table_with_named_pair():
    text = PARITY_TEXT.replace("  odd 1 -> even\n", "")
    with pytest.raises(DocumentError) as excinfo:
        parse_dfa_document(text)
    assert "'odd'" in str(excinfo.value) and "'1'" in str(excinfo.value)


def test_parse_rejects_duplicate_transition():
    text = PARITY_TEXT + "  odd 1 -> odd\n"
    with pytest.raises(DocumentError) as excinfo:
        parse_dfa_document(text)
    assert "duplicate transition" in str(excinfo.value)
    assert excinfo.value.line == 11


def test_parse_rejects_unknown_names_with_position():
    text = PARITY_TEXT.replace("start: even", "start: ven")
    with pytest.raises(DocumentError) as excinfo:
        parse_dfa_document(text)
    assert excinfo.value.line == 4 and excinfo.value.column == 8

    text = PARITY_TEXT.replace("  odd 1 -> even", "  odd 2 -> even")
    with pytest.raises(DocumentError) as excinfo:
        parse_dfa_document(text)
    assert "unknown symbol '2'" in str(excinfo.value)


def test_parse_rejects_missing_sections():
    with pytest.raises(DocumentError) as excinfo:
        parse_dfa_document("states: a\nsymbols: x\ntransitions:\n  a x -> a\n")
    assert "missing section 'start'" in str(excinfo.value)


def test_parse_rejects_malformed_transition_line():
    text = PARITY_TEXT.replace("  even 0 -> even", "  even 0 even")
    with pytest.raises(DocumentError) as excinfo:
        parse_dfa_document(text)
    assert "STATE SYMBOL -> STATE" in str(excinfo.value)


def test_parse_rejects_duplicate_names():
    text = PARITY_TEXT.replace("states: even odd", "states: even even")
    with pytest.raises(DocumentError) as excinfo:
        parse_dfa_document(text)
    assert "duplicate" in str(excinfo.value)


def test_empty_accept_section_is_valid():
    text = PARITY_TEXT.replace("accept: even", "accept:")
    doc = parse_dfa_document(text)
    assert doc.dfa.accepting == frozenset()


@pytest.mark.parametrize(
    "line,tokens",
    [
        ("\teven 1 -> odd", [("even", 2), ("1", 7), ("->", 9), ("odd", 12)]),
        ("q0#x", [("q0", 1)]),
        ("start: q0  # the initial state", [("start:", 1), ("q0", 8)]),
        ("states:\u3000a b", [("states:", 1), ("a", 9), ("b", 11)]),
    ],
)
def test_tokenize_gives_tokens_and_their_columns(line, tokens):
    assert _tokenize(line) == tokens


def test_from_dfa_default_names():
    doc = DfaDocument.from_dfa(make_mod_counter_dfa(3))
    assert doc.state_names == ("q0", "q1", "q2")
    assert doc.symbol_names == ("0", "1")
    round_trip = parse_dfa_document(format_dfa_document(doc))
    assert np.array_equal(round_trip.dfa.transitions, doc.dfa.transitions)


@pytest.mark.parametrize(
    "net_builder",
    [
        lambda: build_unrolled_acceptor(make_parity_dfa(), 3),
        lambda: build_unrolled_acceptor(make_parity_dfa(), 0),
        lambda: build_transition_layer(random_dfa(5, 3, seed=2)),
        lambda: build_binary_threshold_network(make_mod_counter_dfa(8)),
    ],
)
def test_network_round_trip_bit_exact(net_builder):
    net = net_builder()
    text = format_network_document(net)
    loaded = parse_network_document(text)
    assert loaded.input_dim == net.input_dim
    assert loaded.output_dim == net.output_dim
    assert loaded.metadata == net.metadata
    assert len(loaded.layers) == len(net.layers)
    for a, b in zip(loaded.layers, net.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation
        assert a.strict == b.strict
        if a.thresholds is not None:
            assert np.array_equal(a.thresholds, b.thresholds)


def test_network_round_trip_preserves_evaluation():
    net = build_unrolled_acceptor(make_parity_dfa(), 4)
    loaded = parse_network_document(format_network_document(net))
    rng = np.random.default_rng(0)
    strings = rng.integers(0, 2, size=(50, 4))
    inputs = encode_strings(strings, 2)
    assert np.array_equal(forward_batch(net, inputs), forward_batch(loaded, inputs))


@pytest.mark.parametrize("family", ["unrolled", "mlp"])
def test_a_trained_export_round_trips_to_the_same_output_bytes(family):
    rng = np.random.default_rng(1)
    if family == "unrolled":
        model = UnrolledNet(3, 2, 4, 0, [4, 1], ["relu", "sigmoid"], seed=2, hidden_width=5)
    else:
        model = TrainableMlp([8, 5, 2], ["relu", "sigmoid"], seed=2)
    for param in model.parameters:  # awkward doubles, off the init's zeroed last layer
        param[...] = rng.normal(size=param.shape)
    net = model.to_network()
    loaded = parse_network_document(format_network_document(net))
    assert loaded.metadata == net.metadata == {"construction": f"trained-{family}"}
    inputs = encode_strings(rng.integers(0, 2, size=(50, 4)), 2)
    assert forward_batch(loaded, inputs).tobytes() == forward_batch(net, inputs).tobytes()


def test_network_round_trip_full_precision():
    # an awkward double must survive the text round trip bit for bit
    from dfanet.network import LayerSpec, NetworkSpec

    value = 0.1 + 0.2  # 0.30000000000000004
    layer = LayerSpec(weights=np.array([[value]]), bias=np.array([1 / 3]), activation="identity")
    net = NetworkSpec(layers=(layer,), input_dim=1, output_dim=1)
    loaded = parse_network_document(format_network_document(net))
    assert loaded.layers[0].weights[0, 0].hex() == np.float64(value).hex()
    assert loaded.layers[0].bias[0].hex() == np.float64(1 / 3).hex()


def reference_network_document(net):
    """The network document written value by value, each with its own ``repr``."""
    def floats(values):
        return " ".join(repr(float(value)) for value in values)

    lines = [NETWORK_FORMAT_HEADER]
    lines += [f"meta {key} {net.metadata[key]}" for key in sorted(net.metadata)]
    lines += [f"input_dim {net.input_dim}", f"output_dim {net.output_dim}", f"layer_count {len(net.layers)}"]
    for idx, layer in enumerate(net.layers):
        lines += [f"layer {idx}", f"activation {layer.activation}"]
        if layer.activation == "step":
            lines += [f"strict {'true' if layer.strict else 'false'}", "thresholds " + floats(layer.thresholds)]
        lines += [f"shape {layer.output_dim} {layer.input_dim}", "weights"]
        if layer.input_dim:
            lines += [floats(row) for row in layer.weights]
        lines.append("bias " + floats(layer.bias))
    return "\n".join(lines) + "\n"


# -0.0, ±inf, nan, subnormals and arbitrary doubles, with repeats so that rows share values
DOUBLES = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308]),
)


@st.composite
def float_networks(draw):
    def values(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(DOUBLES, min_size=size, max_size=size)), dtype=float).reshape(shape)

    dims = draw(st.lists(st.integers(0, 4), min_size=2, max_size=4))
    layers = []
    for in_dim, out_dim in zip(dims, dims[1:]):
        activation = draw(st.sampled_from(["relu", "sigmoid", "identity", "step"]))
        step = activation == "step"
        layers.append(LayerSpec(weights=values(out_dim, in_dim), bias=values(out_dim), activation=activation,
                                thresholds=values(out_dim) if step else None, strict=step and draw(st.booleans())))
    metadata = draw(st.dictionaries(st.sampled_from(["construction", "length"]), st.integers(0, 99)))
    return NetworkSpec(layers=tuple(layers), input_dim=dims[0], output_dim=dims[-1], metadata=metadata)


def same_bits(a, b):
    """Equal shapes and bytes, with every nan taken as the same nan."""
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=300, deadline=None)
@given(float_networks())
def test_network_writer_matches_per_value_repr(net):
    text = format_network_document(net)
    assert text == reference_network_document(net)
    loaded = parse_network_document(text)
    assert loaded.metadata == net.metadata
    for a, b in zip(loaded.layers, net.layers, strict=True):
        assert (a.activation, a.strict) == (b.activation, b.strict)
        assert same_bits(a.weights, b.weights) and same_bits(a.bias, b.bias)
        assert (a.thresholds is None and b.thresholds is None) or same_bits(a.thresholds, b.thresholds)


@st.composite
def tailed_networks(draw):
    """A chain of layers ``_beside_identity`` built, each beside its own drawn tail."""
    width, layers = draw(st.integers(0, 6)), []
    for _ in range(draw(st.integers(1, 3))):
        tail = draw(st.integers(0, width))
        layers.append(draw(tailed_layers(cols=width - tail, tail=tail)))
        width = layers[-1].output_dim
    return NetworkSpec(layers=tuple(layers), input_dim=layers[0].input_dim, output_dim=width)


@settings(max_examples=300, deadline=None)
@given(tailed_networks())
def test_a_known_tail_is_written_as_the_dense_rendering(net):
    plain = dataclasses.replace(net, layers=tuple(dataclasses.replace(layer) for layer in net.layers))
    assert not any(layer._tail for layer in plain.layers)
    assert format_network_document(net) == format_network_document(plain) == reference_network_document(net)


@settings(max_examples=300, deadline=None)
@given(tailed_networks())
def test_a_written_tail_is_read_back_beside_its_identity(net):
    loaded = parse_network_document(format_network_document(net))
    for a, b in zip(loaded.layers, net.layers, strict=True):
        assert a.activation == b.activation
        assert same_bits(a.weights, b.weights) and same_bits(a.bias, b.bias)
        assert a.passthrough_width == b.passthrough_width == reference_passthrough_width(a)
        # a 1.0 in the block's corner may extend the identity, and the text cannot tell where it began
        rows, cols = b.output_dim - b._tail, b.input_dim - b._tail
        assert a._tail >= b._tail if rows and cols and b.weights[rows - 1, cols - 1] == 1.0 else a._tail == b._tail


def weights_blocks(lines):
    """The line indices of each layer's weights rows."""
    blocks, inside = [], False
    for i, line in enumerate(lines):
        if line == "weights":
            blocks.append([])
            inside = True
        elif line.startswith("bias"):
            inside = False
        elif inside:
            blocks[-1].append(i)
    return blocks


@pytest.mark.parametrize("written,respelt", [("0.0", "0"), ("0.0", "-0.0"), ("1.0", "1.00")])
@pytest.mark.parametrize("where", ["every row", "one identity row"])
def test_a_tail_written_in_other_words_is_read_as_written(written, respelt, where):
    net = build_unrolled_acceptor(make_mod_counter_dfa(3), 3)
    lines = format_network_document(net).splitlines()
    blocks = weights_blocks(lines)
    for i in [i for block in blocks for i in block] if where == "every row" else [blocks[0][-net.layers[0]._tail]]:
        lines[i] = " ".join(respelt if value == written else value for value in lines[i].split(" "))
    loaded = parse_network_document("\n".join(lines) + "\n")
    for a, b, block in zip(loaded.layers, net.layers, blocks, strict=True):
        want = np.array([[float(value) for value in lines[i].split()] for i in block])
        assert a.weights.tobytes() == want.reshape(a.weights.shape).tobytes()
        assert a.passthrough_width == b.passthrough_width == reference_passthrough_width(a)
    if where == "every row":  # no row is the writer's identity text, so every block is read whole
        assert not any(layer._tail for layer in loaded.layers)
    else:  # the respelt row joins the block, and so do the rows below it when it ends in respelt zeros
        assert loaded.layers[0]._tail == (net.layers[0]._tail - 1 if written == "1.0" else 0)
        assert [a._tail for a in loaded.layers[1:]] == [b._tail for b in net.layers[1:]]


@pytest.mark.parametrize("dfa", [make_parity_dfa(), make_mod_counter_dfa(5), random_dfa(3, 3, seed=1)],
                         ids=["parity", "mod-5", "random3x3"])
def test_no_weights_row_of_a_compiled_document_is_read_one_by_one(dfa, tmp_path, monkeypatch):
    """Every weights block ``dfanet compile`` writes takes the one-call path, never the row loop.

    The row loop takes each row through ``_LineReader.next``, so the lines
    ``next`` returns are recorded and must hold no weights row. The golden
    digests cannot see a guard that sends the writer's blocks to that loop:
    its result is the same, only slower.
    """
    taken, next_line = [], _LineReader.next

    def recorded(self):
        line = next_line(self)
        taken.append(line[1])
        return line

    monkeypatch.setattr(_LineReader, "next", recorded)
    dfa_path, net_path = tmp_path / "a.dfa", tmp_path / "a.net"
    dfa_path.write_text(format_dfa_document(DfaDocument.from_dfa(dfa)))
    checked = 0
    for target in COMPILE_TARGETS:
        for length in (0, 1, 20) if target in ("unrolled", "embedding", "compressed") else (None,):
            argv = ["compile", str(dfa_path), "--target", target, "--out", str(net_path)]
            assert main(argv + ([] if length is None else ["--length", str(length)])) == 0
            text = net_path.read_text()
            taken.clear()
            assert format_network_document(parse_network_document(text)) == text
            rows = {i + 1 for block in weights_blocks(text.splitlines()) for i in block}
            assert not rows & set(taken), (target, length)
            checked += len(rows)
    assert checked > 1000


@pytest.mark.parametrize("rows,text", [([4], "0.0 0.0"), ([0, 1, 2, 3], "  0.0 0.0")],
                         ids=["a cut identity row", "block rows of blank prefixes"])
def test_a_short_row_beside_a_tail_is_named_by_its_line(rows, text):
    # layer 0 of the parity acceptor at T=2: 4 pair rows, then 2 identity rows, 4 values each
    lines = format_network_document(build_unrolled_acceptor(make_parity_dfa(), 2)).splitlines()
    block = weights_blocks(lines)[0]
    for i in rows:
        lines[block[i]] = text
    with pytest.raises(DocumentError, match="expected 4 values, found 2") as excinfo:
        parse_network_document("\n".join(lines) + "\n")
    assert excinfo.value.line == block[rows[0]] + 1


@pytest.mark.parametrize("respell", [
    lambda row: ["", row],
    lambda row: ["# a comment", row],
    lambda row: [" " + row],
    lambda row: [row + "\t"],
], ids=["blank before", "comment before", "indented", "trailing tab"])
@pytest.mark.parametrize("net", [build_unrolled_acceptor(make_parity_dfa(), 2), build_transition_layer(random_dfa(3, 3, seed=2))],
                         ids=["acceptor", "transition"])
def test_padded_or_interleaved_weights_rows_read_plainly(net, respell):
    """Rows behind a blank or comment line, or padded with whitespace, read as the plain rows.

    The one-call path reads raw lines, so it leaves such blocks to the row
    loop. The acceptor's readout block is one row: behind a blank line, the raw
    block is that blank line alone, on which ``loadtxt`` would warn.
    """
    text = format_network_document(net)
    lines = text.splitlines()
    rows = {i for block in weights_blocks(lines) for i in block}
    respelt = [new for i, line in enumerate(lines) for new in (respell(line) if i in rows else [line])]
    loaded = parse_network_document("\n".join(respelt) + "\n")
    for a, b in zip(loaded.layers, parse_network_document(text).layers, strict=True):
        assert (a.activation, a.passthrough_width) == (b.activation, b.passthrough_width)
        assert a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()


@pytest.mark.parametrize("target", ["unrolled", "embedding", "compressed"])
def test_writing_and_reading_a_document_does_no_more_work_at_a_greater_length(target, monkeypatch):
    """Every transition module of an acceptor holds the same blocks, so each is rendered and tokenized once.

    The calls are counted, not timed: at T=40 a document has eight times the
    modules of one at T=5, and the same count of ``_format_rows`` and
    ``np.loadtxt`` calls.
    """
    dfa = make_mod_counter_dfa(5)
    projection, _ = build_compressed_embedding(dfa, epsilon=0.1, seed=0)
    builders = {"unrolled": build_unrolled_acceptor, "embedding": build_embedding_head,
                "compressed": lambda dfa, length: build_embedding_head(dfa, length, head=projection)}
    calls = Counter()

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(formats, "_format_rows", counted("render", formats._format_rows))
    monkeypatch.setattr(np, "loadtxt", counted("tokenize", np.loadtxt))
    counts = []
    for length in (5, 40):
        net = builders[target](dfa, length)
        calls.clear()
        loaded = parse_network_document(format_network_document(net))
        assert all(a.weights.tobytes() == b.weights.tobytes() for a, b in zip(loaded.layers, net.layers, strict=True))
        counts.append(dict(calls))
    assert counts[0] == counts[1] and counts[0]["render"] and counts[0]["tokenize"]


def read_alone(layer):
    """``layer`` written and read back in a document of its own, so that it shares no block with another layer."""
    net = NetworkSpec(layers=(layer,), input_dim=layer.input_dim, output_dim=layer.output_dim)
    return parse_network_document(format_network_document(net)).layers[0]


VALUES = np.arange(6.0) + 0.5
NEGATIVE_ZEROS, ZEROS = np.array([[0.0, 1.0], [2.0, -0.0]]), np.array([[-0.0, 1.0], [2.0, 0.0]])
SHARING_LAYERS = {  # chains whose blocks or biases share bytes or text without being equal
    "equal bytes, other shapes": [
        LayerSpec(weights=VALUES.reshape(3, 2), bias=VALUES[:3], activation="relu"),
        LayerSpec(weights=VALUES.reshape(2, 3), bias=VALUES[:2], activation="relu"),
        _beside_identity(VALUES.reshape(6, 1), VALUES, 1, "relu"),
        _beside_identity(VALUES.reshape(2, 3), VALUES[:2], 4, "relu"),
        _beside_identity(VALUES.reshape(3, 2), VALUES[:3], 4, "identity"),
    ],
    "no rows or no columns, other tails": [
        _beside_identity(np.zeros((2, 0)), np.array([1.0, 2.0]), 3, "relu"),
        _beside_identity(np.zeros((0, 2)), np.zeros(0), 3, "relu"),
        _beside_identity(np.zeros((0, 1)), np.zeros(0), 2, "identity"),
        _beside_identity(np.zeros((1, 0)), np.array([1.0]), 2, "identity"),
        _beside_identity(np.zeros((0, 0)), np.zeros(0), 3, "relu"),
        _beside_identity(np.zeros((2, 0)), np.array([1.0, 2.0]), 3, "relu"),
        _beside_identity(np.zeros((0, 3)), np.zeros(0), 2, "relu"),
        LayerSpec(weights=np.zeros((0, 2)), bias=np.zeros(0), activation="relu"),
        LayerSpec(weights=np.zeros((1, 0)), bias=np.ones(1), activation="identity"),
    ],
    "a zero's sign": [
        _beside_identity(NEGATIVE_ZEROS, np.array([0.0, -0.0]), 1, "relu"),
        _beside_identity(ZEROS, np.array([-0.0, 0.0]), 1, "relu"),
        _beside_identity(NEGATIVE_ZEROS, np.array([0.0, -0.0]), 1, "relu"),
        LayerSpec(weights=np.array([[0.0, -0.0, 1.0]] * 3), bias=np.array([-0.0, 0.0, 0.0]), activation="relu"),
        LayerSpec(weights=np.array([[-0.0, 0.0, 1.0]] * 3), bias=np.array([0.0, -0.0, 0.0]), activation="relu"),
        _beside_identity(np.zeros((1, 0)), np.array([-0.0]), 3, "identity"),
        _beside_identity(np.zeros((0, 1)), np.zeros(0), 3, "identity"),
        _beside_identity(np.zeros((1, 0)), np.array([0.0]), 3, "identity"),
    ],
}


@pytest.mark.parametrize("layers", SHARING_LAYERS.values(), ids=SHARING_LAYERS)
def test_layers_that_share_bytes_or_text_are_each_read_as_alone(layers):
    """Blocks are rendered and tokenized once per document, keyed so that none of these is taken for another."""
    net = NetworkSpec(layers=tuple(layers), input_dim=layers[0].input_dim, output_dim=layers[-1].output_dim)
    text = format_network_document(net)
    assert text == reference_network_document(net)
    for a, b in zip(parse_network_document(text).layers, net.layers, strict=True):
        alone = read_alone(b)
        assert a.weights.shape == b.weights.shape == alone.weights.shape
        assert a.weights.tobytes() == b.weights.tobytes() == alone.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes() == alone.bias.tobytes()
        assert a._tail == alone._tail


def test_network_parse_rejects_bad_header():
    with pytest.raises(DocumentError):
        parse_network_document("something-else\n")


def test_network_parse_rejects_truncated_document():
    net = build_transition_layer(make_parity_dfa())
    text = format_network_document(net)
    lines = text.splitlines()
    with pytest.raises(DocumentError):
        parse_network_document("\n".join(lines[:-2]))


ONE_LAYER_TEXT = """\
dfanet-network-v1
input_dim 1
output_dim 1
layer_count 1
layer 0
activation {activation}
shape {shape}
weights
1.0
bias 0.0
"""

# (activation, shape line, line the error must name)
BAD_LAYERS = [
    ("tanh", "1 1", 5),  # unknown activation: the layer's own line
    ("relu", "-1 1", 7),  # negative dim: the shape line
    ("relu", "1000000000 1000000000", 9),  # a declared shape far beyond the rows given
    # a step layer's strict and thresholds lines ride in the activation slot, so thresholds is line 8
    ("step\nstrict false\nthresholds 0.5 0.5", "1 1", 8),  # two thresholds for one unit
    ("step\nstrict false\nthresholds half", "1 1", 8),  # a bad threshold literal
]


@pytest.mark.parametrize("activation,shape,line", BAD_LAYERS)
def test_network_parse_rejects_bad_layer_with_its_line(activation, shape, line):
    with pytest.raises(DocumentError) as excinfo:
        parse_network_document(ONE_LAYER_TEXT.format(activation=activation, shape=shape))
    assert excinfo.value.line == line


@pytest.mark.parametrize("field,line", [("output_dim", 3), ("layer_count", 4)])
def test_network_parse_names_the_line_of_a_bad_header_count(field, line):
    text = ONE_LAYER_TEXT.format(activation="relu", shape="1 1").replace(f"{field} 1", f"{field} x")
    with pytest.raises(DocumentError) as excinfo:
        parse_network_document(text)
    assert excinfo.value.line == line


def test_export_dot_deterministic():
    doc = parse_dfa_document(PARITY_TEXT)
    first = export_dot(doc)
    second = export_dot(doc)
    assert first == second
    assert first.count("doublecircle") == 1
    assert first.count("->") == 5  # 4 transitions + start marker
    assert '"even" -> "odd" [label="1"];' in first


def test_export_dot_mod4_counts():
    doc = DfaDocument.from_dfa(make_mod_counter_dfa(4))
    rendered = export_dot(doc)
    assert rendered.count("[shape=") == 5  # 4 states + start point
    assert rendered.count("label=") >= 8  # 8 labeled edges


# tokens that sit near the parsers' edge cases: keywords, numbers that overflow
# or are not finite, over-long integers, separators and odd whitespace
FUZZ_TOKENS = st.sampled_from([
    "0", "1", "-1", "2", "0.5", "-0", "1e999", "nan", "inf", "1_0", "0x10", "9" * 5000,
    "", "->", ":", "#", "\x00", "\x85", "\u2028", "\x1c", "é", "٣",
    "states:", "symbols:", "start:", "accept:", "transitions:", "q0", "q1",
    "meta", "input_dim", "output_dim", "layer_count", "layer", "activation", "relu", "step",
    "strict", "true", "thresholds", "shape", "weights", "bias",
]) | st.text(max_size=6)


@st.composite
def mutated_documents(draw, text):
    """``text`` after a few line deletions, copies, swaps, token swaps, insertions or a cut."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 4))):
        lines = lines or [""]
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "copy", "swap", "token", "insert", "cut"]))
        if op == "delete":
            del lines[i]
        elif op == "copy":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
        elif op == "insert":
            lines.insert(i, " ".join(draw(st.lists(FUZZ_TOKENS, max_size=4))))
        else:
            lines = lines[:i]
    return "\n".join(lines)


VALID_NETWORKS = [
    format_network_document(build_unrolled_acceptor(make_parity_dfa(), 2)),
    format_network_document(build_binary_threshold_network(make_mod_counter_dfa(3))),
]
VALID_DFA = format_dfa_document(DfaDocument.from_dfa(make_mod_counter_dfa(3)))


def network_documents():
    return st.one_of(*[mutated_documents(text) for text in VALID_NETWORKS], st.text(max_size=200))


def dfa_documents():
    return st.one_of(mutated_documents(PARITY_TEXT), mutated_documents(VALID_DFA), st.text(max_size=200))


@settings(max_examples=300, deadline=None)
@given(network_documents())
def test_network_parser_raises_only_document_errors(text):
    try:
        parse_network_document(text)
    except DocumentError:
        pass


@settings(max_examples=300, deadline=None)
@given(dfa_documents())
def test_dfa_parser_raises_only_document_errors(text):
    try:
        parse_dfa_document(text)
    except DocumentError:
        pass
