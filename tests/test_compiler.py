import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfanet.compiler
from dfanet.automata import Dfa, accepts_batch, all_strings, make_mod_counter_dfa, make_parity_dfa, random_dfa
from dfanet.compiler import (
    EnumerationBudgetError,
    ProjectionError,
    VerificationReport,
    build_binary_threshold_network,
    build_compressed_embedding,
    build_embedding_head,
    build_transition_layer,
    build_unrolled_acceptor,
    verify_exact,
    verify_sampled,
)
from dfanet.encodings import binary_state_encoding, encode_string, encode_strings, one_hot
from dfanet.experiments import gen_binary_transition_dataset, gen_dfa_dataset, gen_transition_dataset
from dfanet.network import LayerSpec, NetworkSpec, _layer_step, forward, forward_batch
from dfanet.nn import TrainConfig, UnrolledNet, train

from conftest import dfas, plain_accepts, plain_fold, scaled_acceptor


def transition_input(dfa, state, symbol):
    return np.concatenate([one_hot(state, dfa.state_count), one_hot(symbol, dfa.alphabet_size)])


def test_transition_layer_parity_shape_and_values(parity):
    net = build_transition_layer(parity)
    assert net.layers[0].output_dim == 4  # n*k hidden units
    out = forward(net, transition_input(parity, 0, 1))
    assert out.tolist() == [0.0, 1.0]  # exactly e1, reading '1' from even


def test_transition_layer_mod4():
    counter = make_mod_counter_dfa(4)
    net = build_transition_layer(counter)
    assert net.layers[0].output_dim == 8
    for state in range(4):
        for symbol in range(2):
            out = forward(net, transition_input(counter, state, symbol))
            # analytic rule: '0' self-loops, '1' increments mod 4
            expected_state = state if symbol == 0 else (state + 1) % 4
            assert np.array_equal(out, one_hot(expected_state, 4))
    assert np.array_equal(forward(net, transition_input(counter, 3, 1)), one_hot(0, 4))


@pytest.mark.parametrize("seed", range(6))
def test_transition_layer_exact_on_random_dfas(seed):
    dfa = random_dfa(seed % 10 + 2, seed % 3 + 1, seed=seed)
    net = build_transition_layer(dfa)
    assert net.layers[0].output_dim == dfa.state_count * dfa.alphabet_size
    for state in range(dfa.state_count):
        for symbol in range(dfa.alphabet_size):
            out = forward(net, transition_input(dfa, state, symbol))
            assert np.array_equal(out, one_hot(int(dfa.transitions[state, symbol]), dfa.state_count))


def test_unrolled_zero_length_reads_out_start_state(parity):
    net = build_unrolled_acceptor(parity, 0)
    assert net.input_dim == 0
    assert forward(net, np.zeros(0)).tolist() == [1.0]  # empty string has even parity

    from dfanet.automata import Dfa

    shifted = Dfa(
        state_count=3, alphabet_size=2, transitions=make_mod_counter_dfa(3).transitions,
        start_state=1, accepting=frozenset({0}),
    )
    assert forward(build_unrolled_acceptor(shifted, 0), np.zeros(0)).tolist() == [0.0]


def test_unrolled_parity_t4_example(parity):
    net = build_unrolled_acceptor(parity, 4)
    assert forward(net, encode_string([0, 1, 1, 0], 2).data).tolist() == [1.0]


def test_unrolled_parity_t3_matches_enumeration(parity):
    net = build_unrolled_acceptor(parity, 3)
    for string in itertools.product(range(2), repeat=3):
        out = forward(net, encode_string(string, 2).data)
        assert out.tolist() == [1.0 if plain_accepts(parity, string) else 0.0]


def test_unrolled_depth_and_stage_count(parity):
    for length in (0, 1, 4, 7):
        net = build_unrolled_acceptor(parity, length)
        assert net.metadata["depth"] == length + 1
        assert net.metadata["transition_modules"] == length
        assert len(net.layers) == (2 * length + 1 if length else 1)


def test_unrolled_readout_is_strict_step(parity):
    net = build_unrolled_acceptor(parity, 2)
    readout = net.layers[-1]
    assert readout.activation == "step"
    assert readout.strict is True
    assert readout.thresholds.tolist() == [0.5]


def test_verify_exact_parity_lengths(parity):
    report = verify_exact(build_unrolled_acceptor(parity, 7), parity, 7)
    assert report.total_strings == 128 and report.exact
    report = verify_exact(build_unrolled_acceptor(parity, 12), parity, 12)
    assert report.total_strings == 4096 and report.exact


def test_verify_exact_finds_corruption_witness(parity):
    net = build_unrolled_acceptor(parity, 3)
    corrupted_readout = LayerSpec(
        weights=1.0 - net.layers[-1].weights,  # invert the accepting indicator
        bias=net.layers[-1].bias,
        activation="step",
        thresholds=net.layers[-1].thresholds,
        strict=True,
    )
    corrupted = NetworkSpec(
        layers=net.layers[:-1] + (corrupted_readout,),
        input_dim=net.input_dim,
        output_dim=net.output_dim,
    )
    report = verify_exact(corrupted, parity, 3)
    assert not report.exact
    string, expected, got = report.mismatches[0]
    assert expected != got
    assert plain_accepts(parity, string) == expected
    # mismatches are in lexicographic order
    assert list(report.mismatches) == sorted(report.mismatches)


def test_verify_exact_budget_refusal(parity):
    net = half_block_net(parity, 30)  # the walk cannot decide it, so only enumeration could
    with pytest.raises(EnumerationBudgetError):
        verify_exact(net, parity, 30)


def test_verify_exact_walks_past_the_enumeration_budget(parity):
    acceptor = build_unrolled_acceptor(parity, 30)
    report = verify_exact(acceptor, parity, 30)
    assert report.exact and report.total_strings == 2**30 and report.mismatches == ()
    report = verify_exact(flipped_readout(acceptor, 1), parity, 30)  # every odd string is accepted
    assert report.mismatch_count == 2**29
    assert report.witness == ((0,) * 29 + (1,), False, True)
    with pytest.raises(EnumerationBudgetError, match="budget"):  # listing them would enumerate 2^30 strings
        report.mismatches


def test_verify_exact_dimension_mismatch(parity):
    net = build_unrolled_acceptor(parity, 4)
    with pytest.raises(ValueError):
        verify_exact(net, parity, 5)


def test_verify_sampled(parity):
    net = build_unrolled_acceptor(parity, 30)
    report = verify_sampled(net, parity, 30, count=500, seed=1)
    assert report.exact and report.total_strings == 500


def test_binary_threshold_parity(parity):
    net = build_binary_threshold_network(parity)
    out = forward(net, np.array([0.0, 0.0, 1.0]))  # state code 0, symbol '1'
    assert out.tolist() == [1.0]


def test_binary_threshold_mod8_example():
    counter = make_mod_counter_dfa(8)
    enc = binary_state_encoding(8)
    net = build_binary_threshold_network(counter)
    out = forward(net, np.concatenate([enc.codes[5], one_hot(1, 2)]))
    assert out.tolist() == enc.codes[6].tolist() == [0.0, 1.0, 1.0]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 32])
def test_binary_threshold_exact_on_counters(n):
    counter = make_mod_counter_dfa(n)
    enc = binary_state_encoding(n)
    net = build_binary_threshold_network(counter)
    for state in range(n):
        for symbol in range(2):
            out = forward(net, np.concatenate([enc.codes[state], one_hot(symbol, 2)]))
            assert np.array_equal(out, enc.codes[int(counter.transitions[state, symbol])])


def test_embedding_head_identity_is_one_hot_state(parity):
    net = build_embedding_head(parity, 3)
    for string in itertools.product(range(2), repeat=3):
        out = forward(net, encode_string(string, 2).data)
        assert np.array_equal(out, one_hot(plain_fold(parity, string), 2))


def test_embedding_head_scalar_codes(parity):
    net = build_embedding_head(parity, 2, head=np.array([[0.0, 1.0]]))
    assert forward(net, encode_string([0, 1], 2).data).tolist() == [1.0]
    assert forward(net, encode_string([1, 1], 2).data).tolist() == [0.0]


def test_embedding_head_mod4_binary_codes_distinct():
    counter = make_mod_counter_dfa(4)
    codes = binary_state_encoding(4).codes.T  # 2 x 4, one column per state
    embeddings = set()
    for length in range(4):
        net = build_embedding_head(counter, length, head=codes)
        for string in itertools.product(range(2), repeat=length):
            embeddings.add(tuple(forward(net, encode_string(string, 2).data)))
    assert len(embeddings) == 4


def test_embedding_head_rejects_duplicate_columns(parity):
    with pytest.raises(ValueError):
        build_embedding_head(parity, 2, head=np.array([[1.0, 1.0]]))


def test_embedding_soundness_up_to_length_8():
    counter = make_mod_counter_dfa(4)
    for length in range(9):
        net = build_embedding_head(counter, length)
        for string in itertools.product(range(2), repeat=length):
            out = forward(net, encode_string(string, 2).data)
            assert np.array_equal(out, one_hot(plain_fold(counter, string), 4))


def test_compressed_embedding_postcondition():
    dfa = make_mod_counter_dfa(2)
    projection, achieved = build_compressed_embedding(dfa, epsilon=0.1, seed=3)
    assert projection.shape == (2, 2)  # ceil(log2 2) + 1 rows
    assert achieved > 0.1
    assert np.linalg.norm(projection[:, 0] - projection[:, 1]) == pytest.approx(achieved)


def test_compressed_embedding_frozen_regression():
    projection, achieved = build_compressed_embedding(make_mod_counter_dfa(8), epsilon=0.1, seed=7)
    assert projection.shape == (4, 8)
    assert achieved == pytest.approx(0.4467873425264411, rel=1e-12)


def test_compressed_embedding_unattainable_separation():
    with pytest.raises(ProjectionError) as excinfo:
        build_compressed_embedding(make_mod_counter_dfa(4), epsilon=1e6, seed=0)
    assert excinfo.value.best_distance > 0


def test_compressed_embedding_needs_two_states():
    with pytest.raises(ValueError):
        build_compressed_embedding(make_mod_counter_dfa(1), epsilon=0.1, seed=0)


def test_compressed_head_separates_strings():
    dfa = make_mod_counter_dfa(4)
    epsilon = 0.1
    projection, _ = build_compressed_embedding(dfa, epsilon=epsilon, seed=11)
    net = build_embedding_head(dfa, 5, head=projection)
    by_state: dict[int, np.ndarray] = {}
    for string in itertools.product(range(2), repeat=5):
        out = forward(net, encode_string(string, 2).data)
        state = plain_fold(dfa, string)
        if state in by_state:
            assert np.array_equal(out, by_state[state])
        else:
            by_state[state] = out
    for a in by_state:
        for b in by_state:
            if a < b:
                assert np.linalg.norm(by_state[a] - by_state[b]) > epsilon


def test_embedding_head_strict_class_separation():
    # compiled embeddings are constant within a class, so the max intra-class
    # distance is exactly zero and strictly below any inter-class distance
    counter = make_mod_counter_dfa(4)
    head = np.array([[0.3, -1.2, 0.3, 2.0], [0.0, 0.5, 1.5, -0.25]])
    for length in (2, 5):
        net = build_embedding_head(counter, length, head=head)
        groups: dict[int, list[np.ndarray]] = {}
        for string in itertools.product(range(2), repeat=length):
            groups.setdefault(plain_fold(counter, string), []).append(
                forward(net, encode_string(string, 2).data)
            )
        for members in groups.values():
            for emb in members[1:]:
                assert np.array_equal(emb, members[0])
        states = sorted(groups)
        for a in states:
            for b in states:
                if a < b:
                    assert np.linalg.norm(groups[a][0] - groups[b][0]) > 0.0


def test_unrolled_exact_for_counter_family_sample():
    for n in (2, 8, 32):
        counter = make_mod_counter_dfa(n)
        for length in (0, 1, 5, 9):
            report = verify_exact(build_unrolled_acceptor(counter, length), counter, length)
            assert report.exact, f"n={n} T={length}"


def enumerated_report(net, dfa, length):
    """``(total_strings, mismatches, exact)`` from every string through ``forward_batch``."""
    strings = all_strings(dfa.alphabet_size, length)
    with np.errstate(over="ignore", invalid="ignore"):
        got = forward_batch(net, encode_strings(strings, dfa.alphabet_size))[:, 0] > 0.5
    expected = accepts_batch(dfa, strings)
    mismatches = tuple(
        (tuple(strings[i].tolist()), bool(expected[i]), bool(got[i])) for i in np.flatnonzero(got != expected)
    )
    return len(strings), mismatches, not mismatches


def with_layer(net, index, **changes):
    layer = net.layers[index]
    fields = dict(weights=layer.weights, bias=layer.bias, activation=layer.activation,
                  thresholds=layer.thresholds, strict=layer.strict)
    layers = list(net.layers)
    layers[index] = LayerSpec(**{**fields, **changes})
    return NetworkSpec(tuple(layers), net.input_dim, net.output_dim, dict(net.metadata))


def flipped_readout(net, state):
    readout = net.layers[-1]
    if readout.input_dim == 0:  # T=0: the start state's verdict sits in the bias
        return with_layer(net, -1, bias=1.0 - readout.bias)
    weights = readout.weights.copy()
    weights[0, state] = 1.0 - weights[0, state]
    return with_layer(net, -1, weights=weights)


def behind_pass_layers(net):
    """``net`` behind an identity and a relu layer that pass every input through, so its plan starts reading nothing."""
    width = net.input_dim
    passes = [LayerSpec(weights=np.eye(width), bias=np.zeros(width), activation=act) for act in ("identity", "relu")]
    return NetworkSpec((*passes, *net.layers), width, net.output_dim, dict(net.metadata))


def corrupted_weight(net, draw):
    """One hidden or readout weight (or, with no weights, a bias) moved by +-1 or +0.5."""
    index = draw(st.sampled_from([i for i, layer in enumerate(net.layers) if layer.weights.size] or [0]))
    layer, delta = net.layers[index], draw(st.sampled_from([1.0, -1.0, 0.5]))
    if not layer.weights.size:
        return with_layer(net, index, bias=layer.bias + delta)
    weights = layer.weights.copy()
    weights[draw(st.integers(0, weights.shape[0] - 1)), draw(st.integers(0, weights.shape[1] - 1))] += delta
    return with_layer(net, index, weights=weights)


@settings(max_examples=60, deadline=None)
@given(dfas(max_states=5, max_symbols=3), st.integers(0, 7), st.data())
def test_verify_exact_matches_enumeration(dfa, length, data):
    n = dfa.state_count
    acceptor = build_unrolled_acceptor(dfa, length)
    nets = [
        acceptor,
        build_embedding_head(dfa, length),
        flipped_readout(acceptor, data.draw(st.integers(0, n - 1))),
        behind_pass_layers(flipped_readout(acceptor, data.draw(st.integers(0, n - 1)))),
        corrupted_weight(acceptor, data.draw),
        corrupted_weight(build_embedding_head(dfa, length), data.draw),
    ]
    if n >= 2:
        projection, _ = build_compressed_embedding(dfa, seed=data.draw(st.integers(0, 2**32 - 1)))
        nets.append(build_embedding_head(dfa, length, head=projection))
    for net in nets:
        report = verify_exact(net, dfa, length)
        assert (report.total_strings, report.mismatches, report.exact) == enumerated_report(net, dfa, length)


def counting_forward_batch(monkeypatch):
    calls = []

    def counted(net, inputs):
        calls.append(len(inputs))
        return forward_batch(net, inputs)

    monkeypatch.setattr(dfanet.compiler, "forward_batch", counted)
    return calls


def test_verify_exact_enumerates_a_net_with_an_inf_weight(parity, monkeypatch):
    acceptor = build_unrolled_acceptor(parity, 3)
    last_move = acceptor.layers[-2]  # the last next-state stage; pair (0, 0) moves to state 0
    net = with_layer(acceptor, -2, weights=last_move.weights * [[np.inf, 1.0, 1.0, 1.0], [1.0] * 4])
    calls = counting_forward_batch(monkeypatch)
    report = verify_exact(net, parity, 3)
    assert calls == [8]  # the readout would read inf or nan, so the walk declines
    # strings that end on pair (0, 0) read inf (accept); every other carrier holds nan (reject)
    assert not report.exact
    assert (report.total_strings, report.mismatches, report.exact) == enumerated_report(net, parity, 3)


def test_verify_exact_walks_a_net_whose_readout_weight_is_inf(parity, monkeypatch):
    readout = build_unrolled_acceptor(parity, 3).layers[-1]
    net = with_layer(build_unrolled_acceptor(parity, 3), -1, weights=readout.weights * [[np.inf, 1.0]])
    calls = counting_forward_batch(monkeypatch)
    report = verify_exact(net, parity, 3)
    assert calls == []  # every carrier the readout reads is finite
    # even-state strings read inf (accept), odd ones nan (reject): parity again
    assert report.exact and (report.total_strings, report.mismatches, report.exact) == enumerated_report(net, parity, 3)


@pytest.mark.parametrize("n, length", [(2, 3), (5, 6)])
def test_verify_exact_walks_a_net_whose_static_bound_overflows(n, length, monkeypatch):
    """Pair stages scaled by 2^500 and next-state stages by 2^-500: every value stays exact.

    The layer gains multiply to 2^501 per module, but the carriers the walk
    reads are 0 or 2^500 after a pair stage and 0 or 1 after a next-state
    stage. All are finite, so the walk decides every string.
    """
    dfa = make_mod_counter_dfa(n)
    net = scaled_acceptor(dfa, length)
    calls = counting_forward_batch(monkeypatch)
    report = verify_exact(net, dfa, length)
    assert calls == []
    assert report.exact
    assert (report.total_strings, report.mismatches, report.exact) == enumerated_report(net, dfa, length)


def half_block_net(parity, length):
    """The parity acceptor whose first layer doubles, rather than passes, block 1's first column."""
    net = build_unrolled_acceptor(parity, length)
    weights = net.layers[0].weights.copy()
    weights[2 * 2, 2] = 2.0
    return with_layer(net, 0, weights=weights)


def test_verify_exact_enumerates_a_net_that_reads_half_a_symbol_block(parity, monkeypatch):
    net = half_block_net(parity, 3)
    assert net._plan[0].fresh == 3  # block 0 and half of block 1
    calls = counting_forward_batch(monkeypatch)
    report = verify_exact(net, parity, 3)
    assert calls == [8]
    assert not report.exact
    assert (report.total_strings, report.mismatches, report.exact) == enumerated_report(net, parity, 3)


def test_verify_exact_enumerates_a_stage_larger_than_one_chunk(parity, monkeypatch):
    monkeypatch.setattr(dfanet.compiler, "_CHUNK", 2)  # stage 2 holds 2 pairs times 2 symbols
    acceptor = build_unrolled_acceptor(parity, 3)
    for net in (acceptor, flipped_readout(acceptor, 1)):
        calls = counting_forward_batch(monkeypatch)
        report = verify_exact(net, parity, 3)
        assert calls == [2, 2, 2, 2]
        assert (report.total_strings, report.mismatches, report.exact) == enumerated_report(net, parity, 3)


@pytest.mark.parametrize("make", [build_unrolled_acceptor, build_embedding_head], ids=["acceptor", "embedding"])
def test_verify_exact_walks_compiled_nets_without_a_forward_pass(make, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_exact enumerated a walkable network")

    monkeypatch.setattr(dfanet.compiler, "encode_strings", refuse)
    monkeypatch.setattr(dfanet.compiler, "forward_batch", refuse)
    monkeypatch.setattr(dfanet.compiler, "accepts_batch", refuse)  # verdicts come from the final pairs
    for dfa in (make_mod_counter_dfa(2), make_mod_counter_dfa(4), random_dfa(5, 3, seed=1)):
        for length in (0, 1, 6):
            net = make(dfa, length)
            verify_exact(net, dfa, length)
            report = verify_exact(flipped_readout(net, 0), dfa, length)  # mismatches listed from the tables
            assert report.total_strings == dfa.alphabet_size**length
    assert verify_exact(build_unrolled_acceptor(make_mod_counter_dfa(4), 12), make_mod_counter_dfa(4), 12).exact


def trained_export(dfa, length, samples, epochs, seed):
    """A small unrolled acceptor trained on ``samples`` labelled strings of ``dfa``, exported to the IR."""
    data = gen_dfa_dataset(dfa, length, samples, seed=seed)
    model = UnrolledNet(8, dfa.alphabet_size, length, dfa.start_state, [1], ["sigmoid"], seed=seed, hidden_width=16)
    train(model, data.inputs, data.labels, TrainConfig(epochs=epochs, loss="bce"))
    return model.to_network()


@pytest.mark.parametrize(
    "dfa, length, samples, epochs, exact",
    [(make_parity_dfa(), 6, 800, 200, True), (make_parity_dfa(), 6, 200, 60, False),
     (make_mod_counter_dfa(3), 8, 200, 60, False), (make_parity_dfa(), 0, 50, 60, True),
     (make_parity_dfa(), 0, 20, 0, False), (make_mod_counter_dfa(3), 1, 100, 60, True),
     (make_mod_counter_dfa(3), 1, 20, 0, False)],
    ids=["parity-T6-exact", "parity-T6", "mod3-T8", "parity-T0-exact", "parity-T0-untrained", "mod3-T1-exact",
         "mod3-T1-untrained"],
)
def test_verify_exact_walks_a_trained_export(dfa, length, samples, epochs, exact, monkeypatch):
    net = trained_export(dfa, length, samples, epochs, seed=0)
    calls = counting_forward_batch(monkeypatch)
    report = verify_exact(net, dfa, length)
    assert report.exact == exact
    assert report.mismatches == enumerated_report(net, dfa, length)[1]
    assert calls == []  # the walk decided, counted and listed every string
    assert (report.mismatch_count, report.witness) == (len(report.mismatches), (report.mismatches or [None])[0])


def flipped_readout_entries(net, flips):
    """``net`` with the readout entries of the states where ``flips`` is true inverted."""
    readout = net.layers[-1]
    if readout.input_dim == 0:  # T=0: the bias holds the start state's entry; the first flag decides it
        return with_layer(net, -1, bias=np.where(flips[:1], 1.0 - readout.bias, readout.bias))
    weights = readout.weights.copy()
    weights[0, flips] = 1.0 - weights[0, flips]
    return with_layer(net, -1, weights=weights)


def assert_count_and_witness_match_enumeration(net, dfa, length):
    report = verify_exact(net, dfa, length)
    _, mismatches, exact = enumerated_report(net, dfa, length)
    assert report.mismatch_count == len(mismatches) and report.exact == exact
    # repr, so that a numpy integer or bool in place of a Python one fails too
    assert repr(report.witness) == repr(mismatches[0] if mismatches else None)
    assert report.mismatch_count == len(report.mismatches)
    assert report.witness == (report.mismatches[0] if report.mismatches else None)


@settings(max_examples=80, deadline=None)
@given(dfas(max_states=6, max_symbols=3), st.integers(0, 7), st.data())
def test_verify_exact_counts_and_finds_the_first_witness_as_enumeration_does(dfa, length, data):
    n = dfa.state_count
    flips = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    acceptor = flipped_readout_entries(build_unrolled_acceptor(dfa, length), flips)
    assert_count_and_witness_match_enumeration(acceptor, dfa, length)
    if length:  # the first pair unit also reads the last column: the first stage reads every block at once
        weights = acceptor.layers[0].weights.copy()
        weights[0, -1] += 1.0
        net = with_layer(acceptor, 0, weights=weights)
        assert [step.fresh for step in net._plan if step.fresh] == [net.input_dim]
        assert_count_and_witness_match_enumeration(net, dfa, length)
    parity, half_length = make_parity_dfa(), data.draw(st.integers(2, 7))
    flips = np.array(data.draw(st.lists(st.booleans(), min_size=2, max_size=2)))
    assert_count_and_witness_match_enumeration(flipped_readout_entries(half_block_net(parity, half_length), flips),
                                               parity, half_length)


@pytest.mark.parametrize("length", range(8))
def test_verify_exact_counts_over_a_one_symbol_alphabet(length):
    dfa = Dfa(state_count=3, alphabet_size=1, transitions=np.array([[1], [2], [0]]), start_state=0,
              accepting=frozenset({0}))
    for state in range(3):
        assert_count_and_witness_match_enumeration(flipped_readout(build_unrolled_acceptor(dfa, length), state),
                                                   dfa, length)


def test_verify_exact_enumeration_keeps_the_first_witness_across_chunks(parity, monkeypatch):
    monkeypatch.setattr(dfanet.compiler, "_CHUNK", 2)
    for flips in ([False, True], [True, False], [True, True]):
        assert_count_and_witness_match_enumeration(flipped_readout_entries(half_block_net(parity, 4), np.array(flips)),
                                                   parity, 4)


def test_verify_exact_counts_and_finds_the_witness_without_listing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a mismatch was listed")

    monkeypatch.setattr(dfanet.compiler, "_mismatches", refuse)
    monkeypatch.setattr(dfanet.compiler, "_final_pairs", refuse)
    dfa = make_mod_counter_dfa(4)
    report = verify_exact(flipped_readout(build_unrolled_acceptor(dfa, 12), 1), dfa, 12)
    # strings whose count of ones is 1 modulo 4: C(12, 1) + C(12, 5) + C(12, 9)
    assert report.mismatch_count == 12 + 792 + 220 and not report.exact
    assert report.witness == ((0,) * 11 + (1,), False, True)
    with pytest.raises(AssertionError, match="listed"):
        report.mismatches


def test_verification_report_has_a_witness_exactly_when_it_has_mismatches():
    with pytest.raises(ValueError, match="witness"):
        VerificationReport(4, 1, None, tuple)
    with pytest.raises(ValueError, match="witness"):
        VerificationReport(4, 0, ((0, 1), True, False), tuple)


def test_report_is_exact_when_it_counts_no_mismatch(parity):
    acceptor = build_unrolled_acceptor(parity, 6)
    reports = [
        verify_exact(acceptor, parity, 6),
        verify_exact(flipped_readout(acceptor, 1), parity, 6),
        verify_sampled(acceptor, parity, 6, count=50, seed=1),
        verify_sampled(flipped_readout(acceptor, 1), parity, 6, count=50, seed=1),
    ]
    assert [report.exact for report in reports] == [True, False, True, False]
    assert all(report.exact == (report.mismatch_count == 0) for report in reports)


def counting_layer_steps(monkeypatch):
    calls = []

    def counted(step, *args):
        calls.append(step)
        return _layer_step(step, *args)

    monkeypatch.setattr(dfanet.compiler, "_layer_step", counted)
    return calls


@pytest.mark.parametrize("dfa", [make_parity_dfa(), make_mod_counter_dfa(5)], ids=["parity", "mod-5"])
def test_the_walk_runs_as_many_layer_steps_at_any_length(dfa, monkeypatch):
    calls = counting_layer_steps(monkeypatch)
    steps = []
    for length in (15, 60):
        calls.clear()
        acceptor = build_unrolled_acceptor(dfa, length)
        assert verify_exact(acceptor, dfa, length).exact
        assert verify_exact(flipped_readout(acceptor, 1), dfa, length).mismatch_count > 0
        steps.append(len(calls))
    assert steps[0] == steps[1] < 2 * (2 * 15 + 1)


def assert_report_matches_enumeration(net, dfa, length):
    """Count, witness and every mismatch from ``verify_exact`` equal enumeration's, for ``net`` and its flips."""
    for flipped in (net, flipped_readout(net, 0), flipped_readout(net, 1)):
        report = verify_exact(flipped, dfa, length)
        total, mismatches, exact = enumerated_report(flipped, dfa, length)
        assert (report.total_strings, report.mismatch_count, report.exact) == (total, len(mismatches), exact)
        assert repr(report.witness) == repr(mismatches[0] if mismatches else None)
        assert report.mismatches == mismatches


def walk_steps(net, dfa, length, monkeypatch):
    """The number of layer steps one ``verify_exact`` of ``net`` runs."""
    calls = counting_layer_steps(monkeypatch)
    verify_exact(net, dfa, length)
    return len(calls)


def changed_middle_module(dfa, length, module, layer, row, column, value):
    """The acceptor with one entry of module ``module``'s ``layer`` (0 pair, 1 next-state) set to ``value``.

    ``column`` is None for a bias entry.
    """
    acceptor = build_unrolled_acceptor(dfa, length)
    index = 2 * module + layer
    target = acceptor.layers[index]
    if column is None:
        bias = target.bias.copy()
        bias[row] = value
        return with_layer(acceptor, index, bias=bias)
    weights = target.weights.copy()
    weights[row, column] = value
    return with_layer(acceptor, index, weights=weights)


@pytest.mark.parametrize("dfa, change", [
    (make_parity_dfa(), (4, 0, 0, 0, 2.0)),  # one pair unit's weight on the state it reads
    (make_mod_counter_dfa(3), (5, 1, 0, None, -0.0)),  # the next-state bias: the key differs only in a sign
], ids=["pair-unit-weight", "negative-zero-bias"])
def test_the_walk_runs_a_middle_stage_whose_key_differs(dfa, change, monkeypatch):
    net = changed_middle_module(dfa, 9, *change)
    acceptor_steps = walk_steps(build_unrolled_acceptor(dfa, 9), dfa, 9, monkeypatch)
    assert acceptor_steps < walk_steps(net, dfa, 9, monkeypatch) < 2 * 9 + 1  # stages repeat around it
    assert_report_matches_enumeration(net, dfa, 9)


def test_the_walk_runs_every_stage_while_the_pairs_grow(monkeypatch):
    dfa = make_mod_counter_dfa(12)  # n > T: each stage's key repeats, but it reaches one state more
    acceptor = build_unrolled_acceptor(dfa, 9)
    assert walk_steps(acceptor, dfa, 9, monkeypatch) == 2 * 9 + 1
    assert_report_matches_enumeration(acceptor, dfa, 9)


def test_the_walk_judges_an_inf_weight_reached_after_repeated_stages(monkeypatch):
    parity = make_parity_dfa()
    net = changed_middle_module(parity, 9, 6, 1, 0, 0, np.inf)
    assert walk_steps(net, parity, 9, monkeypatch) < 2 * 6  # stages 2-5 repeat stage 1
    calls = counting_forward_batch(monkeypatch)
    assert_report_matches_enumeration(net, parity, 9)
    assert calls  # module 7 would read 0 * inf = nan, so the walk gives way to enumeration


def test_verify_exact_refuses_to_number_more_strings_than_int64_holds(parity, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_exact enumerated 2^64 strings")

    monkeypatch.setattr(dfanet.compiler, "forward_batch", refuse)
    with pytest.raises(EnumerationBudgetError, match="64 bits"):
        verify_exact(half_block_net(parity, 64), parity, 64, budget=2**70)
    report = verify_exact(build_unrolled_acceptor(parity, 64), parity, 64, budget=2**70)
    assert report.exact and report.total_strings == 2**64


@pytest.mark.parametrize("length", [63, 64, 200])
def test_verify_exact_counts_a_walked_net_past_int64(parity, length, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_exact enumerated more strings than int64 holds")

    monkeypatch.setattr(dfanet.compiler, "forward_batch", refuse)
    report = verify_exact(flipped_readout(build_unrolled_acceptor(parity, length), 1), parity, length)
    assert type(report.mismatch_count) is int and report.mismatch_count == 2 ** (length - 1)  # the odd strings
    assert report.witness == ((0,) * (length - 1) + (1,), False, True) and len(report.witness[0]) == length
    with pytest.raises(EnumerationBudgetError):
        report.mismatches


# Reference constructions: the transition layers built entry by entry, one
# (state, symbol) pair at a time, as the paper's Lemmas 1 and 2 state them.


def reference_pair_match_stage(dfa, passthrough, first_state_fixed):
    n, k = dfa.state_count, dfa.alphabet_size
    state_dims = 0 if first_state_fixed is not None else n
    weights = np.zeros((n * k + passthrough, state_dims + k + passthrough))
    bias = np.zeros(n * k + passthrough)
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


def reference_next_state_stage(dfa, passthrough):
    n, k = dfa.state_count, dfa.alphabet_size
    weights = np.zeros((n + passthrough, n * k + passthrough))
    for i in range(n):
        for j in range(k):
            weights[int(dfa.transitions[i, j]), i * k + j] = 1.0
    for p in range(passthrough):
        weights[n + p, n * k + p] = 1.0
    return LayerSpec(weights=weights, bias=np.zeros(n + passthrough), activation="identity")


def reference_carrier_stages(dfa, length):
    stages = []
    for t in range(length):
        remaining = (length - t - 1) * dfa.alphabet_size
        fixed = dfa.start_state if t == 0 else None
        stages += [reference_pair_match_stage(dfa, remaining, fixed), reference_next_state_stage(dfa, remaining)]
    return stages


def reference_binary_layers(dfa):
    n, k = dfa.state_count, dfa.alphabet_size
    codes = binary_state_encoding(n).codes
    d = codes.shape[1]
    hidden_w, hidden_theta, out_w = np.zeros((n * k, d + k)), np.zeros(n * k), np.zeros((d, n * k))
    for i in range(n):
        for j in range(k):
            unit = i * k + j
            pattern = np.concatenate([codes[i], np.eye(k)[j]])
            hidden_w[unit] = 2.0 * pattern - 1.0
            hidden_theta[unit] = pattern.sum()
            out_w[:, unit] = codes[int(dfa.transitions[i, j])]
    return [
        LayerSpec(weights=hidden_w, bias=np.zeros(n * k), activation="step", thresholds=hidden_theta),
        LayerSpec(weights=out_w, bias=np.zeros(d), activation="step", thresholds=np.ones(d)),
    ]


def reference_transition_pairs(dfa, codes):
    n, k = dfa.state_count, dfa.alphabet_size
    d = codes.shape[1]
    inputs, labels = np.zeros((n * k, d + k)), np.zeros((n * k, d))
    for i in range(n):
        for j in range(k):
            inputs[i * k + j, :d] = codes[i]
            inputs[i * k + j, d + j] = 1.0
            labels[i * k + j] = codes[int(dfa.transitions[i, j])]
    return inputs, labels


def layer_bytes(layer):
    thresholds = None if layer.thresholds is None else layer.thresholds.tobytes()
    return (layer.activation, layer.strict, layer.weights.shape, layer.weights.tobytes(),
            layer.bias.tobytes(), thresholds)


def array_bytes(array):
    return array.dtype, array.shape, array.tobytes()


@settings(max_examples=80, deadline=None)
@given(dfas(max_states=6, max_symbols=3), st.integers(0, 6))
def test_builders_equal_the_entry_by_entry_reference(dfa, length):
    carrier = list(map(layer_bytes, reference_carrier_stages(dfa, length)))
    for net in (build_unrolled_acceptor(dfa, length), build_embedding_head(dfa, length)):
        assert list(map(layer_bytes, net.layers[:-1])) == carrier
    transition = [reference_pair_match_stage(dfa, 0, None), reference_next_state_stage(dfa, 0)]
    assert list(map(layer_bytes, build_transition_layer(dfa).layers)) == list(map(layer_bytes, transition))
    binary = build_binary_threshold_network(dfa).layers
    assert list(map(layer_bytes, binary)) == list(map(layer_bytes, reference_binary_layers(dfa)))
    n = dfa.state_count
    for data, codes in ((gen_transition_dataset(dfa), np.eye(n)), (gen_binary_transition_dataset(dfa), binary_state_encoding(n).codes)):
        inputs, labels = reference_transition_pairs(dfa, codes)
        assert array_bytes(data.inputs) == array_bytes(inputs)
        assert array_bytes(data.labels) == array_bytes(labels)
