import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfanet.automata import (
    Dfa,
    _numbered_strings,
    accepts,
    accepts_batch,
    all_strings,
    all_strings_up_to,
    make_mod_counter_dfa,
    minimize,
    nerode_classes,
    random_dfa,
    reachable_states,
    run,
    run_batch,
    step,
)

from conftest import dfas, plain_accepts, plain_fold, strings_up_to, table_filling_minimal_count


def test_step_parity(parity):
    assert step(parity, 0, 1) == 1  # reading a one flips parity
    assert step(parity, 0, 0) == 0  # reading a zero preserves it


def test_step_mod4_wraps():
    counter = make_mod_counter_dfa(4)
    assert step(counter, 3, 1) == 0


def test_step_rejects_out_of_range(parity):
    with pytest.raises(ValueError):
        step(parity, 2, 0)
    with pytest.raises(ValueError):
        step(parity, 0, 2)
    with pytest.raises(ValueError):
        step(parity, -1, 0)


def test_run_empty_string_returns_start(parity):
    assert run(parity, []) == 0


def test_run_parity_examples(parity):
    assert run(parity, [0, 1, 1, 0]) == 0
    assert run(parity, [0, 1]) == 1


def test_run_rejects_bad_symbol(parity):
    with pytest.raises(ValueError):
        run(parity, [0, 5])


def test_accepts_examples(parity):
    assert accepts(parity, [1, 1]) is True
    assert accepts(parity, [1]) is False
    assert accepts(make_mod_counter_dfa(4), [1, 1, 1, 1]) is True


def test_batch_helpers_match_scalar(parity):
    strings = all_strings(2, 5)
    scalar_states = [run(parity, s) for s in strings]
    assert run_batch(parity, strings).tolist() == scalar_states
    scalar_accepts = [accepts(parity, s) for s in strings]
    assert accepts_batch(parity, strings).tolist() == scalar_accepts


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(0, 1, np.zeros((0, 1), dtype=int), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, 1, np.array([[0], [5]]), 0, frozenset())  # entry out of range
    with pytest.raises(ValueError):
        Dfa(2, 1, np.array([[0]]), 0, frozenset())  # partial table
    with pytest.raises(ValueError):
        Dfa(2, 1, np.array([[0], [1]]), 3, frozenset())  # bad start
    with pytest.raises(ValueError):
        Dfa(2, 1, np.array([[0], [1]]), 0, frozenset({4}))  # bad accepting
    with pytest.raises(ValueError):
        Dfa(2, 2, [[0, 1.5], [1, 0]], 0, {0})  # entry not an integer
    with pytest.raises(ValueError):
        Dfa(2, 1, np.array([[0], [1]]), 0.5, frozenset())  # start not an integer
    with pytest.raises(ValueError):
        Dfa(2, 1, np.array([[0], [1]]), 0, frozenset({0.7}))  # accepting state not an integer
    whole = Dfa(2, 1, [[1.0], [0.0]], 1.0, {1.0})  # integer-valued floats stay accepted
    assert type(whole.start_state) is int and whole.start_state == 1
    assert whole.transitions.tolist() == [[1], [0]] and whole.accepting == {1}


def test_minimize_parity_already_minimal(parity):
    assert minimize(parity).state_count == 2


def test_minimize_merges_duplicated_accepting_state(parity):
    # third state duplicates the accepting state's behaviour
    dup = Dfa(
        state_count=3,
        alphabet_size=2,
        transitions=np.array([[2, 1], [1, 0], [0, 1]]),
        start_state=0,
        accepting=frozenset({0, 2}),
    )
    assert table_filling_minimal_count(dup) == 2
    minimal = minimize(dup)
    assert minimal.state_count == 2
    for string in strings_up_to(2, 8):
        assert plain_accepts(minimal, string) == plain_accepts(dup, string)


def test_minimize_drops_unreachable_state():
    four = Dfa(
        state_count=4,
        alphabet_size=2,
        transitions=np.array([[1, 2], [1, 1], [2, 0], [3, 0]]),
        start_state=0,
        accepting=frozenset({1}),
    )
    assert table_filling_minimal_count(four) == 3
    assert minimize(four).state_count == 3


@settings(max_examples=60, deadline=None)
@given(dfas(max_states=10, max_symbols=3))
def test_minimize_matches_table_filling_oracle(dfa):
    assert minimize(dfa).state_count == table_filling_minimal_count(dfa)


@settings(max_examples=40, deadline=None)
@given(dfas(max_states=6, max_symbols=2))
def test_minimize_preserves_language(dfa):
    minimal = minimize(dfa)
    for string in strings_up_to(dfa.alphabet_size, 6):
        assert plain_accepts(minimal, string) == plain_accepts(dfa, string)


@settings(max_examples=40, deadline=None)
@given(dfas())
def test_minimize_idempotent(dfa):
    once = minimize(dfa)
    assert minimize(once).state_count == once.state_count


@settings(max_examples=60, deadline=None)
@given(dfas(max_states=10, max_symbols=3), st.data())
def test_minimize_is_a_canonical_form(dfa, data):
    # relabelling the states changes nothing: the output is numbered in BFS order from the start
    perm = np.array(data.draw(st.permutations(range(dfa.state_count))))
    table = np.empty_like(dfa.transitions)
    table[perm] = perm[dfa.transitions]
    relabelled = Dfa(dfa.state_count, dfa.alphabet_size, table, int(perm[dfa.start_state]),
                     frozenset(perm[list(dfa.accepting)].tolist()))
    minimal, other = minimize(dfa), minimize(relabelled)
    assert (other.state_count, other.start_state, other.accepting) == \
        (minimal.state_count, minimal.start_state, minimal.accepting)
    assert other.transitions.tobytes() == minimal.transitions.tobytes()
    assert reachable_states(minimal) == list(range(minimal.state_count))


@settings(max_examples=40, deadline=None)
@given(dfas(), st.lists(st.integers(0, 10), max_size=6), st.lists(st.integers(0, 10), max_size=6))
def test_run_composes_over_concatenation(dfa, left, right):
    left = [s % dfa.alphabet_size for s in left]
    right = [s % dfa.alphabet_size for s in right]
    middle = run(dfa, left)
    resumed = middle
    for symbol in right:
        resumed = step(dfa, resumed, symbol)
    assert run(dfa, left + right) == resumed


def test_nerode_classes_parity(parity):
    partition = nerode_classes(parity, [(), (0,), (1,), (0, 1)])
    assert partition.class_count == 2
    assert partition.class_of[()] == partition.class_of[(0,)]
    assert partition.class_of[(1,)] == partition.class_of[(0, 1)]
    assert partition.class_of[()] != partition.class_of[(1,)]


def test_nerode_classes_mod2_all_short_strings():
    partition = nerode_classes(make_mod_counter_dfa(2), all_strings_up_to(2, 2))
    assert partition.class_count == 2


def test_nerode_classes_mod4_matches_enumeration():
    counter = make_mod_counter_dfa(4)
    strings = all_strings_up_to(2, 3)
    assert len(strings) == 15
    partition = nerode_classes(counter, strings)
    assert partition.class_count == 4
    for string in strings:
        expected_state = plain_fold(counter, string)
        for other in strings:
            if partition.class_of[string] == partition.class_of[tuple(other)]:
                assert plain_fold(counter, other) == expected_state


@settings(max_examples=30, deadline=None)
@given(dfas(max_states=6, max_symbols=2))
def test_nerode_class_count_caps_at_minimal_states(dfa):
    partition = nerode_classes(dfa, all_strings_up_to(dfa.alphabet_size, 5))
    assert partition.class_count <= minimize(dfa).state_count


def test_parity_dfa_accepts_empty(parity):
    assert accepts(parity, [])


def test_mod1_counter_accepts_everything():
    counter = make_mod_counter_dfa(1)
    for string in strings_up_to(2, 4):
        assert plain_accepts(counter, string)


def test_mod4_counter_fold_example():
    assert run(make_mod_counter_dfa(4), [1, 0, 1]) == 2


def test_mod_counter_rejects_zero():
    with pytest.raises(ValueError):
        make_mod_counter_dfa(0)


def test_random_dfa_is_valid_and_seeded():
    a = random_dfa(5, 3, seed=9)
    b = random_dfa(5, 3, seed=9)
    assert np.array_equal(a.transitions, b.transitions)
    assert a.accepting == b.accepting
    assert a.state_count == 5 and a.alphabet_size == 3


def test_all_strings_lexicographic():
    rows = all_strings(2, 3)
    assert rows.shape == (8, 3)
    assert rows[0].tolist() == [0, 0, 0]
    assert rows[-1].tolist() == [1, 1, 1]
    assert all_strings(3, 0).shape == (1, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_all_strings_are_the_strings_numbered_in_base_k(k):
    for length in range(7):
        expected = np.array(list(itertools.product(range(k), repeat=length)), dtype=np.int64).reshape(k**length, length)
        rows = all_strings(k, length)
        assert rows.dtype == np.int64 and rows.flags.c_contiguous and rows.tobytes() == expected.tobytes()
        for number in (0, len(expected) // 2, len(expected) - 1):  # one number gives one string
            assert _numbered_strings(number, k, length).tolist() == expected[number].tolist()
