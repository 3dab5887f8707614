import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfanet.encodings import (
    binary_code,
    binary_state_encoding,
    bits_for_state_count,
    decode_string,
    encode_string,
    encode_strings,
    one_hot,
    one_hot_state_encoding,
)


def test_one_hot_examples():
    assert one_hot(0, 2).tolist() == [1.0, 0.0]
    assert one_hot(2, 4).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_one_hot_out_of_range():
    with pytest.raises(ValueError):
        one_hot(3, 3)
    with pytest.raises(ValueError):
        one_hot(-1, 3)


def test_binary_code_examples():
    assert binary_code(0, 1).tolist() == [0.0]
    assert binary_code(5, 3).tolist() == [1.0, 0.0, 1.0]  # little-endian


def test_binary_code_overflow():
    with pytest.raises(ValueError):
        binary_code(8, 3)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6])
def test_binary_code_injective(bits):
    codes = {tuple(binary_code(i, bits)) for i in range(1 << bits)}
    assert len(codes) == 1 << bits


def test_encode_string_examples():
    assert encode_string([0, 1], 2).data.tolist() == [1, 0, 0, 1]
    empty = encode_string([], 2)
    assert empty.data.size == 0 and empty.length == 0
    assert encode_string([1, 0, 2], 3).data.tolist() == [0, 1, 0, 1, 0, 0, 0, 0, 1]


def test_encode_string_rejects_bad_symbol():
    with pytest.raises(ValueError):
        encode_string([0, 3], 3)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), max_size=8))))
def test_encode_decode_round_trip(case):
    k, symbols = case
    encoded = encode_string(symbols, k)
    assert decode_string(encoded) == tuple(symbols)


def test_encode_injective_on_fixed_length():
    seen = set()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                seen.add(tuple(encode_string([a, b, c], 2).data))
    assert len(seen) == 8


def test_encode_strings_matches_rows():
    strings = np.array([[0, 1], [1, 1], [1, 0]])
    batch = encode_strings(strings, 2)
    for row, string in zip(batch, strings):
        assert row.tolist() == encode_string(string, 2).data.tolist()


def test_one_hot_state_encoding():
    enc = one_hot_state_encoding(3)
    assert enc.dim == 3
    assert np.array_equal(enc.codes, np.eye(3))


@pytest.mark.parametrize("n,expected_dim", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (32, 5)])
def test_binary_state_encoding_dims(n, expected_dim):
    assert bits_for_state_count(n) == expected_dim
    enc = binary_state_encoding(n)
    assert enc.dim == expected_dim
    codes = {tuple(row) for row in enc.codes}
    assert len(codes) == n  # pairwise distinct
