from hypothesis import given, strategies as st

import pytest

from frickelab.words import (
    IDENTITY,
    Word,
    WordParseError,
    concat,
    cyclic_reduce,
    invert,
    parse_word,
    parse_word_list,
)

letters = st.lists(
    st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))), max_size=12
)
words = letters.map(Word)
short_words = st.lists(
    st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))), max_size=6
).map(Word)


def test_parse_basic():
    assert str(parse_word("aB")) == "aB"
    assert str(parse_word("abB")) == "a"
    assert parse_word("1") == IDENTITY
    assert str(IDENTITY) == "1"


def test_parse_errors_name_position():
    with pytest.raises(WordParseError) as exc:
        parse_word("abx")
    assert exc.value.position == 2
    with pytest.raises(WordParseError):
        parse_word("")


def test_concat_examples():
    assert str(concat(parse_word("ab"), parse_word("B"))) == "a"
    assert str(concat(parse_word("a"), parse_word("1"))) == "a"
    assert str(concat(parse_word("aB"), parse_word("ba"))) == "aa"


def test_invert_examples():
    assert str(invert(parse_word("ab"))) == "BA"
    assert str(invert(parse_word("1"))) == "1"
    assert str(invert(parse_word("aaB"))) == "bAA"


def test_cyclic_reduce_examples():
    assert str(cyclic_reduce(parse_word("Aba"))) == "b"
    assert str(cyclic_reduce(parse_word("ba"))) == "ab"
    assert str(cyclic_reduce(parse_word("ab"))) == "ab"


@given(words)
def test_parse_print_roundtrip(w):
    assert parse_word(str(w)) == w


@given(words)
def test_concat_with_inverse_is_identity(w):
    assert concat(w, invert(w)) == IDENTITY
    assert invert(invert(w)) == w


@given(words, words)
def test_concat_length_bound(u, v):
    assert len(concat(u, v)) <= len(u) + len(v)


@given(words, short_words)
def test_cyclic_reduce_conjugation_invariant(w, conj):
    conjugated = concat(concat(conj, w), invert(conj))
    assert cyclic_reduce(conjugated) == cyclic_reduce(w)


@given(words)
def test_cyclic_reduce_idempotent(w):
    r = cyclic_reduce(w)
    assert cyclic_reduce(r) == r


def test_word_list_files():
    text = "# generators\na\nab  # a times b\n\nB\n"
    assert [str(w) for w in parse_word_list(text)] == ["a", "ab", "B"]


@pytest.mark.parametrize(
    "bad", [("a", 2), ("c", 1), ("A", 1), ("b", 0), ("a",), "ab", ("a", 1, 1), 7, (["a"], 1)]
)
def test_malformed_letters_are_rejected_at_construction(bad):
    # anywhere in the word, also next to a letter it would cancel with
    for letters in ([bad], [("a", 1), bad], [("b", -1), ("b", 1), bad, ("a", 1)]):
        with pytest.raises(ValueError, match="malformed letter") as info:
            Word(letters)
        assert repr(bad) in str(info.value)


def test_well_formed_letters_in_any_sequence_type():
    assert Word([["a", 1], ("b", -1)]) == parse_word("aB")
    assert Word(iter([("a", -1), ("a", 1)])) == IDENTITY
