"""trace_polynomial, which runs the letter rules of trace_in over the
packed ring, against trace_in over TracePoly, against exact SL(2, Q)
matrices and against a pinned digest of its output."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from frickelab.tracering import TracePoly, format_tracepoly, trace_in, trace_polynomial
from frickelab.words import Word, parse_word

from oracles import mat_mul, random_sl2_rational, word_matrix

X = TracePoly.variable("X")
Y = TracePoly.variable("Y")
Z = TracePoly.variable("Z")
ONE = TracePoly.constant(1)
ZERO = TracePoly()

LETTERS = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
# sha256 of the printed traces of golden_words, one per line, in order
GOLDEN_DIGEST = "f6a99cd158fd5fa1e5026103367746e88b9326e81d01f85946417b2932bbcc54"


def reference(w: Word) -> TracePoly:
    """The same recurrence with every coefficient a TracePoly."""
    return trace_in(w.letters, X, Y, Z, ONE, ZERO)


def l1_bound(w: Word) -> int:
    n_a = sum(1 for gen, _ in w.letters if gen == "a")
    return 2 * 5 ** n_a * 2 ** (len(w) - n_a)


def check(w: Word) -> TracePoly:
    p = trace_polynomial(w)
    assert p == reference(w), w
    assert all(c != 0 for c in p.terms.values())
    assert sum(abs(c) for c in p.terms.values()) <= l1_bound(w)
    return p


@st.composite
def reduced_words(draw, max_len=80):
    """Freely reduced words: each letter is one of the three that do not
    cancel the one before it."""
    n = draw(st.integers(0, max_len))
    letters = []
    for step in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)):
        choices = [l for l in LETTERS if not letters or l != (letters[-1][0], -letters[-1][1])]
        letters.append(choices[step % len(choices)])
    return Word(letters)


@settings(max_examples=30, deadline=None)
@given(reduced_words(), st.integers(0, 2**32))
def test_packed_expansion_matches_tracepoly_pass_and_sl2q_matrices(w, seed):
    p = check(w)
    rng = random.Random(seed)
    A, B = random_sl2_rational(rng), random_sl2_rational(rng)
    ab = mat_mul(A, B)
    m = word_matrix(w, A, B)
    x, y, z = A[0][0] + A[1][1], B[0][0] + B[1][1], ab[0][0] + ab[1][1]
    assert p.evaluate(x, y, z) == m[0][0] + m[1][1]


@pytest.mark.parametrize("base", ["a", "b", "ab", "aB", "aab", "AAB"])
def test_families(base):
    for n in list(range(13)) + [20, 31]:
        check(parse_word(base) ** n)


def test_identity_word():
    assert check(parse_word("1")) == TracePoly.constant(2)


def test_long_periodic_word():
    check(parse_word("ab") ** 500)


def test_every_x_degree_fits_its_key():
    # the X-exponent lives in the low bits of a key; words with n_a a-letters
    # reach X^n_a, and n_a = 2^k needs one bit more than n_a = 2^k - 1
    rng = random.Random(31)
    for n_a in range(1, 18):
        for _ in range(3):
            letters = [("a", rng.choice((1, -1))) for _ in range(n_a)]
            letters += [("b", rng.choice((1, -1))) for _ in range(rng.randint(1, 6))]
            rng.shuffle(letters)
            check(Word(letters))


def golden_words() -> list[Word]:
    """400 seeded freely reduced words of length 0-80, the words of
    test_families, then (ab)^500, (aB)^200 and (aab)^60."""
    rng = random.Random(2024)
    words = []
    for _ in range(400):
        letters = []
        for _ in range(rng.randint(0, 80)):
            letters.append(rng.choice([l for l in LETTERS if not letters or l != (letters[-1][0], -letters[-1][1])]))
        words.append(Word(letters))
    for base in ["a", "b", "ab", "aB", "aab", "AAB"]:
        words += [parse_word(base) ** n for n in list(range(13)) + [20, 31]]
    return words + [parse_word("ab") ** 500, parse_word("aB") ** 200, parse_word("aab") ** 60]


def test_golden_digest_of_the_packed_pass():
    h = hashlib.sha256()
    for w in golden_words():
        h.update(format_tracepoly(trace_polynomial(w)).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_DIGEST
