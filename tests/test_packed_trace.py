"""trace_polynomial, which runs the letter rules of trace_in over a
packed image of the ring (the Kronecker layout for short words, the
Z-packed dicts for the rest), against trace_in over TracePoly, against
exact SL(2, Q) matrices and against a pinned digest of its output."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from frickelab import tracering
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


def sl2q_check(p: TracePoly, w: Word, rng: random.Random, points: int = 2) -> None:
    """tr(w) from p at the traces of random SL(2, Q) matrices A, B equals
    the trace of the matrix word."""
    for _ in range(points):
        A, B = random_sl2_rational(rng), random_sl2_rational(rng)
        ab = mat_mul(A, B)
        m = word_matrix(w, A, B)
        assert p.evaluate(A[0][0] + A[1][1], B[0][0] + B[1][1], ab[0][0] + ab[1][1]) == m[0][0] + m[1][1], w


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
    sl2q_check(check(w), w, random.Random(seed), points=1)


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


# -- the two layouts and the size rule between them -----------------------------


def counts(w: Word) -> tuple[int, int]:
    n_a = sum(1 for gen, _ in w.letters if gen == "a")
    return n_a, len(w) - n_a


def slot_bits(w: Word) -> int:
    """s: whole bytes with room for a sign bit over the l1 bound."""
    return (l1_bound(w).bit_length() + 8) // 8 * 8


def box_bits(w: Word) -> int:
    """U V (min(n_a, n_b) + 1) s: the Kronecker image's size in bits."""
    n_a, n_b = counts(w)
    return (n_a // 2 + 1) * (n_b // 2 + 1) * (min(n_a, n_b) + 1) * slot_bits(w)


@pytest.fixture
def layouts(monkeypatch):
    """The layout that each trace_polynomial call takes, in call order."""
    taken = []
    for name in ("_kronecker_trace", "_z_packed_trace"):
        def spy(*args, name=name, fn=getattr(tracering, name)):
            taken.append(name)
            return fn(*args)
        monkeypatch.setattr(tracering, name, spy)
    return taken


def random_word(rng: random.Random, n: int, a_share: float = 0.5) -> Word:
    """A freely reduced word of n letters, each an a-letter with
    probability a_share."""
    letters = []
    while len(letters) < n:
        letter = ("a" if rng.random() < a_share else "b", rng.choice((1, -1)))
        if not letters or letter != (letters[-1][0], -letters[-1][1]):
            letters.append(letter)
    return Word(letters)


def test_both_layouts_against_sl2q_matrices_on_either_side_of_the_size_rule(layouts):
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 12:
        w = random_word(rng, rng.randint(24, 40), rng.choice((0.2, 0.5, 0.8)))
        fits = box_bits(w) <= 1 << 16
        if seen[fits] >= 12:
            continue
        seen[fits] += 1
        sl2q_check(check(w), w, rng)
        assert layouts.pop() == ("_kronecker_trace" if fits else "_z_packed_trace")


def test_kronecker_layout_against_sl2q_matrices_and_the_z_packed_dicts(layouts):
    rng = random.Random(5)
    for _ in range(150):
        w = random_word(rng, rng.randint(0, 31))
        p = check(w)
        # every word of up to 31 letters fits the box
        assert layouts.pop() == "_kronecker_trace"
        sl2q_check(p, w, rng, points=1)
        assert tracering._z_packed_trace(w.letters, slot_bits(w)) == p


@pytest.mark.parametrize("text", ["a" * 15 + "b" * 16, "ab" * 15 + "a", "Ab" * 16, "aab" * 6 + "b" * 4 + "ab" * 3])
def test_words_with_their_box_exactly_at_the_bound(monkeypatch, layouts, text):
    w = parse_word(text)
    expected = reference(w)
    rng = random.Random(text)
    for bound, layout in ((box_bits(w), "_kronecker_trace"), (box_bits(w) - 1, "_z_packed_trace")):
        monkeypatch.setattr(tracering, "_KRONECKER_BITS", bound)
        p = trace_polynomial(w)
        assert layouts.pop() == layout
        assert p == expected
        sl2q_check(p, w, rng, points=1)


def test_the_largest_boxes_under_and_over_the_default_bound(layouts):
    # no (n_a, n_b) has a box of exactly 2^16 bits; 64512 and 65856 are
    # the nearest on either side
    for text, bits, layout in (
        ("a" * 15 + "b" * 16, 64512, "_kronecker_trace"),
        ("b" * 15 + "a" * 16, 64512, "_kronecker_trace"),
        ("a" * 13 + "b" * 22, 65856, "_z_packed_trace"),
    ):
        w = parse_word(text)
        assert box_bits(w) == bits
        check(w)
        assert layouts.pop() == layout


@pytest.mark.parametrize("base, n", [("ab", 500), ("aB", 200), ("aab", 60)])
def test_sparse_long_words_take_the_z_packed_dicts(monkeypatch, base, n):
    def refuse(*args):
        raise AssertionError("the Kronecker box of this word needs far more than 2^16 bits")

    sentinel = TracePoly.constant(7)
    monkeypatch.setattr(tracering, "_kronecker_trace", refuse)
    monkeypatch.setattr(tracering, "_z_packed_trace", lambda letters, s: sentinel)
    assert trace_polynomial(parse_word(base) ** n) is sentinel


def test_degree_and_parity_facts_behind_the_kronecker_decoding():
    # every monomial X^i Y^j Z^k of tr(w) has i + k <= n_a, i + k = n_a
    # (mod 2), and the same for j and b, checked on trace_in over TracePoly
    rng = random.Random(11)
    for _ in range(60):
        w = random_word(rng, rng.randint(0, 14))
        n_a, n_b = counts(w)
        for i, j, k in reference(w).terms:
            assert i + k <= n_a and (n_a - i - k) % 2 == 0, w
            assert j + k <= n_b and (n_b - j - k) % 2 == 0, w


@pytest.mark.parametrize("s", [8, 16, 24, 64])
def test_one_digit_reader_round_trips_balanced_digits_in_both_layouts(s):
    # seeded balanced s-bit digits, the extremes +-(2^(s-1) - 1) among them,
    # every fourth value with a zero top digit
    rng = random.Random(s)
    half, width = 1 << (s - 1), s // 8
    for trial in range(60):
        n = rng.randint(1, 12)
        digits = [rng.choice([half - 1, 1 - half, 0, rng.randint(1 - half, half - 1)]) for _ in range(n)]
        if trial % 4 == 0:
            digits[-1] = 0
        v = sum(d << (s * k) for k, d in enumerate(digits))
        # the Kronecker layout reads a box of known size slot by slot
        raw = tracering._raised_digits(v, s, n)
        assert len(raw) == n * width
        assert [int.from_bytes(raw[k * width:(k + 1) * width], "little") - half for k in range(n)] == digits
        # the Z-packed layout reads as many digits as the value's length needs
        i, j = rng.randint(0, 9), rng.randint(0, 9)
        decoded = tracering._decode({i * tracering._KEY_X + j * tracering._KEY_Y: v}, s)
        assert decoded.terms == {(i, j, k): d for k, d in enumerate(digits) if d}
