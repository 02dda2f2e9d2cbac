"""The letter rules compiled to Python expressions, and FieldElement
enclosures on integer numerators.

The Kronecker pass (tracering._packed_trace) is checked against trace_in
over plain ints, where X -> 2^x, Y -> 2^y, Z -> 2^z is a ring
homomorphism to Z.  The ring pass (tracering._ring_numerators) is checked
against the vector pass and against 2x2 matrices multiplied out with
Fractions: exact SL(2, Q) pairs, and at the fixed rational points, whose
traces need not come from SL(2, Q), SL(2) over Q(sqrt(z^2 - 4)).
FieldElement.interval and sign are checked against the same refinement
run on Fractions.
"""

import random
from fractions import Fraction

import pytest

from frickelab import tracering
from frickelab.algebraic import NumberField, make_algebraic
from frickelab.fricke import FrickePoint, sample_markov_point, solve_pattern_system, trace_of
from frickelab.poly import UniPoly, irreducible_over_Q
from frickelab.tracering import trace_in
from frickelab.words import Word

from oracles import mat_mul, random_sl2_rational, word_matrix

LETTERS = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]


def rand_word(rng, length):
    """A word of exactly length letters, not necessarily reduced."""
    return Word([rng.choice(LETTERS) for _ in range(length)])


def seeded_words(seed, top):
    rng = random.Random(seed)
    words = [rand_word(rng, n) for n in range(top + 1)]
    # every letter type alone and in long runs
    words += [Word([letter] * k) for letter in LETTERS for k in (1, 2, 7)]
    return words


# -- the Kronecker pass ----------------------------------------------------------------


def parity_shifts(w):
    """The parity-compressed layout of _kronecker_trace."""
    n_a = sum(1 for gen, _ in w.letters if gen == "a")
    n_b = len(w.letters) - n_a
    s = (((2 * 5 ** n_a) << n_b).bit_length() + 8) // 8 * 8
    u, v, h = n_a // 2 + 1, n_b // 2 + 1, s // 2
    return h, h * u, h + h * u + s * u * v


def plain_shifts(w):
    """A plain box X -> 2^s, Y -> 2^(s(DX+1)), Z -> 2^(s(DX+1)(DY+1))."""
    n_a = sum(1 for gen, _ in w.letters if gen == "a")
    n_b = len(w.letters) - n_a
    s = (5 ** n_a).bit_length() + n_b + 2
    return s, s * (n_a + 1), s * (n_a + 1) * (n_b + 1)


@pytest.mark.parametrize("layout", [parity_shifts, plain_shifts])
def test_kronecker_pass_is_trace_in_over_ints(layout):
    for w in seeded_words(2828, 40):
        x, y, z = layout(w)
        expected = trace_in(w.letters, 1 << x, 1 << y, 1 << z, 1, 0)
        assert tracering._packed_trace(w.letters, (0, x, y, z, x + y)) == expected, w


def test_kronecker_pass_at_small_shifts_is_trace_in():
    # shifts of 0 and equal shifts are ring homomorphisms too
    for shifts in ((0, 0, 0), (1, 1, 1), (2, 0, 3), (5, 3, 1)):
        x, y, z = shifts
        for w in seeded_words(29, 12):
            assert tracering._packed_trace(w.letters, (0, x, y, z, x + y)) == trace_in(
                w.letters, 1 << x, 1 << y, 1 << z, 1, 0
            ), (shifts, w)


def test_generated_kronecker_source_is_pinned():
    source = tracering._rule_source(tracering._LETTER_RULES[("a", 1)][0], tracering._kronecker_term)
    assert source == "(c2 << z) - (c2 << xy) - c1 - (c3 << y)"
    source = tracering._rule_source(tracering._LETTER_RULES[("a", -1)][1], tracering._kronecker_term)
    assert source == "-c0 - (c2 << y) - (c3 << z)"


# -- the ring pass ------------------------------------------------------------------------


def test_generated_ring_source_is_pinned():
    step = tracering._ring_step(tracering._LETTER_RULES[("b", -1)])
    assert step == "((iY * c0 + i1 * c2) % N, (iY * c1 + i1 * c3) % N, (-i1 * c0) % N, (-i1 * c1) % N)"
    assert tracering._rule_source(tracering._TRACE_RULE, tracering._ring_term) == (
        "i1 * c0 + i1 * c0 + iX * c1 + iY * c2 + iZ * c3"
    )


POINTS = {
    "paper": lambda: solve_pattern_system(128),
    "3,3,3": lambda: FrickePoint.from_rationals(3, 3, 3),
    "1/2,-7/3,5/11": lambda: FrickePoint.from_rationals(Fraction(1, 2), Fraction(-7, 3), Fraction(5, 11)),
}


def ring_numerators(pt, w):
    """_ring_numerators at the proven s, whatever the size rule picks."""
    g, table, _, (s0, s_a, s_b) = pt._trace_data
    n_a = sum(1 for gen, _ in w.letters if gen == "a")
    s = s0 + n_a * s_a + (len(w.letters) - n_a) * s_b
    return tracering._ring_numerators(w.letters, table, g, s)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_ring_pass_equals_vector_pass(name):
    pt = POINTS[name]()
    g, table, _, _ = pt._trace_data
    for w in seeded_words(3030, 60):
        assert ring_numerators(pt, w) == tracering._vector_numerators(w.letters, table, g), w


class Quadratic:
    """u + v r in Q(r), r^2 = d, on Fractions."""

    def __init__(self, u, v, d):
        self.u, self.v, self.d = Fraction(u), Fraction(v), d

    def _coerce(self, other):
        return other if isinstance(other, Quadratic) else Quadratic(other, 0, self.d)

    def __add__(self, other):
        other = self._coerce(other)
        return Quadratic(self.u + other.u, self.v + other.v, self.d)

    def __neg__(self):
        return Quadratic(-self.u, -self.v, self.d)

    def __mul__(self, other):
        other = self._coerce(other)
        return Quadratic(self.u * other.u + self.d * self.v * other.v, self.u * other.v + self.v * other.u, self.d)

    __radd__ = __add__
    __rmul__ = __mul__


def quadratic_pair(x, y, z):
    """A = [[x, -1], [1, 0]] and B = [[0, q], [-1/q, y]], q = (z + r)/2 with
    r^2 = z^2 - 4: det 1, tr A = x, tr B = y and tr AB = q + 1/q = z."""
    d = z * z - 4
    q = Quadratic(z / 2, Fraction(1, 2), d)
    q_inv = Quadratic(z / 2, Fraction(-1, 2), d)  # (z - r)/2, as q (z - r)/2 = 1
    k = lambda c: Quadratic(c, 0, d)
    return [[k(x), k(-1)], [k(1), k(0)]], [[k(0), q], [-q_inv, k(y)]]


@pytest.mark.parametrize("name", ["3,3,3", "1/2,-7/3,5/11"])
def test_ring_pass_equals_sl2_matrices_at_rational_points(name):
    pt = POINTS[name]()
    x, y, z = pt.coords
    A, B = quadratic_pair(x, y, z)
    e = pt._trace_data[2]
    for w in seeded_words(3131, 60):
        m = word_matrix(w.letters, A, B)
        tr = Quadratic(0, 0, z * z - 4) + m[0][0] + m[1][1]
        assert tr.v == 0
        (num,) = ring_numerators(pt, w)
        assert Fraction(num, e ** (len(w.letters) + 1)) == tr.u, w


def test_ring_pass_equals_sl2_q_matrices():
    rng = random.Random(3232)
    for _ in range(6):
        A, B = random_sl2_rational(rng), random_sl2_rational(rng)
        x, y = A[0][0] + A[1][1], B[0][0] + B[1][1]
        ab = mat_mul(A, B)
        pt = FrickePoint.from_rationals(x, y, ab[0][0] + ab[1][1])
        e = pt._trace_data[2]
        for w in seeded_words(rng.randrange(2**31), 30):
            m = word_matrix(w.letters, A, B)
            (num,) = ring_numerators(pt, w)
            assert Fraction(num, e ** (len(w.letters) + 1)) == m[0][0] + m[1][1], w


# -- field enclosures ---------------------------------------------------------------


def fraction_enclosures(e):
    """The enclosures of FieldElement._enclosures on Fractions: interval
    Horner on phi's interval, refined to half its width between them."""
    root, c = e.field.root, e.field._scale
    while True:
        lo, hi = c * root.lo, c * root.hi
        acc_lo = acc_hi = Fraction(0)
        for coeff in reversed(e._nums):
            products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
            acc_lo, acc_hi = min(products) + coeff, max(products) + coeff
        yield acc_lo / e._den, acc_hi / e._den
        root = root.refined((root.hi - root.lo) / 2)


def sqrt2_field():
    f = UniPoly([-2, 0, 1])
    return NumberField(f, make_algebraic(f, (1, 2)), irreducible_over_Q(f))


def field_elements():
    paper = solve_pattern_system(128)
    markov = sample_markov_point(Fraction(3), Fraction(16, 5))
    out = []
    for pt in (paper, markov):
        out += [trace_of(pt, w).value for w in seeded_words(3333, 14)[::2]]
        out += list(pt.coords)
    field = sqrt2_field()
    rng = random.Random(3434)
    out += [field.element([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(2)]) for _ in range(8)]
    # sqrt 2 minus rationals close to it: signs that need many refinements
    for k in (10, 60, 150):
        r = field.root.refined(Fraction(1, 2**k)).lo
        out += [field.gen() - r, r - field.gen()]
    return [e for e in out if not e.is_zero()]


def test_interval_and_sign_equal_the_fraction_route():
    for e in field_elements():
        for k in (8, 30, 64, 100, 200, 300):
            eps = Fraction(1, 2**k)
            lo, hi = next((lo, hi) for lo, hi in fraction_enclosures(e) if hi - lo < eps)
            iv = e.interval(eps)
            assert (iv.lo, iv.hi) == (lo, hi)
        lo, hi = next((lo, hi) for lo, hi in fraction_enclosures(e) if lo > 0 or hi < 0)
        assert e.sign() == (1 if lo > 0 else -1)


def test_interval_refuses_nonpositive_eps():
    e = sqrt2_field().gen()
    for eps in (0, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="eps must be positive"):
            e.interval(eps)
