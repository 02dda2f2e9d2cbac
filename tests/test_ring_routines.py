"""The shared ring routines: square-and-multiply powers, long division over
Q and the Sylvester row builder, against naive products and known values."""

import functools
import random
from fractions import Fraction

import pytest

from frickelab import fricke
from frickelab.intervals import RatInterval
from frickelab.poly import UniPoly, _power, _qpoly_divmod, exact_div, sylvester_matrix
from frickelab.tracering import TracePoly
from frickelab.words import IDENTITY, Word, invert, parse_word

QUINTIC_FIELD = fricke.solve_pattern_system().field
MARKOV_FIELD = fricke.sample_markov_point(Fraction(5, 2), Fraction(7, 2)).field


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _word(rng):
    return Word([(rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))])


def _unipoly(rng):
    return UniPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])


def _tracepoly(rng):
    return TracePoly({tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3) for _ in range(3)})


def _interval(rng):
    lo, hi = sorted((_rational(rng), _rational(rng)))
    return RatInterval(lo, hi)


def _field_element(field):
    return lambda rng: field.element([_rational(rng) for _ in range(field.degree)])


RINGS = {
    "word": (_word, IDENTITY),
    "unipoly": (_unipoly, UniPoly([1])),
    "tracepoly": (_tracepoly, TracePoly.constant(1)),
    "interval": (_interval, RatInterval.point(1)),
    "quintic-field": (_field_element(QUINTIC_FIELD), QUINTIC_FIELD.from_rational(1)),
    "markov-field": (_field_element(MARKOV_FIELD), MARKOV_FIELD.from_rational(1)),
}


def test_markov_field_is_not_monic():
    assert MARKOV_FIELD.defining.lc() != 1


@pytest.mark.parametrize("name", sorted(RINGS))
def test_power_is_the_repeated_product(name):
    make, one = RINGS[name]
    rng = random.Random(name)
    for _ in range(4):
        x = make(rng)
        for n in range(13):
            assert x ** n == functools.reduce(lambda acc, _: acc * x, range(n), one)


def test_negative_powers():
    rng = random.Random(11)
    for _ in range(4):
        w = _word(rng)
        assert w ** -1 == invert(w)
        assert w ** -5 == invert(w) ** 5
        assert w ** -3 * w ** 3 == IDENTITY
    for field in (QUINTIC_FIELD, MARKOV_FIELD):
        x = _field_element(field)(rng)
        assert x ** -1 == x.inverse()
        assert x ** -4 * x ** 4 == field.from_rational(1)
    for x in (_unipoly(rng), _tracepoly(rng), _interval(rng)):
        with pytest.raises(ValueError):
            x ** -1


class _Counting:
    """A ring element that counts the squarings and other products it takes part in."""

    squarings = products = 0

    def __init__(self, e):
        self.e = e

    def __mul__(self, other):
        if self is other:
            _Counting.squarings += 1
        else:
            _Counting.products += 1
        return _Counting(self.e + other.e)


def test_power_squarings():
    for n in range(0, 300):
        _Counting.squarings = _Counting.products = 0
        out = _power(_Counting(1), n, _Counting(0))
        assert out.e == n
        assert _Counting.squarings == max(n.bit_length() - 1, 0)
        assert _Counting.products == bin(n).count("1")


@pytest.mark.parametrize("text", ["abAB", "aBA", "abA"])
def test_word_power_matches_spelled_word(text):
    base = parse_word(text)
    exponents = set(range(40)) | {2 ** k + d for k in range(6, 13) for d in (-1, 0, 1)} - {4097}
    for n in sorted(exponents):
        assert base ** n == parse_word(text * n if n else "1")


def test_exact_div_known_quotients():
    quintic = UniPoly([-4, 4, 3, -4, -2, 1])
    assert exact_div(quintic * UniPoly([3, 0, -2]), UniPoly([3, 0, -2])) == quintic
    assert exact_div(UniPoly([6, -5, 1]), UniPoly([-2, 1])) == UniPoly([-3, 1])
    assert exact_div(UniPoly(), UniPoly([5])) == UniPoly()


def test_exact_div_seeded():
    rng = random.Random(5)
    for _ in range(200):
        p, q = _unipoly(rng), _unipoly(rng)
        if q.is_zero():
            continue
        assert exact_div(p * q, q) == p
        if q.degree() > 0:
            remainder = UniPoly([0] * rng.randint(0, q.degree() - 1) + [rng.randint(1, 5)])
            with pytest.raises(ValueError, match="inexact"):
                exact_div(p * q + remainder, q)


def test_qpoly_divmod_identity():
    rng = random.Random(6)
    for _ in range(100):
        a = [_rational(rng) for _ in range(rng.randint(0, 7))]
        b = [_rational(rng) for _ in range(rng.randint(1, 4))]
        if not b[-1]:
            b[-1] = Fraction(1)
        quo, rem = _qpoly_divmod(a, b)
        assert len(rem) == min(len(a), len(b) - 1)
        recombined = [Fraction(0)] * max(len(a), len(quo) + len(b) - 1, len(rem))
        for i, c in enumerate(quo):
            for j, d in enumerate(b):
                recombined[i + j] += c * d
        for i, c in enumerate(rem):
            recombined[i] += c
        assert recombined == a + [Fraction(0)] * (len(recombined) - len(a))


def test_field_inverse_known_coefficients():
    F = Fraction
    assert QUINTIC_FIELD.gen().inverse().coeffs == (1, F(3, 4), -1, F(-1, 2), F(1, 4))
    assert QUINTIC_FIELD.element([1, F(-1, 2), 0, 0, 3]).inverse().coeffs == (
        F(279711, 398612), F(-183815, 797224), F(-178867, 199306), F(-17052, 99653), F(130843, 797224)
    )
    assert MARKOV_FIELD.gen().inverse().coeffs == (F(35, 74), F(-2, 37))
    assert MARKOV_FIELD.element([F(2, 3), 5]).inverse().coeffs == (F(1599, 17716), F(-45, 4429))


@pytest.mark.parametrize("field", [QUINTIC_FIELD, MARKOV_FIELD], ids=["quintic", "markov"])
def test_field_inverse_seeded(field):
    # elements are in lowest terms, so the unique inverse has one representation
    rng = random.Random(field.degree)
    one = field.from_rational(1)
    for _ in range(40):
        x = _field_element(field)(rng)
        if not x.is_zero():
            assert x * x.inverse() == one


def test_sylvester_rows():
    assert sylvester_matrix(UniPoly([1, 2, 3]), UniPoly([4, 5])) == [
        [3, 2, 1],
        [5, 4, 0],
        [0, 5, 4],
    ]
