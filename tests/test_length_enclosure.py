"""Length enclosures on integers against an 800-bit mpmath oracle.

fricke.length_of encloses 2 arccosh(|tr|/2) with math.isqrt and an atanh
series on integers (fricke._arccosh_bounds).  The oracle is mpmath's
acosh at 800 bits, used here only.  Every case checks containment and the
requested width.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from frickelab.fricke import FrickePoint, _arccosh_bounds, _atanh_floor, _ln2, length_of, solve_pattern_system
from frickelab.intervals import RatInterval
from frickelab.words import parse_word

PRECISION = Fraction(1, 2 ** 96)
A = parse_word("a")


def oracle_length(u: Fraction):
    with mpmath.workprec(800):
        return 2 * mpmath.acosh(mpmath.mpf(u.numerator) / u.denominator / 2)


def encloses(iv: RatInterval, value) -> bool:
    with mpmath.workprec(800):
        lo, hi = (mpmath.mpf(q.numerator) / q.denominator for q in (iv.lo, iv.hi))
        return lo <= value <= hi


def seeded_traces():
    """u > 2 near 2, near powers of 2 and up to 2^4096, with mixed denominators."""
    rng = random.Random(2222)
    out = [2 + Fraction(1, 10 ** k) for k in range(1, 61)]
    out += [2 + Fraction(rng.randint(1, 10 ** 6), 10 ** rng.randint(6, 66)) for _ in range(60)]
    for _ in range(60):
        k = rng.randint(2, 300)
        out.append(Fraction(2 ** k) + Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 9)))
    out += [Fraction(rng.randint(3, 2 ** rng.randint(2, 4096)), rng.randint(1, 2 ** 10)) for _ in range(60)]
    out += [Fraction(2 ** 4096 - 1), Fraction(2 ** 4096), Fraction(3), Fraction(5, 2)]
    return [u for u in out if u > 2]


TRACES = seeded_traces()


def test_seeded_traces_cover_near_two_powers_of_two_and_large():
    assert min(TRACES) - 2 < Fraction(1, 10 ** 60)
    assert max(TRACES) >= 2 ** 4096
    assert len(TRACES) > 200


def test_rational_point_lengths_contain_the_oracle():
    for u in TRACES:
        iv = length_of(FrickePoint.from_rationals(u, 3, 3), A)
        assert iv.width() < PRECISION, u
        assert encloses(iv, oracle_length(u)), u


def test_negative_traces_give_the_same_containment():
    # tr(a) = -u < -2 and tr(A) = tr(a): the length is 2 arccosh(u/2)
    for u in TRACES[::3]:
        pt = FrickePoint.from_rationals(-u, 3, 3)
        for w in (A, parse_word("A")):
            iv = length_of(pt, w)
            assert iv.width() < PRECISION, u
            assert encloses(iv, oracle_length(u)), u


def test_interval_traces_enclose_both_ends():
    rng = random.Random(4141)
    far = [u for u in TRACES if u > Fraction(21, 10)]
    for u in rng.sample(far, 60):
        r = Fraction(rng.randint(1, 2 ** 20), 2 ** 180)
        for sign in (1, -1):
            ends = (sign * (u - r), sign * (u + r))
            pt = FrickePoint.from_intervals(RatInterval(min(ends), max(ends)), RatInterval.point(3), RatInterval.point(3))
            iv = length_of(pt, A)
            assert iv.width() < PRECISION, u
            assert encloses(iv, oracle_length(u - r)) and encloses(iv, oracle_length(u + r)), u


def test_coarser_precisions_keep_containment_and_width():
    rng = random.Random(77)
    for u in rng.sample(TRACES, 40):
        for bits in (1, 10, 40, 200):
            precision = Fraction(1, 2 ** bits)
            iv = length_of(FrickePoint.from_rationals(u, 3, 3), A, precision)
            assert iv.width() < precision
            assert encloses(iv, oracle_length(u))


def test_paper_point_length_contains_the_oracle():
    # tr(a) = x, the paper quintic's real root
    pt = solve_pattern_system(128)
    tr = pt.coords[0]
    iv = length_of(pt, A, Fraction(1, 2 ** 200))
    x = tr.interval(Fraction(1, 2 ** 400))
    assert iv.width() < Fraction(1, 2 ** 200)
    assert encloses(iv, oracle_length(x.lo)) and encloses(iv, oracle_length(x.hi))


def test_bounds_over_an_interval_cover_its_ends_and_middle():
    # the enclosure over [lo, hi] contains the lengths at both ends and between
    rng = random.Random(99)
    for _ in range(50):
        lo = 2 + Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 5))
        hi = lo + Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 7))
        iv = _arccosh_bounds(lo, hi, 137)
        for u in (lo, (lo + hi) / 2, hi):
            if u > 2:
                assert encloses(iv, oracle_length(u))
    assert _arccosh_bounds(Fraction(2), Fraction(2), 137).lo <= 0


@pytest.mark.parametrize("p", [64, 137, 201, 1000])
def test_atanh_floor_is_a_lower_bound_within_its_budget(p):
    rng = random.Random(p)
    cases = [(1, 3), (0, 5), (1, 10 ** 40)]
    cases += [(a, a * rng.randint(3, 50) + rng.randint(0, 9)) for a in (rng.randint(1, 10 ** 30) for _ in range(60))]
    for a, b in cases:
        s, n = _atanh_floor(a, b, p)
        with mpmath.workprec(p + 800):
            exact = mpmath.atanh(mpmath.mpf(a) / b) * mpmath.mpf(2) ** p
            assert s <= exact < s + n, (a, b)
    l2, n2 = _ln2(p)
    with mpmath.workprec(p + 800):
        assert l2 <= mpmath.log(2) * mpmath.mpf(2) ** p < l2 + n2


@pytest.mark.parametrize("precision", [0, -1, Fraction(-1, 2 ** 96)])
def test_length_of_rejects_a_precision_that_is_not_positive(precision):
    with pytest.raises(ValueError, match="precision must be positive"):
        length_of(solve_pattern_system(128), parse_word("ab"), precision)
    with pytest.raises(ValueError, match="precision must be positive"):
        length_of(FrickePoint.from_rationals(3, 3, 3), A, precision)


@pytest.mark.parametrize("eps", [0, -1, Fraction(-1, 3)])
def test_field_interval_rejects_an_eps_that_is_not_positive(eps):
    x = solve_pattern_system(128).coords[0]
    with pytest.raises(ValueError, match="eps must be positive"):
        x.interval(eps)
