"""RatInterval's sign, negation, differences and quotients against Fractions.

Every operation must return an interval that contains the exact result
for every pair of sampled points of its operands: both endpoints and a
seeded point between them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frickelab.intervals import PrecisionError, RatInterval

rationals = st.builds(Fraction, st.integers(-500, 500), st.integers(1, 60))
intervals = st.one_of(
    rationals.map(RatInterval.point),
    st.tuples(rationals, rationals).map(lambda ends: RatInterval(*sorted(ends))),
)
away_from_zero = intervals.filter(lambda iv: not iv.contains_zero())
straddling = st.tuples(
    st.builds(Fraction, st.integers(-500, -1), st.integers(1, 60)),
    st.builds(Fraction, st.integers(1, 500), st.integers(1, 60)),
).map(lambda ends: RatInterval(*ends))


def samples(iv, t):
    """Both endpoints and the point a fraction t of the way from lo to hi."""
    return (iv.lo, iv.lo + t * (iv.hi - iv.lo), iv.hi)


fractions_of_width = st.builds(Fraction, st.integers(0, 100), st.just(100))


@settings(max_examples=200, deadline=None)
@given(intervals, intervals, fractions_of_width)
def test_negation_and_differences_contain_every_sample(a, b, t):
    neg = -a
    assert (neg.lo, neg.hi) == (-a.hi, -a.lo)
    for x in samples(a, t):
        assert neg.contains(-x)
        for y in samples(b, t):
            assert (a - b).contains(x - y)
            assert (a * b).contains(x * y)
    for x in samples(a, t):
        assert (a - 3).contains(x - 3) and (3 - a).contains(3 - x)
        assert (a - Fraction(1, 7)).contains(x - Fraction(1, 7))
        assert (Fraction(1, 7) - a).contains(Fraction(1, 7) - x)


@settings(max_examples=200, deadline=None)
@given(intervals, away_from_zero, fractions_of_width)
def test_quotients_and_reciprocals_contain_every_sample(a, b, t):
    rec = b.reciprocal()
    for y in samples(b, t):
        assert rec.contains(1 / y)
        for x in samples(a, t):
            assert (a / b).contains(x / y)
        assert (5 / b).contains(5 / y)
        assert (Fraction(-2, 3) / b).contains(Fraction(-2, 3) / y)
    for x in samples(a, t):
        assert (a / 4).contains(x / 4)


@settings(max_examples=100, deadline=None)
@given(straddling, intervals)
def test_reciprocal_and_division_refuse_an_interval_containing_zero(z, a):
    with pytest.raises(ZeroDivisionError):
        z.reciprocal()
    with pytest.raises(ZeroDivisionError):
        a / z
    with pytest.raises(ZeroDivisionError):
        1 / z
    with pytest.raises(ZeroDivisionError):
        RatInterval(0, 1).reciprocal()
    with pytest.raises(ZeroDivisionError):
        RatInterval.point(0).reciprocal()


@settings(max_examples=100, deadline=None)
@given(straddling)
def test_sign_of_a_straddling_interval_is_undecidable(z):
    with pytest.raises(PrecisionError):
        z.sign()
    with pytest.raises(PrecisionError):
        RatInterval(0, z.hi).sign()
    with pytest.raises(PrecisionError):
        RatInterval(z.lo, 0).sign()


@settings(max_examples=200, deadline=None)
@given(intervals)
def test_sign_agrees_with_every_sample_when_decided(a):
    if a.contains_zero() and not a.is_point():
        return
    s = a.sign()
    for x in samples(a, Fraction(1, 2)):
        assert s == (x > 0) - (x < 0)
