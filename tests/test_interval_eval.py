"""Interval evaluation on integer numerators against Fraction-endpoint oracles.

fricke._evaluate_box and algebraic._horner_interval run interval products
on integer numerators over one common denominator.  The oracles are
TracePoly.evaluate on Fraction-endpoint RatIntervals, a Horner scheme on
Fraction endpoint pairs written here, exact SL(2, Q) matrix traces, and
endpoints recorded from the Fraction route at the x = 3, y = 16/5 Markov
point.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frickelab.algebraic import _horner_interval
from frickelab.fricke import (
    FrickePoint,
    _evaluate_box,
    evaluate_at_point,
    markov_residual,
    sample_markov_point,
    trace_of,
)
from frickelab.intervals import RatInterval
from frickelab.tracering import TracePoly, trace_polynomial
from frickelab.variety import PATTERN_POLYNOMIAL, numeric_member, symbolic_residual
from frickelab.words import Word, parse_word

from oracles import mat_mul, random_sl2_rational, word_matrix

DENOMINATORS = [1, 2, 3, 6, 7, 10, 64, 3 ** 7, 2 ** 40]

rationals = st.builds(Fraction, st.integers(-3000, 3000), st.sampled_from(DENOMINATORS))
intervals = st.one_of(
    rationals.map(RatInterval.point),
    st.tuples(rationals, rationals).map(lambda ends: RatInterval(*sorted(ends))),
)
boxes = st.tuples(intervals, intervals, intervals)
nonnegative = st.builds(Fraction, st.integers(0, 3000), st.sampled_from(DENOMINATORS))
nonnegative_intervals = st.one_of(
    nonnegative.map(RatInterval.point),
    st.tuples(nonnegative, nonnegative).map(lambda ends: RatInterval(*sorted(ends))),
)
# lo >= 0 everywhere: _evaluate_box's corner route
positive_boxes = st.tuples(nonnegative_intervals, nonnegative_intervals, nonnegative_intervals)
monomials = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
trace_polys = st.dictionaries(monomials, st.integers(-50, 50), max_size=12).map(TracePoly)


def rand_word(rng, max_len):
    """Freely reduced word of a random length up to max_len."""
    letters = []
    for _ in range(rng.randint(0, max_len)):
        choices = [(g, e) for g in "ab" for e in (1, -1) if not letters or letters[-1] != (g, -e)]
        letters.append(rng.choice(choices))
    return Word(letters)


def rand_interval(rng, centre=0, spread=4):
    """Random interval with mixed, non-dyadic denominators around centre."""
    ends = [centre + Fraction(rng.randint(-spread * 60, spread * 60), rng.choice(DENOMINATORS)) for _ in range(2)]
    return RatInterval(min(ends), max(ends))


def fraction_route(tp, box):
    return RatInterval.point(0) + tp.evaluate(*box)


def endpoints(iv):
    return iv.lo, iv.hi


@settings(max_examples=300, deadline=None)
@given(trace_polys, st.one_of(boxes, positive_boxes))
def test_box_endpoints_equal_fraction_route(tp, box):
    assert endpoints(_evaluate_box(tp, box)) == endpoints(fraction_route(tp, box))


@pytest.mark.parametrize(
    "tp", [TracePoly(), TracePoly.constant(-7), TracePoly.constant(5), trace_polynomial(parse_word("1"))]
)
def test_zero_and_constant_polynomials(tp):
    # on a box with a negative endpoint a constant evaluates to an int on the reference route
    box = (RatInterval(Fraction(-3, 7), Fraction(5, 6)), RatInterval(-2, -1), RatInterval.point(Fraction(1, 3)))
    c = tp.terms.get((0, 0, 0), 0)
    assert endpoints(_evaluate_box(tp, box)) == (c, c)


def test_word_trace_polynomials_on_straddling_and_negative_boxes():
    rng = random.Random(3131)
    for _ in range(40):
        tp = trace_polynomial(rand_word(rng, 12))
        centres = [rng.choice((0, -3, 3)) for _ in range(3)]
        box = tuple(rand_interval(rng, c, spread=2) for c in centres)
        assert endpoints(_evaluate_box(tp, box)) == endpoints(fraction_route(tp, box))


def test_word_trace_polynomials_on_positive_boxes():
    # boxes with lo = 0, point boxes, boxes inside T(1,1) and wide boxes
    rng = random.Random(4242)
    zero_lo = lambda: RatInterval(0, Fraction(rng.randint(1, 500), rng.choice(DENOMINATORS)))
    point = lambda: RatInterval.point(Fraction(rng.randint(0, 500), rng.choice(DENOMINATORS)))
    near_three = lambda: RatInterval(*sorted(3 + Fraction(rng.randint(-60, 60), 60 * rng.choice(DENOMINATORS)) for _ in range(2)))
    wide = lambda: RatInterval(*sorted(Fraction(rng.randint(0, 900), rng.choice(DENOMINATORS)) for _ in range(2)))
    kinds = (zero_lo, point, near_three, wide)
    for _ in range(120):
        tp = trace_polynomial(rand_word(rng, 16))
        box = tuple(rng.choice(kinds)() for _ in range(3))
        assert all(iv.lo >= 0 for iv in box)
        assert endpoints(_evaluate_box(tp, box)) == endpoints(fraction_route(tp, box))
    zero = (RatInterval.point(0),) * 3
    tp = trace_polynomial(parse_word("abAAB"))
    assert endpoints(_evaluate_box(tp, zero)) == endpoints(fraction_route(tp, zero))


def test_enclosures_contain_exact_sl2_traces():
    rng = random.Random(5150)
    for _ in range(40):
        w = rand_word(rng, 14)
        A, B = random_sl2_rational(rng), random_sl2_rational(rng)
        ab = mat_mul(A, B)
        exact_coords = (A[0][0] + A[1][1], B[0][0] + B[1][1], ab[0][0] + ab[1][1])
        box = []
        for c in exact_coords:
            below = Fraction(rng.randint(0, 5), rng.choice(DENOMINATORS) * 1000)
            above = Fraction(rng.randint(0, 5), rng.choice(DENOMINATORS) * 1000)
            box.append(RatInterval(c - below, c + above))
        pt = FrickePoint.from_intervals(*box)
        m = word_matrix(w, A, B)
        exact = m[0][0] + m[1][1]
        for iv in (evaluate_at_point(trace_polynomial(w), pt).value, trace_of(pt, w).value):
            assert iv.contains(exact), (str(w), exact, iv)


def fraction_horner(coeffs, lo, hi):
    """acc * [lo, hi] + c on Fraction endpoint pairs."""
    acc_lo = acc_hi = Fraction(0)
    for c in reversed(coeffs):
        products = [a * b for a in (acc_lo, acc_hi) for b in (lo, hi)]
        acc_lo, acc_hi = min(products) + c, max(products) + c
    return acc_lo, acc_hi


def test_horner_interval_matches_fraction_horner():
    rng = random.Random(2718)
    for _ in range(400):
        coeffs = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(0, 9))]
        iv = rand_interval(rng, rng.choice((0, -2, 2, Fraction(5, 3))))
        assert endpoints(_horner_interval(coeffs, iv)) == fraction_horner(coeffs, iv.lo, iv.hi)


def _digest(*ivs):
    text = "\n".join(f"{iv.lo.numerator}/{iv.lo.denominator} {iv.hi.numerator}/{iv.hi.denominator}" for iv in ivs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_endpoints_at_the_markov_interval_point():
    # recorded from TracePoly.evaluate on Fraction-endpoint RatIntervals
    eps = Fraction(1, 2 ** 128)
    pt = FrickePoint.from_intervals(*sample_markov_point(Fraction(3), Fraction(16, 5)).coordinate_intervals(eps))
    rng = random.Random(6061)
    traces = [trace_of(pt, rand_word(rng, 26)).value for _ in range(40)]
    assert _digest(*traces) == "0b3fdda641ae4551fdad217ebfda5705ceb62b6df87d1a785766a8d2f49be43a"
    assert _digest(markov_residual(pt).value) == "63a78058fa7b14a86e3b243ce812cdf955166e81de74d0c9b7b3b67caadc4805"
    u, v = parse_word("abAAB"), parse_word("aabbb")
    residual = evaluate_at_point(symbolic_residual(PATTERN_POLYNOMIAL, (u, v)).poly, pt).value
    assert _digest(residual) == "4d4b15f8b32c25041a87328c5eba9a1b730afce5b786239194c9f1a6996b5fe1"
    assert numeric_member(PATTERN_POLYNOMIAL, (u, v), pt) == "Out"
