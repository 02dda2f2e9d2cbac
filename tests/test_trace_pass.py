"""The one-pass trace in the basis {1, A, B, AB} against independent oracles."""

import random
from fractions import Fraction

from frickelab.fricke import (
    FrickePoint,
    evaluate_at_point,
    sample_markov_point,
    solve_pattern_system,
    trace_of,
)
from frickelab.tracering import TracePoly, trace_polynomial
from frickelab.words import Word, parse_word

from oracles import mat_mul, random_sl2_rational, word_matrix

X = TracePoly.variable("X")
Y = TracePoly.variable("Y")
Z = TracePoly.variable("Z")
TWO = TracePoly.constant(2)


def rand_word(rng, max_len):
    """Freely reduced word of a random length up to max_len."""
    letters = []
    for _ in range(rng.randint(0, max_len)):
        choices = [(g, e) for g in "ab" for e in (1, -1) if not letters or letters[-1] != (g, -e)]
        letters.append(rng.choice(choices))
    return Word(letters)


def chebyshev(t: TracePoly, n: int) -> TracePoly:
    """tr(g^n) from t = tr(g): s0 = 2, s1 = t, s(k+1) = t s(k) - s(k-1)."""
    prev, cur = TWO, t
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, t * cur - prev
    return cur


def test_exact_sl2_rational_oracle():
    rng = random.Random(4040)
    for _ in range(60):
        w = rand_word(rng, 40)
        A, B = random_sl2_rational(rng), random_sl2_rational(rng)
        x = A[0][0] + A[1][1]
        y = B[0][0] + B[1][1]
        ab = mat_mul(A, B)
        z = ab[0][0] + ab[1][1]
        m = word_matrix(w, A, B)
        exact = m[0][0] + m[1][1]
        assert trace_polynomial(w).evaluate(x, y, z) == exact
        assert trace_of(FrickePoint.from_rationals(x, y, z), w).value == exact


def test_powers_of_ab_follow_chebyshev():
    for n in list(range(12)) + [100, 257, 500]:
        assert trace_polynomial(parse_word("ab") ** n) == chebyshev(Z, n), n


def test_powers_of_aB_follow_chebyshev():
    assert trace_polynomial(parse_word("aB") ** 40) == chebyshev(X * Y - Z, 40)


def test_trace_of_paper_point_matches_expanded_polynomial():
    pt = solve_pattern_system(128)
    rng = random.Random(921)
    for _ in range(40):
        w = rand_word(rng, 16)
        assert trace_of(pt, w) == evaluate_at_point(trace_polynomial(w), pt)


def test_interval_point_enclosures_match_expanded_polynomial():
    eps = Fraction(1, 2 ** 128)
    markov = sample_markov_point(Fraction(3), Fraction(16, 5))
    pt = FrickePoint.from_intervals(*markov.coordinate_intervals(eps))
    rng = random.Random(912)
    for _ in range(30):
        w = rand_word(rng, 20)
        iv = trace_of(pt, w).value
        expanded = evaluate_at_point(trace_polynomial(w), pt).value
        assert (iv.lo, iv.hi) == (expanded.lo, expanded.hi)
        exact = trace_of(markov, w).interval(eps)
        assert iv.lo <= exact.hi and exact.lo <= iv.hi
