"""The one-pass trace in the basis {1, A, B, AB} against independent oracles."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from frickelab.algebraic import NumberField, make_algebraic
from frickelab.fricke import (
    FrickePoint,
    NonHyperbolicError,
    evaluate_at_point,
    length_of,
    sample_markov_point,
    solve_pattern_system,
    trace_of,
)
from frickelab.poly import UniPoly, irreducible_over_Q, isolate_real_roots
from frickelab.tracering import TracePoly, trace_in, trace_polynomial
from frickelab.words import Word, parse_word

from oracles import mat_mul, numeric_trace, random_sl2_rational, word_matrix

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


def field_reference(pt, w):
    """trace_in over the point's FieldElements: one reduction and one gcd per operation."""
    one, zero = pt.field.from_rational(1), pt.field.from_rational(0)
    return trace_in(w.letters, *pt.coords, one, zero)


def field_point_words(name):
    rng = random.Random(3003)
    yield from (parse_word(text) for text in ("1", "a", "A", "b", "B"))
    yield from (rand_word(rng, 80) for _ in range(300))
    if name == "paper":
        yield from (parse_word(text) ** n for text, n in (("ab", 500), ("aB", 200), ("aab", 60)))


def cubic_point():
    """Three irrational coordinates with distinct denominators in Q(theta),
    theta the real root of 7t^3 + 3t^2 - 5, whose leading coefficient is
    not 1; trace_of takes no membership for granted."""
    f = UniPoly([-5, 0, 3, 7])
    field = NumberField(f, make_algebraic(f, isolate_real_roots(f)[0]), irreducible_over_Q(f))
    t = field.gen()
    return FrickePoint.from_field_elements(field, t + Fraction(5, 3), t * t - Fraction(1, 4), t / 3 + 2)


@pytest.mark.parametrize("name", ["paper", "markov", "cubic"])
def test_trace_of_field_points_matches_trace_in(name):
    # the Markov point's field is Q(theta), theta a root of the non-monic 25t^2 - 240t + 481
    pt = {
        "paper": lambda: solve_pattern_system(128),
        "markov": lambda: sample_markov_point(Fraction(3), Fraction(16, 5)),
        "cubic": cubic_point,
    }[name]()
    assert pt.kind == "field" and pt.field.defining.lc() == {"paper": 1, "markov": 25, "cubic": 7}[name]
    for w in field_point_words(name):
        got, want = trace_of(pt, w).value, field_reference(pt, w)
        assert (got._nums, got._den) == (want._nums, want._den), w


def random_sl2_large_denominators(rng):
    """SL(2, Q) matrix whose entries have denominators of about 10^3 to 10^4."""
    a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 4), rng.randint(10 ** 3, 10 ** 4))
    b = Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(10 ** 3, 10 ** 4))
    c = Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(10 ** 3, 10 ** 4))
    return [[a, b], [c, (1 + b * c) / a]]


def test_exact_sl2_oracle_at_large_common_denominators():
    rng = random.Random(5151)
    for _ in range(40):
        A, B = random_sl2_large_denominators(rng), random_sl2_large_denominators(rng)
        x, y = A[0][0] + A[1][1], B[0][0] + B[1][1]
        ab = mat_mul(A, B)
        z = ab[0][0] + ab[1][1]
        assert math.lcm(*(q.denominator for q in (x, y, z, z - x * y))) >= 10 ** 6
        pt = FrickePoint.from_rationals(x, y, z)
        for w in [parse_word("1"), parse_word("A")] + [rand_word(rng, 30) for _ in range(3)]:
            m = word_matrix(w, A, B)
            assert trace_of(pt, w).value == m[0][0] + m[1][1], w


def test_length_of_at_the_non_monic_markov_point():
    # oracle: mpmath matrices A = [[x, -1], [1, 0]], B = [[0, s], [-1/s, y]]
    # with s + 1/s = z, so tr A = x, tr B = y, tr AB = z, and the length
    # 2 acosh(|tr| / 2) of numeric_trace at 60 digits
    pt = sample_markov_point(Fraction(3), Fraction(16, 5))
    rng = random.Random(6161)
    words = [parse_word(text) for text in ("a", "B", "ab", "abAAB", "aabb")] + [rand_word(rng, 20) for _ in range(20)]
    with mpmath.workdps(60):
        x, y = mpmath.mpf(3), mpmath.mpf(16) / 5
        z = (x * y + mpmath.sqrt((x * y) ** 2 - 4 * (x * x + y * y))) / 2
        s = (z + mpmath.sqrt(z * z - 4)) / 2
        A, B = [[x, -1], [1, 0]], [[0, s], [-1 / s, y]]
        slack = mpmath.mpf(10) ** -40
        checked = 0
        for w in words:
            tr = numeric_trace(w, A, B)
            if abs(abs(tr) - 2) < slack:
                # the identity and conjugates of the commutator: not hyperbolic
                with pytest.raises(NonHyperbolicError):
                    length_of(pt, w)
                continue
            iv = length_of(pt, w)
            assert iv.width() < Fraction(1, 2 ** 96)
            expected = 2 * mpmath.acosh(abs(tr) / 2)
            lo, hi = (mpmath.mpf(q.numerator) / q.denominator for q in (iv.lo, iv.hi))
            assert lo - slack <= expected <= hi + slack, w
            checked += 1
        assert checked >= 20


@pytest.mark.parametrize("name", ["rational", "markov", "cubic"])
def test_per_point_trace_data_is_made_once_with_the_point(monkeypatch, name):
    import frickelab.fricke as fricke

    made = []
    real = fricke._trace_data
    monkeypatch.setattr(fricke, "_trace_data", lambda *args: made.append(args) or real(*args))
    pt = {
        "rational": lambda: FrickePoint.from_rationals(Fraction(1, 2), Fraction(-7, 3), Fraction(5, 11)),
        "markov": lambda: sample_markov_point(Fraction(3), Fraction(16, 5)),
        "cubic": cubic_point,
    }[name]()
    assert len(made) == 1
    one, zero = (pt.field.from_rational(1), pt.field.from_rational(0)) if pt.field else (Fraction(1), Fraction(0))
    rng = random.Random(7272)
    for w in [parse_word("1"), parse_word("abAAB")] + [rand_word(rng, 12) for _ in range(5)]:
        # the per-point data gives the value that trace_in gives on the coordinates
        assert trace_of(pt, w).value == trace_in(w.letters, *pt.coords, one, zero), w
    assert len(made) == 1
    interval = FrickePoint.from_intervals(*pt.coordinate_intervals(Fraction(1, 2**64)))
    assert interval._trace_data is None and len(made) == 1
