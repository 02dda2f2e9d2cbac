import random
from fractions import Fraction

import pytest

from frickelab.tracering import (
    TracePoly,
    clear_trace_memo,
    format_tracepoly,
    parse_tracepoly,
    tp_evaluate,
    trace_polynomial,
)
from frickelab.words import Word, concat, invert, parse_word

from oracles import numeric_trace, random_sl2

X = TracePoly.variable("X")
Y = TracePoly.variable("Y")
Z = TracePoly.variable("Z")
COMMUTATOR_TRACE = X ** 2 + Y ** 2 + Z ** 2 - X * Y * Z - TracePoly.constant(2)


def rand_word(rng, max_len):
    return Word([(rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))])


def test_tp_arith():
    assert (X + (-X)).is_zero()
    assert X * Y == TracePoly({(1, 1, 0): 1})
    p = X ** 2 - Y * Z + TracePoly.constant(5)
    assert (p - p).is_zero()


def test_known_trace_polynomials():
    assert trace_polynomial(parse_word("aa")) == X ** 2 - TracePoly.constant(2)
    assert trace_polynomial(parse_word("aab")) == X * Z - Y
    assert trace_polynomial(parse_word("1")) == TracePoly.constant(2)
    assert trace_polynomial(parse_word("abAB")) == COMMUTATOR_TRACE
    assert trace_polynomial(parse_word("a")) == X
    assert trace_polynomial(parse_word("B")) == Y
    assert trace_polynomial(parse_word("ab")) == Z
    assert trace_polynomial(parse_word("aB")) == X * Y - Z


def test_random_matrix_oracle():
    rng = random.Random(20240)
    for _ in range(300):
        w = rand_word(rng, 12)
        A, B = random_sl2(rng), random_sl2(rng)
        x = A[0][0] + A[1][1]
        y = B[0][0] + B[1][1]
        ab = [
            [A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]],
            [A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]],
        ]
        z = ab[0][0] + ab[1][1]
        sym = trace_polynomial(w).evaluate(x, y, z)
        num = numeric_trace(w, A, B)
        assert abs(sym - num) <= 1e-9 * max(1.0, abs(num))


def test_conjugacy_and_inversion_invariance():
    rng = random.Random(7)
    for _ in range(60):
        w = rand_word(rng, 10)
        u = rand_word(rng, 6)
        conjugated = concat(concat(u, w), invert(u))
        assert trace_polynomial(conjugated) == trace_polynomial(w)
        assert trace_polynomial(invert(w)) == trace_polynomial(w)


def test_fundamental_identity_symbolic():
    rng = random.Random(99)
    for _ in range(60):
        u = rand_word(rng, 10)
        v = rand_word(rng, 10)
        lhs = (
            trace_polynomial(u) * trace_polynomial(v)
            - trace_polynomial(concat(u, v))
            - trace_polynomial(concat(u, invert(v)))
        )
        assert lhs.is_zero()


def test_memoization_is_transparent():
    rng = random.Random(3)
    ws = [rand_word(rng, 9) for _ in range(25)]
    warm = [trace_polynomial(w) for w in ws]
    clear_trace_memo()
    cold = [trace_polynomial(w) for w in ws]
    assert warm == cold


def test_trace_constant_on_cyclic_reduction():
    from frickelab.words import cyclic_reduce

    rng = random.Random(13)
    for _ in range(40):
        w = rand_word(rng, 10)
        assert trace_polynomial(w) == trace_polynomial(cyclic_reduce(w))


def test_evaluate_exact_points():
    p = X ** 2 - TracePoly.constant(2)
    assert tp_evaluate(p, Fraction(3), Fraction(0), Fraction(0)) == 7
    m = X ** 2 + Y ** 2 + Z ** 2 - X * Y * Z
    assert tp_evaluate(m, Fraction(3), Fraction(3), Fraction(3)) == 0


def test_format_and_parse():
    assert format_tracepoly(trace_polynomial(parse_word("aa"))) == "X^2 - 2"
    assert format_tracepoly(trace_polynomial(parse_word("aab"))) == "X*Z - Y"
    assert format_tracepoly(COMMUTATOR_TRACE) == "-X*Y*Z + X^2 + Y^2 + Z^2 - 2"
    assert format_tracepoly(TracePoly()) == "0"
    for text in ("X^2 - 2", "X*Z - Y", "-X*Y*Z + X^2 + Y^2 + Z^2 - 2", "0", "3*X^2*Y - 4"):
        assert format_tracepoly(parse_tracepoly(text)) == text


@pytest.mark.parametrize("text", ["X - -Y", "X -+ Y", "--X", "X +", "-"])
def test_parse_rejects_doubled_or_dangling_signs(text):
    with pytest.raises(ValueError):
        parse_tracepoly(text)


# Strings each parser accepts or rejects, pinned so that the trace and
# variety parsers keep their own grammars: integer coefficients and
# exponents read by int() here, X1..Xn and Fraction coefficients there.
@pytest.mark.parametrize(
    "text, expected",
    [
        ("X^ 10", "X^10"),
        ("X^1_0", "X^10"),
        ("X^\n5", "X^5"),
        ("3*X*X^2 - X^3", "2*X^3"),
        ("2*X^2*Z - Y + 3", "2*X^2*Z - Y + 3"),
        (" Z ", "Z"),
        ("2.0*X", None),
        ("1e2", None),
        ("X - -Y", None),
        ("X1 - X5", None),
        ("X0 - X1", None),
        ("1/2*X1 - 3/2*X2 + 1", None),
        ("X1^", None),
        ("X^", None),
        ("XY", None),
        ("X*", None),
        ("", None),
    ],
)
def test_parse_tracepoly_accepts_and_rejects(text, expected):
    if expected is None:
        with pytest.raises(ValueError):
            parse_tracepoly(text)
    else:
        assert format_tracepoly(parse_tracepoly(text)) == expected
