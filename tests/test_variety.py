import random
from fractions import Fraction

import pytest

from frickelab.algebraic import make_algebraic
from frickelab.fricke import FrickePoint, sample_markov_point, solve_pattern_system
from frickelab.intervals import RatInterval
from frickelab.poly import UniPoly
from frickelab.variety import (
    FUNDAMENTAL_IDENTITY,
    IN,
    OUT,
    UNDECIDED,
    PATTERN_POLYNOMIAL,
    check_rigidity_hypothesis,
    format_variety_poly,
    numeric_member,
    parse_variety_poly,
    pattern_member,
    symbolic_residual,
    trace_identity_suite,
)
from frickelab.words import parse_word

QUINTIC = UniPoly([-4, 4, 3, -4, -2, 1])
a, b, ab, aB, aa, aab = map(parse_word, ["a", "b", "ab", "aB", "aa", "aab"])


def test_symbolic_residual_examples():
    assert symbolic_residual(FUNDAMENTAL_IDENTITY, (a, b, ab, aB)).is_zero()
    assert symbolic_residual(PATTERN_POLYNOMIAL, (a, a)).is_zero()
    r = symbolic_residual(PATTERN_POLYNOMIAL, (a, b))
    assert not r.is_zero()
    assert str(r.poly) == "X - Y"


def test_symbolic_residual_arity_mismatch():
    with pytest.raises(ValueError):
        symbolic_residual(PATTERN_POLYNOMIAL, (a, b, ab))


def test_symbolic_residual_clears_rational_coefficients():
    F = parse_variety_poly("1/2*X1 - 1/2*X2")
    r = symbolic_residual(F, (a, b))
    assert r.denominator == 2
    assert str(r.poly) == "X - Y"


def test_numeric_member():
    pt = solve_pattern_system(128)
    assert numeric_member(PATTERN_POLYNOMIAL, (a, b), pt) == IN
    assert numeric_member(PATTERN_POLYNOMIAL, (aa, aab), pt) == IN
    assert numeric_member(PATTERN_POLYNOMIAL, (a, b), FrickePoint.from_rationals(3, 4, 5)) == OUT


def test_pattern_member_examples():
    pt = solve_pattern_system(128)
    assert pattern_member(a, b, pt) == IN
    assert pattern_member(aa, aab, pt) == IN
    assert pattern_member(a, ab, pt) == OUT


def test_pattern_member_symmetry_and_conjugacy():
    rng = random.Random(17)
    pt = sample_markov_point(Fraction(52, 10), Fraction(3))
    assert pt is not None
    from frickelab.words import Word, concat, invert

    for _ in range(15):
        u = Word([(rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))])
        v = Word([(rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))])
        w = Word([(rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))])
        direct = pattern_member(u, v, pt)
        assert pattern_member(v, u, pt) == direct
        assert pattern_member(concat(concat(w, u), invert(w)), v, pt) == direct


def test_symbolic_zero_implies_in_everywhere():
    rng = random.Random(23)
    points = []
    while len(points) < 20:
        x = Fraction(rng.randint(21, 90), 10)
        y = Fraction(rng.randint(21, 90), 10)
        p = sample_markov_point(x, y)
        if p is not None:
            points.append(p)
    for pt in points:
        assert numeric_member(FUNDAMENTAL_IDENTITY, (a, b, ab, aB), pt) == IN


def test_algebraic_points_never_undecided():
    rng = random.Random(29)
    checked = 0
    while checked < 25:
        x = Fraction(rng.randint(21, 90), 10)
        y = Fraction(rng.randint(21, 90), 10)
        pt = sample_markov_point(x, y)
        if pt is None:
            continue
        checked += 1
        assert pattern_member(a, b, pt) in (IN, OUT)
        assert pattern_member(aa, aab, pt) in (IN, OUT)


def test_solved_point_uniqueness_among_samples():
    rng = random.Random(41)
    seen = 0
    while seen < 100:
        x = Fraction(rng.randint(21, 120), 10)
        y = x if seen % 9 == 4 else Fraction(rng.randint(21, 120), 10)
        pt = sample_markov_point(x, y)
        if pt is None:
            continue
        seen += 1
        both = pattern_member(a, b, pt) == IN and pattern_member(aa, aab, pt) == IN
        assert not both


def test_undecided_only_on_interval_points():
    from frickelab.intervals import RatInterval

    wide = RatInterval(Fraction(28, 10), Fraction(30, 10))
    pt = FrickePoint.from_intervals(wide, wide, wide)
    assert pattern_member(a, b, pt) == UNDECIDED  # tr a - tr b straddles zero
    narrow_x = RatInterval(Fraction(3), Fraction(3))
    pt2 = FrickePoint.from_intervals(narrow_x, RatInterval(Fraction(4), Fraction(4)), wide)
    assert pattern_member(a, b, pt2) == OUT


def test_rigidity_hypothesis_examples():
    rep = check_rigidity_hypothesis([a], {(1,): UniPoly([-3, 1])}, FrickePoint.from_rationals(3, 3, 3))
    assert rep.satisfied
    assert "verdict: Satisfied" in rep.to_text()

    x13 = make_algebraic(UniPoly([-3, -1, 1]), (2, 3))
    pt = FrickePoint.from_coords(x13, Fraction(3), Fraction(3))
    rep = check_rigidity_hypothesis([a], {(1,): UniPoly([-3, -1, 1])}, pt)
    assert rep.satisfied

    solved = solve_pattern_system(128)
    rep = check_rigidity_hypothesis([a], {(1,): QUINTIC}, solved)
    assert not rep.satisfied
    assert rep.checks[0].trace_is_root  # the trace is a root; Salem-ness is what fails
    assert rep.checks[0].salem.status == "NotSalem"
    assert "verdict: NotSatisfied" in rep.to_text()


def test_rigidity_hypothesis_at_an_interval_point():
    # tr a is the box's x interval, 2^-100 wide around 3: x - 3 vanishes
    # there within the default tolerance 2^-96, but not exactly
    box = [RatInterval(3 - Fraction(1, 2 ** 101), 3 + Fraction(1, 2 ** 101))] * 3
    rep = check_rigidity_hypothesis([a], {(1,): UniPoly([-3, 1])}, FrickePoint.from_intervals(*box))
    assert rep.satisfied
    assert rep.checks[0].trace_is_root and not rep.checks[0].exact
    assert "root: certified (interval tolerance only)" in rep.to_text()
    assert "verdict: Satisfied" in rep.to_text()


def test_rigidity_hypothesis_missing_subset():
    with pytest.raises(ValueError) as exc:
        check_rigidity_hypothesis([a, b], {(1,): UniPoly([-3, 1])}, FrickePoint.from_rationals(3, 3, 3))
    assert "{2}" in str(exc.value)


def test_rigidity_set_listing():
    rep = check_rigidity_hypothesis(
        [a, b],
        {
            (1,): UniPoly([-3, 1]),
            (2,): UniPoly([-3, 1]),
            (1, 2): UniPoly([-3, 1]),
        },
        FrickePoint.from_rationals(3, 3, 3),
    )
    assert rep.rigidity_set[0] == "X1*X2 - X3 - X4"
    assert len(rep.rigidity_set) == 4


def test_identity_suite():
    rep = trace_identity_suite(200, 10, seed=404)
    assert rep.passed()
    assert rep.samples == 200
    trivial = trace_identity_suite(1, 0, seed=0)
    assert trivial.passed()  # identity words: 2*2 - 2 - 2 = 0
    broken = trace_identity_suite(60, 8, seed=404, polynomial=parse_variety_poly("X1*X2 - X3", arity=4))
    assert not broken.passed()
    assert broken.failures
    assert "verdict: Fail" in broken.to_text()


def test_identity_suite_rejects_empty_runs():
    with pytest.raises(ValueError, match="sample_count"):
        trace_identity_suite(0, 5)
    with pytest.raises(ValueError, match="sample_count"):
        trace_identity_suite(-3, 5)
    with pytest.raises(ValueError, match="max_len"):
        trace_identity_suite(10, -1)


def test_identity_suite_reproducible():
    r1 = trace_identity_suite(50, 8, seed=7)
    r2 = trace_identity_suite(50, 8, seed=7)
    assert r1 == r2


def test_variety_poly_text():
    F = parse_variety_poly("X1*X2 - X3 - X4")
    assert F == FUNDAMENTAL_IDENTITY
    assert format_variety_poly(F) == "X1*X2 - X3 - X4"
    G = parse_variety_poly("2*X1^2 - 3/2*X2 + 1")
    assert G.arity == 2
    assert G.terms[(2, 0)] == 2 and G.terms[(0, 1)] == Fraction(-3, 2)
    with pytest.raises(ValueError):
        parse_variety_poly("X1 - X5", arity=2)
    for text in ("", "--X1", "X1 - -X2", "X1 -+ X2", "X1 -"):
        with pytest.raises(ValueError):
            parse_variety_poly(text)


# Strings parse_variety_poly accepts (with the arity it gives them) or
# rejects (with its message), pinned so that the variety grammar stays its
# own: X1..Xn with int exponents, coefficients read by Fraction.
@pytest.mark.parametrize(
    "text, arity, expected",
    [
        ("1/2*X1 - 3/2*X2 + 1", None, (2, "1/2*X1 - 3/2*X2 + 1")),
        ("1e2", None, (1, "100")),
        ("2.0*X1", None, (1, "2*X1")),
        ("X01*X1", None, (1, "X1^2")),
        ("X2^0", None, (2, "1")),
        ("0*X1", None, (1, "0")),
        ("+X1", 2, (2, "X1")),
        ("X1 - X5", None, (5, "X1 - X5")),
        ("X1 - X5", 2, "variable X5 exceeds declared arity 2"),
        ("X0 - X1", None, "variable index must be >= 1 in 'X0'"),
        ("X0*", None, "variable index must be >= 1 in 'X0'"),
        ("X1*", None, "empty factor in 'X1*'"),
        ("X - -Y", None, "sign without a term in 'X - -Y'"),
        ("X^ 10", None, "Invalid literal for Fraction: 'X^ 10'"),
        ("2.0*X", None, "Invalid literal for Fraction: 'X'"),
        ("X1^", None, "Invalid literal for Fraction: 'X1^'"),
        ("X1^ 10", None, "Invalid literal for Fraction: 'X1^ 10'"),
        ("", None, "empty variety polynomial text"),
        ("1/0*X1", None, "zero denominator in '1/0'"),
        ("X1 - 3*2/0*X2", None, "zero denominator in '2/0'"),
    ],
)
def test_parse_variety_poly_accepts_and_rejects(text, arity, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            parse_variety_poly(text, arity)
        assert str(info.value) == expected
    else:
        F = parse_variety_poly(text, arity)
        assert (F.arity, format_variety_poly(F)) == expected
