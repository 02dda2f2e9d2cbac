import math
import random
from fractions import Fraction

import mpmath
import pytest

from frickelab import tracering
from frickelab.algebraic import make_algebraic
from frickelab.fricke import (
    MARKOV,
    _coord_cmp_rational,
    PATTERN_PAIRS,
    FrickePoint,
    NonHyperbolicError,
    eliminate_by_resultants,
    eliminate_by_substitution,
    eliminate_pattern_system,
    in_teichmuller,
    length_of,
    markov_residual,
    sample_markov_point,
    solve_pattern_system,
    trace_of,
)
from frickelab.intervals import PrecisionError, RatInterval
from frickelab.poly import UniPoly
from frickelab.tracering import TracePoly, trace_polynomial
from frickelab.words import parse_word

from oracles import bisect_root, rational_sturm_count, word_matrix

QUINTIC = UniPoly([-4, 4, 3, -4, -2, 1])


def test_markov_residual_rational_points():
    assert markov_residual(FrickePoint.from_rationals(3, 3, 3)).value == 0
    assert markov_residual(FrickePoint.from_rationals(3, 3, 4)).value == -2


def test_markov_residual_solved_point():
    pt = solve_pattern_system(128)
    res = markov_residual(pt)
    assert res.is_certified_zero()
    iv = res.interval(Fraction(1, 2 ** 128))
    assert iv.contains_zero() and iv.width() < Fraction(1, 2 ** 96)
    # the interval route through the coordinate enclosures
    interval_res = MARKOV.evaluate(*pt.coordinate_intervals(Fraction(1, 2 ** 128)))
    assert interval_res.contains_zero()
    assert interval_res.width() < Fraction(1, 2 ** 96)


def test_in_teichmuller():
    assert in_teichmuller(FrickePoint.from_rationals(3, 3, 3)).member
    assert not in_teichmuller(FrickePoint.from_rationals(2, 2, 2)).member
    assert not in_teichmuller(FrickePoint.from_rationals(3, 3, 4)).member
    assert in_teichmuller(solve_pattern_system(128)).member


def test_in_teichmuller_interval_route():
    solved = solve_pattern_system(128)
    pt = FrickePoint.from_intervals(*solved.coordinate_intervals(Fraction(1, 2 ** 128)))
    cert = in_teichmuller(pt, Fraction(1, 2 ** 96))
    assert cert.member
    assert "within tolerance" in cert.to_text()


def test_evaluation_width_shrinks_with_input_width():
    solved = solve_pattern_system(128)
    base = solved.coordinate_intervals(Fraction(1, 2 ** 128))

    def padded(iv, width):
        pad = (width - iv.width()) / 2
        return RatInterval(iv.lo - pad, iv.hi + pad)

    widths = []
    for bits in (20, 40, 60):
        coords = [padded(iv, Fraction(1, 2 ** bits)) for iv in base]
        pt = FrickePoint.from_intervals(*coords)
        widths.append(markov_residual(pt).value.width())
    assert widths[0] > widths[1] > widths[2]
    # residual interval always contains the true value zero
    assert all(w > 0 for w in widths)


def test_in_teichmuller_interval_outside_tolerance():
    # the Markov residual at (3, 3, 4) is -2, far outside any tolerance
    box = [RatInterval(c - Fraction(1, 2 ** 101), c + Fraction(1, 2 ** 101)) for c in (3, 3, 4)]
    cert = in_teichmuller(FrickePoint.from_intervals(*box), Fraction(1, 2 ** 96))
    assert not cert.member
    assert "markov residual: certified outside tolerance" in cert.lines
    assert cert.to_text().endswith("verdict: NotMember")


def test_in_teichmuller_interval_precision_error():
    wide = RatInterval(Fraction(29, 10), Fraction(3))
    pt = FrickePoint.from_intervals(wide, wide, RatInterval(Fraction(32, 10), Fraction(33, 10)))
    with pytest.raises(PrecisionError):
        in_teichmuller(pt, Fraction(1, 2 ** 96))


def _sign_at_the_paper_root(coeffs, q):
    """Exact sign of sum c_i theta^i - q for the quintic's real root theta:
    oracle bisection brackets theta until the textbook Sturm count finds no
    root of that polynomial in the bracket, and its sign at an endpoint is
    the answer."""
    r = [Fraction(c) for c in coeffs]
    r[0] -= q
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return 0
    poly = UniPoly([c * math.lcm(*(c.denominator for c in r)) for c in r])
    eps = Fraction(1, 2 ** 8)
    while True:
        lo, hi = bisect_root(QUINTIC.coeffs, 2, 3, eps)
        if poly.evaluate(lo) and poly.evaluate(hi) and rational_sturm_count(poly, lo, hi) == 0:
            v = poly.evaluate(lo)
            return (v > 0) - (v < 0)
        eps /= 2 ** 32


def test_coordinate_comparison_is_the_exact_sign_of_the_difference():
    rng = random.Random(61)
    for _ in range(200):
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        q = rng.choice([c, Fraction(rng.randint(-40, 40), rng.randint(1, 6))])
        expected = (c > q) - (c < q)
        assert _coord_cmp_rational(c, q) == expected
        assert _coord_cmp_rational(RatInterval.point(c), q) == expected
    x, _, z = solve_pattern_system(128).coords
    field = x.field
    for c in (x, z, x * z - 7, field.from_rational(Fraction(7, 3))):
        near = c.interval(Fraction(1, 2 ** 200)).lo
        for bits in (0, 8, 40, 150):
            q = Fraction(round(near * 2 ** bits), 2 ** bits)
            for q in (q, q - Fraction(1, 2 ** bits), q + Fraction(1, 2 ** bits)):
                assert _coord_cmp_rational(c, q) == _sign_at_the_paper_root(c.coeffs, q), (c, q)
    assert _coord_cmp_rational(field.from_rational(Fraction(7, 3)), Fraction(7, 3)) == 0


def test_coordinate_comparison_refuses_a_straddling_interval():
    for lo, hi, q in ((Fraction(29, 10), 3, Fraction(295, 100)), (2, 3, 2), (2, 3, 3), (-1, 1, 0)):
        with pytest.raises(PrecisionError, match="is undecidable"):
            _coord_cmp_rational(RatInterval(lo, hi), q)
    assert _coord_cmp_rational(RatInterval(2, 3), 2 - Fraction(1, 10 ** 30)) == 1
    assert _coord_cmp_rational(RatInterval(2, 3), 3 + Fraction(1, 10 ** 30)) == -1


def test_elimination():
    q = eliminate_pattern_system()
    assert q.coeffs == (-4, 4, 3, -4, -2, 1)
    sub, res = eliminate_by_substitution(), eliminate_by_resultants()
    assert sub == res or sub == -res
    assert q.degree() == 5
    assert q == q.primitive_part()
    assert q.evaluate(2) < 0 < q.evaluate(3)


def test_pattern_constraints_are_the_hand_derived_ones():
    X, Y, Z = (TracePoly.variable(v) for v in "XYZ")
    assert [(str(u), str(v)) for u, v in PATTERN_PAIRS] == [("a", "b"), ("aa", "aab")]
    c1, c2 = (trace_polynomial(u) - trace_polynomial(v) for u, v in PATTERN_PAIRS)
    assert c1 == X - Y
    assert c2 == X ** 2 - TracePoly.constant(2) - (Z * X - Y)


def test_elimination_cross_check_covers_the_trace_ring(monkeypatch):
    # X*c1 read as Y*c1 in the a-rule for c1 changes tr(aa) to XY - 2:
    # the resultant route, built from trace_polynomial, must disagree
    rules = list(tracering._LETTER_RULES[("a", 1)])
    assert rules[1] == "c0 + X*c1 + Y*c2 + Z*c3"
    rules[1] = "c0 + Y*c1 + Y*c2 + Z*c3"
    monkeypatch.setitem(tracering._PACKED_RULES, ("a", 1), tuple(map(tracering._packed_rule, rules)))
    with pytest.raises(AssertionError, match="elimination routes disagree"):
        eliminate_pattern_system()


def test_solved_point_carries_its_isolation():
    pt = solve_pattern_system(128)
    assert pt.field.defining == QUINTIC
    assert pt.field.irreducibility.is_irreducible()
    isolated, count = pt._isolation
    assert count == 1
    assert isolated.poly == QUINTIC
    assert isolated.hi - isolated.lo < Fraction(1, 4)
    root = pt.field.root
    assert isolated.lo <= root.lo < root.hi <= isolated.hi
    assert FrickePoint.from_rationals(3, 3, 3)._isolation is None


def test_solved_point_coordinates():
    pt = solve_pattern_system(128)
    x, y, z = pt.coords
    assert x == y
    assert x.cmp_rational(2) == 1 and z.cmp_rational(2) == 1
    # y = x and x^2 - 2 = zx - y hold exactly
    assert (x - y).is_zero()
    assert ((x * x - 2) - (z * x - y)).is_zero()
    # x0 digits
    iv = x.interval(Fraction(1, 10 ** 7))
    assert int(iv.lo * 10 ** 5) == int(iv.hi * 10 ** 5) == 291330
    # z0 approximately 3.2268
    zv = z.interval(Fraction(1, 10 ** 7))
    assert abs(float(zv.mid()) - 3.2267948) < 1e-5
    # coordinates honor the requested refinement width
    assert (x.field.root.hi - x.field.root.lo) < Fraction(1, 2 ** 128)


def test_trace_of_solved_point():
    pt = solve_pattern_system(128)
    x = pt.coords[0]
    tr_a = trace_of(pt, parse_word("a"))
    assert tr_a.value == x
    tr_aa = trace_of(pt, parse_word("aa"))
    tr_aab = trace_of(pt, parse_word("aab"))
    assert tr_aa.value == (x * x - 2)
    assert tr_aa.value == tr_aab.value  # the defining pattern
    assert abs(float(tr_aa.interval(Fraction(1, 10 ** 6)).mid()) - 6.4873238) < 1e-5


def test_length_of_known_value():
    pt = solve_pattern_system(128)
    iv = length_of(pt, parse_word("a"), Fraction(1, 10 ** 12))
    assert iv.width() < Fraction(1, 10 ** 12)
    # independent high-precision oracle: 2 acosh(x0 / 2)
    mpmath.mp.dps = 40
    x0 = mpmath.findroot(lambda t: t ** 5 - 2 * t ** 4 - 4 * t ** 3 + 3 * t ** 2 + 4 * t - 4, 2.9)
    expected = 2 * mpmath.acosh(x0 / 2)
    assert abs(float(iv.mid()) - float(expected)) < 1e-11


def test_length_round_trip():
    pt = solve_pattern_system(128)
    for text in ("a", "ab", "aab"):
        w = parse_word(text)
        iv = length_of(pt, w, Fraction(1, 10 ** 15))
        tr = trace_of(pt, w).interval(Fraction(1, 10 ** 15))
        mpmath.mp.dps = 40
        back = 2 * mpmath.cosh(mpmath.mpf(iv.mid().numerator) / mpmath.mpf(iv.mid().denominator) / 2)
        assert abs(float(back) - float(tr.mid())) < 2e-15


def test_length_monotone_in_trace():
    pt = solve_pattern_system(128)
    words = [parse_word(t) for t in ("a", "ab", "aab", "aabb")]
    pairs = []
    for w in words:
        tr = trace_of(pt, w).interval(Fraction(1, 10 ** 9))
        ln = length_of(pt, w, Fraction(1, 10 ** 9))
        assert ln.lo > 0
        pairs.append((tr.mid(), ln.mid()))
    pairs.sort()
    lengths = [ln for _, ln in pairs]
    assert lengths == sorted(lengths)


def test_length_rejects_non_hyperbolic():
    pt = FrickePoint.from_rationals(2, 3, 3)
    with pytest.raises(NonHyperbolicError):
        length_of(pt, parse_word("a"), Fraction(1, 1000))
    with pytest.raises(NonHyperbolicError):
        length_of(FrickePoint.from_rationals(1, 3, 3), parse_word("a"), Fraction(1, 1000))


def test_length_of_negative_trace():
    # abAAB has trace about -8.74 at the solved point: hyperbolic, length
    # 2 acosh(|tr| / 2).  Oracle: an mpmath matrix pair with tr A = tr B = x0
    # and tr AB = z0 = (x0^2 + x0 - 2) / x0.
    pt = solve_pattern_system(128)
    iv = length_of(pt, parse_word("abAAB"))
    assert iv.width() < Fraction(1, 2 ** 96)
    mpmath.mp.dps = 60
    x0 = mpmath.findroot(lambda t: t ** 5 - 2 * t ** 4 - 4 * t ** 3 + 3 * t ** 2 + 4 * t - 4, 2.9)
    z0 = (x0 ** 2 + x0 - 2) / x0
    s = (z0 + mpmath.sqrt(z0 ** 2 - 4)) / 2
    A = [[x0, -1], [1, 0]]
    B = [[0, s], [-1 / s, x0]]
    m = word_matrix(parse_word("abAAB"), A, B)
    tr = m[0][0] + m[1][1]
    assert -9 < tr < -8
    expected = 2 * mpmath.acosh(-tr / 2)
    slack = mpmath.mpf(10) ** -45
    lo, hi = (mpmath.mpf(q.numerator) / q.denominator for q in (iv.lo, iv.hi))
    assert lo - slack <= expected <= hi + slack
    # tr(abAB) = -2 at every point of T(1,1): parabolic, still refused
    with pytest.raises(NonHyperbolicError):
        length_of(pt, parse_word("abAB"))


def test_length_of_interval_traces_near_minus_two():
    near = RatInterval(Fraction(-21, 10), Fraction(-19, 10))
    pt = FrickePoint.from_intervals(near, RatInterval.point(3), RatInterval.point(3))
    with pytest.raises(NonHyperbolicError):
        length_of(pt, parse_word("a"))
    below = RatInterval(Fraction(-31, 10), Fraction(-29, 10))
    pt = FrickePoint.from_intervals(below, RatInterval.point(3), RatInterval.point(3))
    iv = length_of(pt, parse_word("a"), Fraction(1, 2))
    assert iv.contains(Fraction(1924, 1000))  # 2 acosh(3/2) = 1.9248...


def test_length_of_interval_point_stops_after_one_try(monkeypatch):
    # a box's trace enclosure does not narrow with eps: one try, then refuse
    import frickelab.fricke

    calls = []
    interval = frickelab.fricke.EvalResult.interval

    def counting(self, eps):
        calls.append(eps)
        return interval(self, eps)

    monkeypatch.setattr(frickelab.fricke.EvalResult, "interval", counting)
    r = Fraction(1, 2 ** 20)
    box = FrickePoint.from_intervals(*[RatInterval(3 - r, 3 + r)] * 3)
    with pytest.raises(NonHyperbolicError, match="did not reach width"):
        length_of(box, parse_word("ab"))
    assert len(calls) == 1


def test_length_of_raises_precision_when_the_first_enclosure_is_too_wide(monkeypatch):
    # trace just above 2: the first enclosure of 2 acosh(x/2) is too wide,
    # so length_of narrows the trace and raises the working precision once
    import frickelab.fricke

    calls = []
    interval = frickelab.fricke.EvalResult.interval

    def counting(self, eps):
        calls.append(eps)
        return interval(self, eps)

    monkeypatch.setattr(frickelab.fricke.EvalResult, "interval", counting)
    x = 2 + Fraction(1, 10 ** 40)
    iv = length_of(FrickePoint.from_rationals(x, 3, 3), parse_word("a"))
    assert len(calls) == 2
    assert iv.width() < Fraction(1, 2 ** 96)
    with mpmath.workprec(600):
        man, exp = (2 * mpmath.acosh(mpmath.mpf(x.numerator) / x.denominator / 2)).man_exp
    assert iv.contains(int(man) * Fraction(2) ** exp)


def test_rational_length_point():
    # trace 3 at a rational point: length = 2 acosh(3/2)
    pt = FrickePoint.from_rationals(3, 3, 3)
    iv = length_of(pt, parse_word("a"), Fraction(1, 10 ** 10))
    mpmath.mp.dps = 30
    assert abs(float(iv.mid()) - float(2 * mpmath.acosh(mpmath.mpf(3) / 2))) < 1e-9


def test_sample_markov_point():
    pt = sample_markov_point(Fraction(3), Fraction(3))
    assert pt is not None
    assert in_teichmuller(pt).member
    rng = random.Random(31)
    produced = 0
    for _ in range(200):
        x = Fraction(rng.randint(21, 80), 10)
        y = Fraction(rng.randint(21, 80), 10)
        p = sample_markov_point(x, y)
        if p is None:
            continue
        produced += 1
        assert in_teichmuller(p).member
        if produced >= 10:
            break
    assert produced >= 10


def test_from_coords_promotion():
    z = make_algebraic(UniPoly([-3, -1, 1]), (2, 3))
    pt = FrickePoint.from_coords(Fraction(3), Fraction(4), z)
    assert pt.kind == "field"
    pt2 = FrickePoint.from_coords(Fraction(3), Fraction(4), Fraction(5))
    assert pt2.kind == "rational"
    other = make_algebraic(UniPoly([-2, 0, 1]), (1, 2))
    with pytest.raises(ValueError):
        FrickePoint.from_coords(z, other, Fraction(3))
