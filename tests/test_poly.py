import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frickelab.poly import (
    EndpointRootError,
    IsolationError,
    UniPoly,
    NEG_INF,
    POS_INF,
    discriminant,
    exact_div,
    factor_mod_p,
    format_poly,
    gcd,
    irreducible_over_Q,
    isolate_real_roots,
    parse_poly,
    primes,
    rational_roots,
    refine_root,
    resultant,
    square_free_part,
    sturm_chain,
    sturm_count,
    sylvester_matrix,
)

from oracles import brute_force_factor_degrees, fraction_det, rational_sturm_count

QUINTIC = UniPoly([-4, 4, 3, -4, -2, 1])

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=7).map(UniPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


def test_arith_examples():
    x = UniPoly([0, 1])
    one = UniPoly([1])
    assert (x + one) + (-(x + one)) == UniPoly()
    assert (x - one) * (x + one) == UniPoly([-1, 0, 1])
    p = UniPoly([3, 1, 4])
    assert p * one == p


def test_evaluate_examples():
    assert QUINTIC.evaluate(0) == -4
    # coefficient sum: 1 - 2 - 4 + 3 + 4 - 4
    assert QUINTIC.evaluate(1) == -2
    assert UniPoly().evaluate(7) == 0
    assert QUINTIC.evaluate(Fraction(1, 2)) == Fraction(-4) + 2 + Fraction(3, 4) - Fraction(4, 8) - Fraction(2, 16) + Fraction(1, 32)


def _sign(v):
    return (v > 0) - (v < 0)


wide_polys = st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=9).map(UniPoly)
huge_rationals = st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 10**60))


@settings(max_examples=200)
@given(
    st.one_of(small_polys, wide_polys),
    st.one_of(st.integers(-10**6, 10**6), st.fractions(), huge_rationals),
)
def test_sign_at_matches_exact_evaluation(p, t):
    assert p.sign_at(t) == _sign(p.evaluate(t))


@settings(max_examples=100)
@given(small_polys, st.one_of(st.integers(-50, 50), st.fractions(max_denominator=10**9), huge_rationals))
def test_sign_at_is_zero_at_roots(p, t):
    t = Fraction(t)
    root = UniPoly([-t.numerator, t.denominator])  # den*x - num vanishes at t
    q = p * root
    assert q.sign_at(t) == 0 == _sign(q.evaluate(t))
    assert (q + UniPoly([1])).sign_at(t) == 1


def test_derivative_examples():
    assert UniPoly([-2, 0, 1]).derivative() == UniPoly([0, 2])
    assert UniPoly([5]).derivative() == UniPoly()
    assert QUINTIC.derivative() == UniPoly([4, 6, -12, -8, 5])


def test_gcd_examples():
    assert gcd(UniPoly([-1, 0, 1]), UniPoly([-1, 1])) == UniPoly([-1, 1])
    assert gcd(UniPoly([1, 0, 1]), UniPoly([-1, 0, 1])) == UniPoly([1])
    assert gcd(QUINTIC, QUINTIC.derivative()) == UniPoly([1])
    with pytest.raises(ValueError):
        gcd(UniPoly(), UniPoly())


def test_gcd_positive_leading_and_primitive():
    p = UniPoly([-2, 2]).scale(3)  # 6x - 6
    q = UniPoly([2, -4, 2])  # 2(x-1)^2
    g = gcd(p, q)
    assert g == UniPoly([-1, 1])
    assert g.lc() > 0


def test_resultant_examples():
    assert resultant(UniPoly([-2, 1]), UniPoly([-3, 1])) == -1
    assert resultant(UniPoly([-2, 0, 1]), UniPoly([-2, 0, 1])) == 0
    assert resultant(UniPoly([-2, 0, 1]), UniPoly([-1, 1])) == -1
    with pytest.raises(ValueError):
        resultant(UniPoly(), UniPoly([1, 1]))


def test_resultant_matches_fraction_determinant():
    rng = random.Random(5)
    for _ in range(40):
        p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))])
        q = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))])
        if p.degree() < 1 or q.degree() < 1:
            continue
        assert resultant(p, q) == fraction_det(sylvester_matrix(p, q))


@settings(max_examples=60)
@given(nonzero_polys, nonzero_polys)
def test_resultant_zero_iff_common_factor(p, q):
    if p.degree() < 1 or q.degree() < 1:
        return
    assert (resultant(p, q) == 0) == (gcd(p, q).degree() > 0)


def test_discriminant_examples():
    assert discriminant(UniPoly([-2, 0, 1])) == 8
    assert discriminant(UniPoly([1, 0, 1])) == -4
    assert discriminant(UniPoly([1, -2, 1])) == 0
    assert discriminant(QUINTIC) == 1644224  # 2^6 * 23 * 1117


def test_sturm_chain_shape():
    chain = sturm_chain(QUINTIC)
    assert chain[0] == QUINTIC
    assert chain[1] == QUINTIC.derivative()
    assert chain[-1].degree() == 0  # square-free: terminates at a constant
    # the last element is proportional to gcd(p, p')
    g = gcd(QUINTIC, QUINTIC.derivative())
    assert chain[-1].primitive_part() == g or (-chain[-1]).primitive_part() == g


@settings(max_examples=40)
@given(nonzero_polys)
def test_sturm_count_matches_rational_chain(p):
    sf = square_free_part(p)
    if sf.degree() < 1:
        return
    lo, hi = Fraction(-101, 10), Fraction(101, 10)
    if sf.evaluate(lo) == 0 or sf.evaluate(hi) == 0:
        return
    assert sturm_count(sf, lo, hi) == rational_sturm_count(sf, lo, hi)


def test_sturm_count_examples():
    assert sturm_count(UniPoly([-2, 0, 1]), Fraction(0), Fraction(2)) == 1
    assert sturm_count(UniPoly([1, 0, 1]), Fraction(-10), Fraction(10)) == 0
    assert sturm_count(QUINTIC, NEG_INF, POS_INF) == 1


def test_sturm_count_endpoint_error():
    with pytest.raises(EndpointRootError):
        sturm_count(UniPoly([-4, 0, 1]), Fraction(2), Fraction(5))


def _repeated_root_product(rng):
    """a * b^2 * c^3 with a and b linear and c linear or quadratic, so p
    has a real root of multiplicity 2 or more and is never square-free."""
    a, b, c = (UniPoly([rng.randint(-6, 6) for _ in range(d)] + [rng.choice([1, 1, 2])]) for d in (1, 1, 2))
    if rng.random() < 0.5:
        c = UniPoly([rng.randint(-4, 4), 1])
    return a * b ** 2 * c ** 3


def test_sturm_count_without_square_free_part_matches_rational_chain():
    # counting on p's own chain must give the distinct roots, as textbook
    # Sturm counting over Fractions does, also for endpoints that lie
    # between two repeated roots
    rng = random.Random(1403)
    checked = 0
    for _ in range(150):
        p = _repeated_root_product(rng)
        ivs = isolate_real_roots(p)
        assert sturm_count(p, NEG_INF, POS_INF) == len(ivs)
        points = {Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3])) for _ in range(4)}
        points.update(t for iv in ivs for t in iv)
        points = sorted(t for t in points if p.sign_at(t) != 0)
        for lo, hi in zip(points, points[1:]):
            assert sturm_count(p, lo, hi) == rational_sturm_count(p, lo, hi)
            checked += 1
        for (_, h1), (l2, _) in zip(ivs, ivs[1:]):
            if h1 < l2:
                assert sturm_count(p, h1, l2) == rational_sturm_count(p, h1, l2) == 0
    assert checked >= 600


def test_isolate_examples():
    ivs = isolate_real_roots(UniPoly([-2, 0, 1]))
    assert len(ivs) == 2
    assert -2 < ivs[0][0] < ivs[0][1] < -1 + Fraction(1, 2) and ivs[0][1] < 0
    assert 1 < float(ivs[1][0]) < float(ivs[1][1]) <= 2

    ivs = isolate_real_roots(QUINTIC)
    assert len(ivs) == 1
    assert 2 < float(ivs[0][0]) < float(ivs[0][1]) < 3 or (ivs[0][0] <= 2 <= ivs[0][1])

    # roots of x^2 - x - 3 at (1 +- sqrt 13)/2: -1.302775..., 2.302775...
    ivs = isolate_real_roots(UniPoly([-3, -1, 1]))
    assert len(ivs) == 2
    lo = refine_root(UniPoly([-3, -1, 1]), ivs[0], Fraction(1, 10**6))
    hi = refine_root(UniPoly([-3, -1, 1]), ivs[1], Fraction(1, 10**6))
    assert abs(float((lo[0] + lo[1]) / 2) - (-1.3027756)) < 1e-5
    assert abs(float((hi[0] + hi[1]) / 2) - 2.3027756) < 1e-5


def test_isolate_handles_rational_roots():
    # (x-1)(x-2)(x-3) with a repeated factor mixed in
    p = UniPoly([-6, 11, -6, 1]) * UniPoly([-1, 1])
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    for (lo, hi), root in zip(ivs, (1, 2, 3)):
        assert lo < root < hi
    # intervals pairwise disjoint
    for (a, b), (c, d) in zip(ivs, ivs[1:]):
        assert b <= c


def test_refine_root():
    lo, hi = refine_root(UniPoly([-2, 0, 1]), (Fraction(1), Fraction(2)), Fraction(1, 1000))
    assert hi - lo < Fraction(1, 1000)
    assert lo < Fraction(1414214, 1000000) and hi > Fraction(1414213, 1000000)

    quintic_iv = isolate_real_roots(QUINTIC)[0]
    lo, hi = refine_root(QUINTIC, quintic_iv, Fraction(1, 10**6))
    # x0 = 2.9133011931...
    assert int(lo * 10**5) == int(hi * 10**5) == 291330

    lo, hi = refine_root(UniPoly([-3, 1]), (Fraction(2), Fraction(4)), Fraction(1, 10**9))
    assert lo < 3 < hi and hi - lo < Fraction(1, 10**9)


def test_refine_root_certification_error():
    with pytest.raises(IsolationError):
        refine_root(UniPoly([-2, 0, 1]), (Fraction(2), Fraction(3)), Fraction(1, 100))


@settings(max_examples=40)
@given(nonzero_polys)
def test_refine_keeps_opposite_signs(p):
    if p.degree() < 1:
        return
    sf = square_free_part(p)
    if sf.degree() < 1:
        return
    for iv in isolate_real_roots(p):
        lo, hi = refine_root(sf, iv, Fraction(1, 1000))
        assert sf.sign_at(lo) * sf.sign_at(hi) == -1


@settings(max_examples=50)
@given(nonzero_polys)
def test_sturm_total_matches_isolation(p):
    if p.degree() < 1:
        return
    assert sturm_count(p, NEG_INF, POS_INF) == len(isolate_real_roots(p))


def test_factor_mod_p_examples():
    assert factor_mod_p(UniPoly([1, 0, 1]), 2) == ((1, 2),)
    assert factor_mod_p(UniPoly([1, 0, 1]), 5) == ((1, 1), (1, 1))
    # scan ascending primes for the first single degree-5 factor
    first = next(
        prime
        for prime in primes(200)
        if QUINTIC.lc() % prime and factor_mod_p(QUINTIC, prime) == ((5, 1),)
    )
    assert first == 5


def test_factor_mod_p_against_trial_division():
    rng = random.Random(11)
    for _ in range(30):
        prime = rng.choice([2, 3, 5, 7])
        p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(3, 7))])
        if p.is_zero() or p.lc() % prime == 0 or p.degree() < 1:
            continue
        reduced = [c % prime for c in p.coeffs]
        if sum(1 for c in reduced if c) == 0 or len([c for c in reduced if c]) == 0:
            continue
        # skip if reduction drops the degree to < 1
        trimmed = list(reduced)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        if len(trimmed) <= 1:
            continue
        assert factor_mod_p(p, prime) == brute_force_factor_degrees(p.coeffs, prime)


def test_factor_mod_p_preconditions():
    with pytest.raises(ValueError):
        factor_mod_p(UniPoly([1, 2]), 2)  # 2 divides the leading coefficient
    with pytest.raises(ValueError):
        factor_mod_p(UniPoly([1, 1]), 4)  # not a prime


@settings(max_examples=40)
@given(nonzero_polys, st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_factor_degrees_sum(p, prime):
    if p.degree() < 1 or p.lc() % prime == 0:
        return
    trimmed = [c % prime for c in p.coeffs]
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if len(trimmed) <= 1:
        return
    assert sum(d * m for d, m in factor_mod_p(p, prime)) == p.degree()


def test_rational_roots():
    assert rational_roots(UniPoly([-1, 0, 1])) == [Fraction(-1), Fraction(1)]
    assert rational_roots(UniPoly([1, 0, 1])) == []
    assert rational_roots(UniPoly([0, 2, 0, 6])) == [Fraction(0)]
    assert rational_roots(UniPoly([-1, 2])) == [Fraction(1, 2)]


def test_irreducibility_examples():
    v = irreducible_over_Q(UniPoly([-2, 0, 1]), 50)
    assert v.status == "irreducible" and v.witness == 3
    v = irreducible_over_Q(UniPoly([-1, 0, 1]), 50)
    assert v.status == "rational_root" and v.root in (Fraction(-1), Fraction(1))
    v = irreducible_over_Q(QUINTIC, 200)
    assert v.status == "irreducible" and v.witness <= 200
    # reducible without rational roots: honest inconclusive
    v = irreducible_over_Q(UniPoly([-2, 0, 1]) * UniPoly([-3, 0, 1]), 100)
    assert v.status == "inconclusive"


@settings(max_examples=60)
@given(nonzero_polys, nonzero_polys, st.fractions(min_value=-5, max_value=5))
def test_evaluate_is_multiplicative(p, q, t):
    assert (p * q).evaluate(t) == p.evaluate(t) * q.evaluate(t)


def test_exact_div():
    p = UniPoly([-1, 0, 1])
    assert exact_div(p, UniPoly([-1, 1])) == UniPoly([1, 1])
    with pytest.raises(ValueError):
        exact_div(UniPoly([1, 1]), UniPoly([0, 1]))


def test_poly_text_format():
    assert format_poly(QUINTIC) == "poly: -4 4 3 -4 -2 1"
    assert parse_poly("poly: -4 4 3 -4 -2 1") == QUINTIC
    assert parse_poly("  -4 4 3 -4 -2 1") == QUINTIC
    assert format_poly(UniPoly()) == "poly: 0"
    with pytest.raises(ValueError):
        parse_poly("poly: ")
    with pytest.raises(ValueError):
        parse_poly("poly: 1 x")
