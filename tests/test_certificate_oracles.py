"""Verdicts that read several facts off one Sturm chain or one prime scan,
checked against independent oracles: the textbook Fraction Sturm count,
trial division over F_p and the full irreducibility scan."""

import math
import random
from fractions import Fraction

import pytest

from frickelab.algebraic import (
    galois_cycle_types,
    is_geometric_salem,
    is_salem,
    make_algebraic,
    salem_transform,
)
from frickelab.cli import main
from frickelab.poly import UniPoly, format_poly, irreducible_over_Q, isolate_real_roots, square_free_part

from oracles import brute_force_factor_degrees, fraction_gcd, rational_sturm_count

QUINTIC = UniPoly([-4, 4, 3, -4, -2, 1])


def _random_poly(rng, deg, lo=-9, hi=9):
    coeffs = [rng.randint(lo, hi) for _ in range(deg)]
    return UniPoly(coeffs + [rng.choice([c for c in range(lo, hi + 1) if c])])


def _outside_all_roots(p):
    """A rational beyond every real root (Cauchy bound, computed here)."""
    return 1 + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.coeffs[-1]))


# -- one prime scan per Galois certificate -------------------------------------------


def _ramified_at_small_primes(rng, deg):
    """p = (x - a)^2 g + 210 h: a repeated factor mod 2, 3, 5 and 7, so each
    of those primes divides disc(p), while p is usually irreducible over Q."""
    a = rng.randint(-3, 3)
    g = UniPoly([rng.randint(-5, 5) for _ in range(deg - 2)] + [1])
    h = UniPoly([rng.randint(-4, 4) for _ in range(deg)])
    return UniPoly([a * a, -2 * a, 1]) * g + h.scale(210)


def _galois_inputs():
    rng = random.Random(20261018)
    out = [_ramified_at_small_primes(rng, rng.randint(3, 6)) for _ in range(12)]
    out += [_random_poly(rng, rng.randint(1, 6)) for _ in range(24)]
    out += [
        UniPoly([-2, 0, 1]) * UniPoly([-3, 0, 1]),  # reducible, no rational root
        QUINTIC * UniPoly([-1, -1, 0, 0, 0, 1]),
        UniPoly([1, 1, 1]) * UniPoly([1, 0, 1]),
        UniPoly([3, 2]),  # linear
        UniPoly([1, 0, 0, 0, 1]),  # x^4 + 1 splits modulo every prime
        QUINTIC * QUINTIC,
        QUINTIC,
    ]
    return out


def test_ramified_inputs_are_ramified():
    rng = random.Random(20261018)
    for _ in range(12):
        p = _ramified_at_small_primes(rng, rng.randint(3, 6))
        for prime in (2, 3, 5, 7):
            assert any(m > 1 for _, m in brute_force_factor_degrees(p.coeffs, prime))


@pytest.mark.parametrize("bound", [2, 13, 500])
def test_galois_irreducibility_equals_full_scan(bound):
    for p in _galois_inputs():
        cert = galois_cycle_types(p, bound)
        assert cert.irreducibility == irreducible_over_Q(square_free_part(p), bound), p


def test_galois_witness_is_lowest_prime_by_trial_division():
    for p in _galois_inputs():
        q = square_free_part(p)
        if q.degree() > 6:
            continue
        cert = galois_cycle_types(q, 13)
        n = q.degree()
        stays_irreducible = [
            prime for prime in (2, 3, 5, 7, 11, 13)
            if q.lc() % prime and brute_force_factor_degrees(q.coeffs, prime) == ((n, 1),)
        ]
        expected = stays_irreducible[0] if stays_irreducible else None
        if cert.irreducibility.status == "irreducible":
            assert cert.irreducibility.witness == expected, p
        else:
            assert expected is None, p


def test_x4_plus_1_stays_inconclusive():
    cert = galois_cycle_types(UniPoly([1, 0, 0, 0, 1]), 500)
    assert cert.irreducibility.status == "inconclusive"
    assert cert.conclusion == "Unknown"


# -- one Sturm chain per Salem verdict ------------------------------------------------


def test_geometric_salem_counts_match_rational_sturm():
    rng = random.Random(77)
    checked = 0
    for _ in range(300):
        p = _random_poly(rng, rng.randint(2, 8))
        ev = is_geometric_salem(p).evidence
        if "roots_in_window" not in ev or p.degree() < 2:
            continue
        m = _outside_all_roots(p)
        assert ev["roots_below_minus2"] == rational_sturm_count(p, -m, Fraction(-2))
        assert ev["roots_in_window"] == rational_sturm_count(p, Fraction(-2), Fraction(2))
        assert ev["roots_above_2"] == rational_sturm_count(p, Fraction(2), m)
        checked += 1
    assert checked >= 100


def test_salem_counts_match_rational_sturm():
    rng = random.Random(78)
    checked = 0
    for _ in range(300):
        deg = rng.randint(2, 8)
        h = UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        ev = is_salem(salem_transform(h)).evidence
        if "h_roots_in_window" not in ev:
            continue
        m = _outside_all_roots(h)
        assert ev["h_roots_in_window"] == rational_sturm_count(h, Fraction(-2), Fraction(2))
        assert ev["h_roots_above_2"] == rational_sturm_count(h, Fraction(2), m)
        checked += 1
    assert checked >= 100


def test_salem_counts_distinct_roots_of_a_non_square_free_h():
    # poly: 1 -5 10 -13 10 -5 1 is t^3 h(t + 1/t) with h = (t - 1)^2 (t - 3)
    h = UniPoly([-3, 7, -5, 1])
    assert h == UniPoly([-1, 1]) ** 2 * UniPoly([-3, 1])
    verdict = is_salem(UniPoly([1, -5, 10, -13, 10, -5, 1]))
    assert verdict.status == "NotSalem"
    ev = verdict.evidence
    assert ev["h_polynomial"] == format_poly(h)
    assert ev["h_roots_in_window"] == rational_sturm_count(h, Fraction(-2), Fraction(2)) == 1
    assert ev["h_roots_above_2"] == rational_sturm_count(h, Fraction(2), _outside_all_roots(h)) == 1
    # the window is short of a root because t = 1 is a double root of h,
    # not because a pair is off the circle: the reason names gcd(h, h')
    assert fraction_gcd(h, h.derivative()) == [-1, 1]
    assert verdict.reason == "(-2, 2) count 1 != 2: h has a repeated root, a root of poly: -1 1"
    # h = (t - 3)(t^2 + 1) is square-free, and its pair +-i is off the circle
    verdict = is_salem(UniPoly([1, -3, 4, -9, 4, -3, 1]))
    h = UniPoly([-3, 1]) * UniPoly([1, 0, 1])
    assert verdict.evidence["h_polynomial"] == format_poly(h)
    assert fraction_gcd(h, h.derivative()) == [1]
    assert verdict.evidence["h_roots_in_window"] == rational_sturm_count(h, Fraction(-2), Fraction(2)) == 0
    assert verdict.reason == "(-2, 2) count 0 != 2: a conjugate pair is off the circle"


# -- AlgebraicReal.cmp_rational without a Sturm chain ------------------------------------


def _oracle_cmp(a, q):
    """Sign of a - q from the textbook Sturm count on (lo, q)."""
    if a.poly.evaluate(q) == 0:
        return 0
    return -1 if rational_sturm_count(a.poly, a.lo, q) == 1 else 1


def test_cmp_rational_matches_rational_sturm():
    rng = random.Random(79)
    polys = [_random_poly(rng, rng.randint(1, 7)) for _ in range(60)]
    # rational roots of their own: the comparison must say 0 there
    polys += [UniPoly([-1, 2]) * UniPoly([-2, 0, 1]), UniPoly([3, -7]) * UniPoly([1, 1, -1, 1])]
    compared = 0
    for p in polys:
        for iv in isolate_real_roots(p):
            a = make_algebraic(p, iv)
            for b in (a, a.refined(Fraction(1, 2**30))):
                w = b.hi - b.lo
                points = [b.lo + w / 10**6, b.hi - w / 10**6, b.lo + w / 3, b.hi - w / 3]
                # rational roots k/d of the linear polynomials d x - k inside (lo, hi)
                for d in range(1, 13):
                    k0 = math.floor(b.lo * d)
                    points += [Fraction(k, d) for k in range(k0, k0 + 3) if b.lo < Fraction(k, d) < b.hi]
                for q in points:
                    assert b.cmp_rational(q) == _oracle_cmp(b, q), (p, b.lo, b.hi, q)
                    compared += 1
    assert compared >= 1000


def test_cmp_rational_zero_at_rational_root():
    half = make_algebraic(UniPoly([-1, 2]) * UniPoly([-2, 0, 1]), (0, 1))
    assert half.cmp_rational(Fraction(1, 2)) == 0
    assert half.cmp_rational(Fraction(1, 2) - Fraction(1, 10**9)) == 1
    assert half.cmp_rational(Fraction(1, 2) + Fraction(1, 10**9)) == -1


def test_is_root_of_matches_rational_sturm():
    # every real root of a product of distinct irreducibles belongs to one
    # factor; is_root_of(f) must agree with the textbook count of f on the
    # isolating interval (whose endpoints are not roots of any factor)
    rng = random.Random(83)
    checked = 0
    for _ in range(25):
        factors = []
        while len(factors) < 3:
            f = _random_poly(rng, rng.randint(1, 4))
            if f.lc() < 0:
                f = -f
            f = f.primitive_part()
            if f not in factors and irreducible_over_Q(f, 50).is_irreducible():
                factors.append(f)
        p = factors[0] * factors[1] * factors[2]
        for iv in isolate_real_roots(p):
            a = make_algebraic(p, iv)
            for b in (a, a.refined(Fraction(1, 2**20))):
                hits = [f for f in factors if b.is_root_of(f)]
                assert len(hits) == 1, (p, b.lo, b.hi)
                for f in factors:
                    assert b.is_root_of(f) == (rational_sturm_count(f, b.lo, b.hi) == 1)
                    assert b.is_root_of(f * p) and b.is_root_of(UniPoly())
                    checked += 1
    assert checked >= 100


# -- golden CLI output on the paper's quintic ---------------------------------------------


GALOIS_GOLDEN = """\
irreducibility: witness prime 5
sample: prime 3 degrees [2, 3]
sample: prime 5 degrees [5]
sample: prime 7 degrees [5]
sample: prime 17 degrees [5]
samples: 93 primes up to 500
note: transitive + n-cycle + transposition generate the symmetric group in prime degree
verdict: FullSymmetric(5)
"""

NONARITH_GOLDEN = """\
minimal polynomial: poly: -4 4 3 -4 -2 1
degree: 5
irreducibility: witness prime 5
galois: FullSymmetric(5)
consequence: S5 is not solvable, so the root is not expressible by radicals
consequence: a trace of the form lambda + 1/lambda with lambda radical is impossible
consequence: the group is not commensurable with the modular group
conclusion: non-arithmetic: certified
verdict: NonArithmeticCertified
"""


def test_galois_golden_output(capsys):
    assert main(["galois", "poly:", "-4", "4", "3", "-4", "-2", "1"]) == 0
    assert capsys.readouterr().out == GALOIS_GOLDEN


def test_nonarith_golden_output(capsys):
    assert main(["nonarith", "poly:", "-4", "4", "3", "-4", "-2", "1"]) == 0
    assert capsys.readouterr().out == NONARITH_GOLDEN


def test_golden_samples_match_trial_division():
    # the shown lines, and the witness: 2 and 3 leave the quintic reducible
    assert brute_force_factor_degrees(QUINTIC.coeffs, 3) == ((2, 1), (3, 1))
    for prime in (5, 7, 17):
        assert brute_force_factor_degrees(QUINTIC.coeffs, prime) == ((5, 1),)
    for prime in (2, 3):
        assert brute_force_factor_degrees(QUINTIC.coeffs, prime) != ((5, 1),)
