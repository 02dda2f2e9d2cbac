"""factor_mod_p against independent oracles: trial division over F_p for
small cases, sympy's factorization mod p for degree 12-20, and negative
controls that must never be certified."""

import random

import pytest

from frickelab.algebraic import galois_cycle_types
from frickelab.poly import UniPoly, factor_mod_p, irreducible_over_Q, primes

from oracles import brute_force_factor_degrees

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def _monic(rng, deg, bound=9):
    return UniPoly([rng.randint(-bound, bound) for _ in range(deg)] + [1])


def _power_of_x(h, prime):
    """h(x^prime): its derivative vanishes mod prime."""
    coeffs = [0] * (prime * h.degree() + 1)
    for i, c in enumerate(h.coeffs):
        coeffs[prime * i] = c
    return UniPoly(coeffs)


def _small_cases(rng):
    """Random, a*b^2, a^3 and h(x^p) inputs of degree <= 8 for primes <= 13."""
    for _ in range(60):
        prime = rng.choice(SMALL_PRIMES)
        p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [rng.randint(1, 4)])
        yield p, prime
    for _ in range(25):
        a, b = _monic(rng, rng.randint(1, 4)), _monic(rng, rng.randint(1, 2))
        yield a * b * b, rng.choice(SMALL_PRIMES)
    for _ in range(15):
        a = _monic(rng, rng.randint(1, 2))
        yield a * a * a, rng.choice(SMALL_PRIMES)
    for prime in (11, 13):
        for _ in range(3):
            yield _monic(rng, 8), prime
    for prime in (2, 3):
        for _ in range(10):
            yield _power_of_x(_monic(rng, rng.randint(1, 8 // prime)), prime), prime


def test_factor_mod_p_matches_trial_division_up_to_degree_8():
    checked = 0
    for p, prime in _small_cases(random.Random(2718)):
        if p.lc() % prime == 0:
            continue
        assert factor_mod_p(p, prime) == brute_force_factor_degrees(p.coeffs, prime), (p, prime)
        checked += 1
    assert checked >= 100


def test_factor_mod_p_inseparable_inputs():
    # x^6 + x^3 + 1 = (x^2 + x + 1)^3 = (x - 1)^6 mod 3
    assert factor_mod_p(UniPoly([1, 0, 0, 1, 0, 0, 1]), 3) == ((1, 6),)
    # x^6 - 1 = (x^2 - 1)^3 mod 3
    assert factor_mod_p(UniPoly([-1, 0, 0, 0, 0, 0, 1]), 3) == ((1, 3), (1, 3))
    # x^8 + x^2 + 1 = (x^4 + x + 1)^2 mod 2, the quartic is irreducible
    assert factor_mod_p(UniPoly([1, 0, 1, 0, 0, 0, 0, 0, 1]), 2) == ((4, 2),)


def _sympy_degrees(sympy, p, prime):
    x = sympy.Symbol("x")
    expr = sum(c * x ** i for i, c in enumerate(p.coeffs))
    _, factors = sympy.Poly(expr, x, modulus=prime).factor_list()
    return tuple(sorted((f.degree(), mult) for f, mult in factors))


def test_factor_mod_p_matches_sympy_degree_12_to_20():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31415)
    x = sympy.Symbol("x")
    prime_pool = primes(500)
    polys = [_monic(rng, rng.randint(12, 20), 30) for _ in range(6)]
    polys += [_monic(rng, 6) * _monic(rng, 3) ** 2, _monic(rng, 4) ** 3 * _monic(rng, 2)]
    for p in polys:
        disc = int(sympy.discriminant(sum(c * x ** i for i, c in enumerate(p.coeffs)), x))
        ramified = [q for q in prime_pool if disc % q == 0][:4]
        for prime in sorted(set(rng.sample(prime_pool, 8) + ramified + [2, 3])):
            assert factor_mod_p(p, prime) == _sympy_degrees(sympy, p, prime), (p, prime)


def test_x4_plus_1_is_never_certified():
    p = UniPoly([1, 0, 0, 0, 1])
    for prime in primes(500):
        assert factor_mod_p(p, prime) != ((4, 1),)
    assert irreducible_over_Q(p, 500).status == "inconclusive"


def test_product_of_quintics_is_never_certified():
    q1 = UniPoly([-4, 4, 3, -4, -2, 1])  # the paper's quintic
    q2 = UniPoly([-1, -1, 0, 0, 0, 1])  # x^5 - x - 1
    p = q1 * q2
    for prime in primes(500):
        assert factor_mod_p(p, prime) != ((10, 1),)
    assert not irreducible_over_Q(p, 500).is_irreducible()
    cert = galois_cycle_types(p, 500)
    assert not cert.is_full_symmetric()
    assert cert.conclusion == "Unknown"


# -- multiplicities peeled inside the distinct-degree pass ---------------------------


def _agrees(p, prime, expected=None):
    got = factor_mod_p(p, prime)
    assert got == brute_force_factor_degrees(p.coeffs, prime), (p, prime)
    if expected is not None:
        assert got == expected, (p, prime)


def test_peeling_linear_factors_of_three_multiplicities():
    # (x - 1)(x - 2)^2 (x - 3)^3 mod 7
    p = UniPoly([-1, 1]) * UniPoly([-2, 1]) ** 2 * UniPoly([-3, 1]) ** 3
    _agrees(p, 7, ((1, 1), (1, 2), (1, 3)))


def test_peeling_two_quadratics_of_one_degree():
    # x^2 + 2 and x^2 + 3 are irreducible mod 5: neither -2 nor -3 is a square
    p = UniPoly([2, 0, 1]) * UniPoly([3, 0, 1]) ** 2
    _agrees(p, 5, ((2, 1), (2, 2)))


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_peeling_pth_powers(prime):
    rng = random.Random(prime)
    for _ in range(6):
        g = _monic(rng, rng.randint(1, 2 if prime < 5 else 1))
        h = _monic(rng, rng.randint(1, 3))
        _agrees(g ** prime * h, prime)
        _agrees(g ** prime, prime)


def test_peeling_random_products():
    rng = random.Random(1618)
    for _ in range(40):
        prime = rng.choice([2, 3, 5, 7])
        a, b, c = _monic(rng, rng.randint(1, 3)), _monic(rng, rng.randint(1, 2)), _monic(rng, 1)
        _agrees(a * b ** 2 * c ** 3, prime)
    for _ in range(30):
        prime = rng.choice([2, 3, 5])
        a, h = _monic(rng, rng.randint(1, 3)), _monic(rng, rng.randint(1, 6 // prime))
        _agrees(a * _power_of_x(h, prime), prime)
        _agrees(_power_of_x(h, prime), prime)
