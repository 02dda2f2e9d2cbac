"""factor_mod_p against independent oracles: trial division over F_p for
small cases, sympy's factorization mod p for degree 12-20 and 30-40,
products of certified irreducibles placed on and inside the degree blocks
of the distinct-degree pass, Euler's criterion for quadratics at primes
next to a power of two, and negative controls that must never be
certified."""

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


# -- degree blocks [1], [2, 3], [4, 7], [8, 15], [16, 31], ... -----------------------


def _irreducibles(rng, degrees, prime):
    """Distinct random monic irreducibles mod prime of these degrees, each
    certified by trial division."""
    out = []
    for d in degrees:
        while True:
            g = UniPoly([rng.randrange(prime) for _ in range(d)] + [1])
            if g not in out and brute_force_factor_degrees(g.coeffs, prime) == ((d, 1),):
                out.append(g)
                break
    return out


def _product(factors, mults):
    out = UniPoly([1])
    for g, m in zip(factors, mults):
        out = out * g ** m
    return out


BLOCK_CASES = [
    # degrees on either side of a block edge
    (3, (1, 2), (1, 1)),
    (3, (2, 3), (1, 1)),
    (2, (3, 4), (1, 1)),
    (2, (7, 8), (1, 1)),
    (2, (15, 16), (1, 1)),
    # 8 and 16 inside a block rather than left over at the stop rule
    (2, (7, 8, 8), (1, 1, 1)),
    (2, (15, 16, 16), (1, 1, 1)),
    # two degrees inside one block
    (3, (4, 6), (1, 1)),
    (2, (5, 7, 1), (1, 1, 1)),
    (2, (9, 14), (1, 1)),
    # several factors of one degree: deg G = 2d is not one irreducible
    (5, (2, 2, 2), (1, 1, 1)),
    (3, (4, 4), (1, 1)),
    (2, (5, 5, 5), (1, 1, 1)),
    (3, (3, 3, 6, 6), (1, 1, 1, 1)),
    # repeated factors inside a block
    (2, (4, 5, 7), (2, 1, 3)),
    (3, (4, 5, 7), (2, 1, 3)),
    (5, (1, 1, 2, 3), (2, 1, 3, 2)),
    (2, (4, 4, 6), (3, 1, 2)),
    (2, (8, 9, 15), (2, 1, 1)),
    # a repeated factor of degree d with deg rest >= 4d: with blocks
    # [d, 2d] it would divide two terms of the block's product
    (3, (3, 5), (2, 2)),
    (2, (7, 9), (3, 1)),
]


@pytest.mark.parametrize("prime, degrees, mults", BLOCK_CASES)
def test_block_structure(prime, degrees, mults):
    rng = random.Random(repr((prime, degrees, mults)))
    p = _product(_irreducibles(rng, degrees, prime), mults)
    expected = tuple(sorted(zip(degrees, mults)))
    assert factor_mod_p(p, prime) == expected, p
    if prime ** max(degrees) <= 2 ** 8:
        assert brute_force_factor_degrees(p.coeffs, prime) == expected


@pytest.mark.parametrize("prime, degrees", [(2, (1, 3, 4, 7, 8)), (2, (2, 3, 5)), (3, (1, 2, 3, 4)), (3, (4, 5))])
def test_block_structure_of_h_of_x_to_the_p(prime, degrees):
    # h(x^p) = h(x)^p mod p, so every multiplicity is p
    rng = random.Random(repr((prime, degrees)))
    h = _product(_irreducibles(rng, degrees, prime), [1] * len(degrees))
    p = _power_of_x(h, prime)
    expected = tuple(sorted((d, prime) for d in degrees))
    assert factor_mod_p(p, prime) == expected, p
    if prime ** max(degrees) <= 3 ** 5:
        assert brute_force_factor_degrees(p.coeffs, prime) == expected


def test_blocks_match_sympy_degree_30_to_40():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4096)
    for _ in range(8):
        p, mults = UniPoly([1]), []
        while p.degree() < 30:
            m = rng.choice([1, 1, 2, 3])
            g = _monic(rng, rng.randint(2, 9), 30)
            if p.degree() + m * g.degree() <= 40:
                p = p * g ** m
        for prime in sorted(set(rng.sample(primes(60), 4) + [2, 3])):
            assert factor_mod_p(p, prime) == _sympy_degrees(sympy, p, prime), (p, prime)


# -- x^p from the bits of p: a leading run of bits as one shift ------------------------

# primes next to a power of two, where the leading run of bits is long, or
# its value equals a small degree n (31 = n for n = 31; 257 >> 7 = 2)
EDGE_PRIMES = [31, 127, 251, 257, 499, 65537]


@pytest.mark.parametrize("prime, degrees", [(2, (1, 3, 4, 5, 7)), (3, (2, 3, 7, 8)), (2, (20,)), (3, (9, 11))])
def test_x_to_the_p_is_a_shift_below_degree_n(prime, degrees):
    # p < n = 20: x^p mod f is x^p itself and no multiply runs
    rng = random.Random(repr((prime, degrees)))
    p = _product(_irreducibles(rng, degrees, prime), [1] * len(degrees))
    assert p.degree() == 20
    assert factor_mod_p(p, prime) == tuple(sorted((d, 1) for d in degrees))


@pytest.mark.parametrize("prime", [2, 3, 5, 7] + EDGE_PRIMES)
def test_quadratics_follow_euler_criterion(prime):
    rng = random.Random(prime)
    for _ in range(40):
        b, c = rng.randrange(prime), rng.randrange(prime)
        lc = rng.randrange(1, prime)
        got = factor_mod_p(UniPoly([c * lc, b * lc, lc]), prime)
        if prime == 2:
            assert got == brute_force_factor_degrees((c, b, 1), 2)
            continue
        disc = (b * b - 4 * c) % prime
        if disc == 0:
            assert got == ((1, 2),)
        elif pow(disc, (prime - 1) // 2, prime) == 1:
            assert got == ((1, 1), (1, 1))
        else:
            assert got == ((2, 1),)


@pytest.mark.parametrize("prime", EDGE_PRIMES)
def test_split_products_at_primes_next_to_powers_of_two(prime):
    # linear factors and quadratics certified irreducible by Euler's
    # criterion, with multiplicities: blocks [1] and [2, 3] at large p
    rng = random.Random(prime)
    non_residue = next(a for a in range(2, prime) if pow(a, (prime - 1) // 2, prime) != 1)
    for _ in range(6):
        roots = rng.sample(range(prime), 3)
        squares = rng.sample(range(1, prime), 2)
        linears = [UniPoly([-r, 1]) for r in roots]
        # x^2 - a is irreducible when a is a non-residue
        quads = [UniPoly([-(non_residue * s * s) % prime, 0, 1]) for s in squares]
        if quads[0] == quads[1]:
            continue
        mults = [rng.randint(1, 3) for _ in range(5)]
        p = _product(linears + quads, mults)
        expected = tuple(sorted(zip((1, 1, 1, 2, 2), mults)))
        assert factor_mod_p(p, prime) == expected, p


@pytest.mark.parametrize("prime", EDGE_PRIMES)
def test_primes_next_to_powers_of_two_match_sympy(prime):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(prime)
    for n in (2, 3, 7, 8, 15, 16, 20, 31):
        for _ in range(2):
            p = _monic(rng, n, 30)
            assert factor_mod_p(p, prime) == _sympy_degrees(sympy, p, prime), (p, prime)
        p = _monic(rng, n // 2 + 1, 30) ** 2
        assert factor_mod_p(p, prime) == _sympy_degrees(sympy, p, prime), (p, prime)
