"""The packed mod-p kernel of factor_mod_p: the all-slot reduction against
per-slot `% p` at the edges of the slot bound, factor patterns against
sympy where the slots are widest, against trial division over F_2 and F_3
on inseparable and repeated inputs, and on inputs with x^(p^d) = x mod f;
and the early Inconclusive of irreducible_over_Q on an input with a
repeated factor over Q."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frickelab import poly
from frickelab.poly import UniPoly, _pack, _slot_reducer, factor_mod_p, irreducible_over_Q

from oracles import brute_force_factor_degrees

PRIMES = [2, 3, 499, 503, 65537]


def _bound(n, p):
    """Every slot value below this must reduce exactly."""
    return n * (p - 1) ** 2 + p


def _check_reduce(n, p, slots):
    w, reduce = _slot_reducer(n, p)
    assert reduce(_pack(slots, w)) == _pack([s % p for s in slots], w), (n, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [2, 5, 17, 40])
def test_reduce_at_the_slot_edges(p, n):
    edges = [0, p - 1, p, _bound(n, p) - 1]
    for shift in range(len(edges)):
        _check_reduce(n, p, ((edges[shift:] + edges[:shift]) * n)[: 2 * n])
    _check_reduce(n, p, [_bound(n, p) - 1] * (2 * n))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduce_equals_per_slot_mod_p(p, data):
    n = data.draw(st.integers(2, 40), label="n")
    top = _bound(n, p) - 1
    value = st.one_of(st.sampled_from([0, p - 1, p, top]), st.integers(0, top))
    slots = data.draw(st.lists(value, min_size=1, max_size=2 * n), label="slots")
    _check_reduce(n, p, slots)


def _monic(rng, deg, bound=9):
    return UniPoly([rng.randint(-bound, bound) for _ in range(deg)] + [1])


def _sympy_degrees(sympy, p, prime):
    x = sympy.Symbol("x")
    expr = sum(c * x ** i for i, c in enumerate(p.coeffs))
    _, factors = sympy.Poly(expr, x, modulus=prime).factor_list()
    return tuple(sorted((f.degree(), mult) for f, mult in factors))


def test_factor_mod_p_matches_sympy_degree_30_to_40_primes_401_to_499():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(27182)
    big = [q for q in range(401, 500) if all(q % k for k in range(2, 23))]
    cases = [(_monic(rng, rng.randint(30, 40), 30), rng.choice(big)) for _ in range(8)]
    cases += [(_monic(rng, 9, 30) * _monic(rng, 6, 30) ** 3 * _monic(rng, 2) ** 2, rng.choice(big))]
    cases += [(_monic(rng, 12, 30) ** 2 * _monic(rng, 7, 30), rng.choice(big))]
    for p, prime in cases:
        assert 30 <= p.degree() <= 40
        assert factor_mod_p(p, prime) == _sympy_degrees(sympy, p, prime), (p, prime)


def _power_of_x(h, prime):
    coeffs = [0] * (prime * h.degree() + 1)
    for i, c in enumerate(h.coeffs):
        coeffs[prime * i] = c
    return UniPoly(coeffs)


@pytest.mark.parametrize("prime", [2, 3])
def test_factor_mod_p_matches_trial_division_on_powers(prime):
    rng = random.Random(100 + prime)
    cases = []
    for _ in range(12):
        cases.append(_power_of_x(_monic(rng, rng.randint(1, 12 // prime)), prime))
        a, b = _monic(rng, rng.randint(1, 6)), _monic(rng, rng.randint(1, 3))
        cases += [a * b * b, b ** 3, (a * b) ** 3 if a.degree() + b.degree() <= 4 else a ** 3]
    for p in cases:
        assert factor_mod_p(p, prime) == brute_force_factor_degrees(p.coeffs, prime), (p, prime)


@pytest.mark.parametrize("prime", [2, 3, 5, 7, 499])
def test_x_is_a_root_of_h_minus_x(prime):
    """x^(p^d) = x mod f at once: every factor of degree dividing d."""
    def x_power_minus_x(e):
        return UniPoly([0, -1] + [0] * (e - 2) + [1])

    assert factor_mod_p(x_power_minus_x(prime), prime) == ((1, 1),) * prime
    rng = random.Random(prime)
    roots = rng.sample(range(prime), min(prime, 6))
    split = UniPoly([1])
    for r in roots:
        split = split * UniPoly([-r, 1])
    assert factor_mod_p(split, prime) == ((1, 1),) * len(roots)
    if prime <= 5:
        # the product of every monic irreducible of degree 1 or 2
        quadratics = (prime * prime - prime) // 2
        expected = ((1, 1),) * prime + ((2, 1),) * quadratics
        assert factor_mod_p(x_power_minus_x(prime * prime), prime) == expected


def test_repeated_factor_over_Q_stops_at_the_first_prime(monkeypatch):
    quintic = UniPoly([-4, 4, 3, -4, -2, 1])
    calls = []

    def counted(p, prime):
        calls.append(prime)
        return factor_mod_p(p, prime)

    monkeypatch.setattr(poly, "factor_mod_p", counted)
    assert irreducible_over_Q(quintic * quintic, 500).status == "inconclusive"
    assert calls == [2]
    calls.clear()
    # square-free over Q but with repeated factors mod 2 and 3: the
    # witness search goes on past them, to 5
    assert irreducible_over_Q(quintic, 500).witness == 5
    assert calls == [2, 3, 5]
