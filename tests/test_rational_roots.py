"""rational_roots on both of its paths: divisors of the outer coefficients
while they are small, isolated and rounded real roots above that."""

import random
from fractions import Fraction

from frickelab.poly import (
    _DIVISOR_SEARCH_MAX,
    UniPoly,
    _divisor_candidates,
    _rounded_real_roots,
    irreducible_over_Q,
    rational_roots,
)


def _linear(root: Fraction) -> UniPoly:
    """den*x - num."""
    return UniPoly([-root.numerator, root.denominator])


def test_thirty_digit_constant_term_without_a_root():
    p = UniPoly([10**30 + 39, 0, 1])
    assert max(p.coeffs) > _DIVISOR_SEARCH_MAX
    assert rational_roots(p) == []
    assert irreducible_over_Q(p).status == "irreducible"


def test_twenty_digit_rational_roots():
    big = Fraction(12345678901234567891, 7)
    p = _linear(big) * _linear(Fraction(-98765432109876543211, 5)) * UniPoly([1, 1, 1]) * _linear(Fraction(3))
    assert rational_roots(p) == sorted([big, Fraction(-98765432109876543211, 5), Fraction(3)])
    assert irreducible_over_Q(p).root == Fraction(-98765432109876543211, 5)


def test_repeated_and_zero_roots_above_the_divisor_search():
    r = Fraction(10**12)
    p = _linear(r) ** 2 * _linear(Fraction(-7, 3)) * UniPoly([-2, 0, 1]) * UniPoly([0, 1])
    assert rational_roots(p) == [Fraction(-7, 3), Fraction(0), r]


def _roots_of(q, candidates):
    return sorted({c for c in candidates if q.sign_at(c) == 0})


def test_both_paths_agree_on_seeded_inputs():
    rng = random.Random(8128)
    found = 0
    for _ in range(150):
        q = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 9)])
        for _ in range(rng.randint(0, 3)):
            q = q * _linear(Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
        if q.degree() < 1 or q.coeffs[0] == 0 or max(abs(q.coeffs[0]), abs(q.lc())) > _DIVISOR_SEARCH_MAX:
            continue
        by_divisors = _roots_of(q, _divisor_candidates(abs(q.coeffs[0]), abs(q.lc())))
        assert by_divisors == _roots_of(q, _rounded_real_roots(q)), q
        found += len(by_divisors)
    assert found > 50
