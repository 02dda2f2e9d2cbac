"""The one signed remainder sequence behind gcd, square_free_part and
sturm_chain, against Fraction Euclid from `oracles`, and isolate_real_roots
on it: one Sturm chain per isolation, no gcd of its own, and the same
intervals as when it counted on the chain of the square-free part.

The isolation digest was taken from that earlier implementation, which
took the square-free part by gcd and then built its Sturm chain."""

import hashlib
import random
from fractions import Fraction

from frickelab import poly
from frickelab.poly import UniPoly, gcd, isolate_real_roots, square_free_part, sturm_chain

from oracles import fraction_gcd


def _monic(p: UniPoly) -> list[Fraction]:
    return [Fraction(c, p.lc()) for c in p.coeffs]


def _random_factor(rng, degree):
    return UniPoly([rng.randint(-7, 7) for _ in range(degree)] + [rng.choice([1, 1, 2, 3, -1])])


def _repeated_factor_products(seed, count):
    """a * b^2 * c^k with k in 1..3 and random factors of degree 1 to 3, some
    without real roots, scaled by a random content: never square-free."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c = (_random_factor(rng, rng.randint(1, 3)) for _ in range(3))
        p = (a * b ** 2 * c ** rng.randint(1, 3)).scale(rng.choice([1, 1, 2, -3, 6]))
        if p.degree() >= 3:
            out.append(p)
    return out


def test_gcd_square_free_part_and_chain_end_match_fraction_euclid():
    for p in _repeated_factor_products(5101, 80):
        dp = p.derivative()
        g = fraction_gcd(p, dp)
        assert len(g) > 1, p  # a repeated factor: gcd(p, p') is not constant
        d = gcd(p, dp)
        assert _monic(d) == g and d.lc() > 0 and d.content() == 1
        # sign and content aside, the chain ends in gcd(p, p')
        assert _monic(sturm_chain(p)[-1]) == g
        # square-free part: p over gcd(p, p'), primitive with positive lc
        sf = square_free_part(p)
        assert sf.lc() > 0 and sf.content() == 1
        assert fraction_gcd(sf, sf.derivative()) == [1]
        assert sf.degree() == p.degree() - (len(g) - 1)
        assert fraction_gcd(p, sf) == _monic(sf)


def test_gcd_of_products_sharing_a_factor_matches_fraction_euclid():
    rng = random.Random(5102)
    for _ in range(80):
        r, s, t = (_random_factor(rng, rng.randint(0, 4)) for _ in range(3))
        p, q = r * s, r * t
        assert _monic(gcd(p, q)) == fraction_gcd(p, q)
        assert gcd(p, q) == gcd(q, p)


def _isolation_inputs():
    rng = random.Random(5103)
    square_free = [_random_factor(rng, rng.randint(2, 12)) for _ in range(40)]
    return _repeated_factor_products(5104, 40) + square_free + [UniPoly([7]), UniPoly([-3, 2])]


ISOLATION_DIGEST = "161408b4ae0cf58723329c496e86aafe31bc67f710962ace63517a39bf4b6a90"


def test_isolation_runs_one_chain_and_matches_pinned_digest(monkeypatch):
    calls = {"sturm_chain": 0, "gcd": 0, "square_free_part": 0}

    def spy(name):
        fn = getattr(poly, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(poly, name, spy(name))
    result = []
    inputs = _isolation_inputs()
    for p in inputs:
        before = dict(calls)
        result.append((p.coeffs, isolate_real_roots(p)))
        assert calls["sturm_chain"] - before["sturm_chain"] == 1, p
    assert calls["gcd"] == calls["square_free_part"] == 0
    assert calls["sturm_chain"] == len(inputs)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == ISOLATION_DIGEST
