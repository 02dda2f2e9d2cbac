"""Real root isolation: deep bisection, rational roots on split points, and
pinned digests of the intervals for inputs with no rational root.

The digest was taken from the recursive implementation that fenced off
rational midpoints.  Without a rational root no split point lands on a
root, so the worklist loop must reproduce it exactly.  Root counts are
checked against the textbook Fraction Sturm chain in `oracles`.
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import frickelab
from frickelab import poly
from frickelab.poly import (
    UniPoly,
    isolate_real_roots,
    rational_roots,
    refine_root,
    square_free_part,
)

from oracles import rational_sturm_count


def _check_isolating(p, ivs):
    """Ascending, disjoint, sign-isolating for the square-free part, one
    interval per distinct real root as counted by the oracle."""
    sf = square_free_part(p)
    bound = 1 + Fraction(sum(abs(c) for c in p.coeffs), abs(p.coeffs[-1]))
    assert len(ivs) == rational_sturm_count(p, -bound, bound)
    for lo, hi in ivs:
        assert lo < hi
        assert sf.sign_at(lo) * sf.sign_at(hi) == -1
        assert rational_sturm_count(sf, lo, hi) == 1
    for (_, b), (c, _) in zip(ivs, ivs[1:]):
        assert b <= c


def test_mignotte_cubic_isolates_its_close_roots():
    # x^3 - 2 (10^100 x - 1)^2: two roots about 10^-250 apart near 10^-100
    x = UniPoly([0, 1])
    p = x ** 3 - UniPoly([-1, 10 ** 100]) ** 2 * UniPoly([2])
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    _check_isolating(p, ivs)
    assert ivs[0][0] < Fraction(1, 10 ** 100) < ivs[1][1]
    assert ivs[1][1] - ivs[0][0] < Fraction(1, 10 ** 240)


def test_rational_roots_on_split_points():
    rng = random.Random(4242)
    quadratics = [UniPoly([-2, 0, 1]), UniPoly([-1, -1, 1]), UniPoly([-5, 0, 3]), UniPoly([1, 0, 1])]
    for _ in range(40):
        # dyadic and non-dyadic rational roots, 0 always among them
        roots = {Fraction(0)}
        for _ in range(rng.randint(1, 5)):
            den = rng.choice([1, 2, 4, 8, 3, 5, 6, 7])
            roots.add(Fraction(rng.randint(-40, 40), den))
        p = rng.choice(quadratics)
        for r in roots:
            p = p * UniPoly([-r.numerator, r.denominator]) ** rng.randint(1, 2)
        ivs = isolate_real_roots(p)
        _check_isolating(p, ivs)
        for r in roots:
            assert sum(1 for lo, hi in ivs if lo < r < hi) == 1


def _no_rational_root_inputs():
    rng = random.Random(2027)
    out = []
    while len(out) < 60:
        d = rng.randint(2, 20)
        p = UniPoly([rng.randint(-20, 20) for _ in range(d)] + [rng.randint(1, 5)])
        if p.coeffs[0] != 0 and not rational_roots(p):
            out.append(p)
    return out


GOLDEN = "54a6bcf45f46e457db3edde19a329b618ba0826f25fec26e44d346f3fc7246ff"


def test_isolation_without_rational_roots_matches_pinned_digest():
    eps = Fraction(1, 2 ** 128)
    result = []
    for p in _no_rational_root_inputs():
        ivs = isolate_real_roots(p)
        sf = square_free_part(p)
        result.append((p.coeffs, ivs, [refine_root(sf, iv, eps) for iv in ivs]))
    assert hashlib.sha256(repr(result).encode()).hexdigest() == GOLDEN


def test_refine_root_moves_a_root_midpoint_left():
    # 4x^3 - x has roots -1/2, 0, 1/2; (-1, 1) has opposite endpoint signs
    # and its midpoint 0 is the middle root.  Run in a child process so
    # that a bisection which never ends fails the test instead of hanging.
    code = (
        "from fractions import Fraction as F\n"
        "from frickelab.poly import UniPoly, refine_root\n"
        "print(*refine_root(UniPoly([0, -1, 0, 4]), (F(-1), F(1)), F(1, 1000)))\n"
    )
    src = os.path.dirname(os.path.dirname(frickelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("refine_root did not return within 20 s")
    assert proc.returncode == 0, proc.stderr
    lo, hi = map(Fraction, proc.stdout.split())
    p = UniPoly([0, -1, 0, 4])
    assert -1 < lo < hi < 1 and hi - lo < Fraction(1, 1000)
    assert p.sign_at(lo) * p.sign_at(hi) == -1
    assert rational_sturm_count(p, lo, hi) == 1


def test_split_rule_on_dyadic_rational_roots(monkeypatch):
    # products with dyadic roots put roots on bisection midpoints: (-32, 32)
    # around all of them and (r - 1/256, r + 1/256) around each one.  Every
    # isolating and every refined interval still holds one root, with
    # opposite endpoint signs.
    moved = []

    def recording_split(p, lo, hi):
        mid, sign = split(p, lo, hi)
        moved.append(mid != (lo + hi) / 2)
        return mid, sign

    split = poly._split
    monkeypatch.setattr(poly, "_split", recording_split)
    rng = random.Random(1501)
    eps = Fraction(1, 2 ** 64)
    for _ in range(40):
        roots = {Fraction(rng.randint(-24, 24), 2 ** rng.randint(0, 4)) for _ in range(rng.randint(1, 5))}
        p = rng.choice([UniPoly([1]), UniPoly([-2, 0, 1]), UniPoly([-1, -1, 1])])
        for r in roots:
            p = p * UniPoly([-r.numerator, r.denominator])
        ivs = isolate_real_roots(p)
        _check_isolating(p, ivs)
        for r in roots:
            assert sum(1 for lo, hi in ivs if lo < r < hi) == 1
        starts = ivs + [(r - Fraction(1, 256), r + Fraction(1, 256)) for r in roots]
        if p.sign_at(-32) != p.sign_at(32):
            starts.append((Fraction(-32), Fraction(32)))
        for lo, hi in (refine_root(p, iv, eps) for iv in starts):
            assert hi - lo < eps
            assert p.sign_at(lo) * p.sign_at(hi) == -1
            assert rational_sturm_count(p, lo, hi) == 1
    assert sum(moved) >= 100
