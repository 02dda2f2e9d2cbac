"""Real root isolation and refinement: deep bisection, rational roots on
split points, and pinned digests of the intervals for inputs with no
rational root.

The isolation digest was taken from the recursive implementation that
fenced off rational midpoints.  Without a rational root no split point
lands on a root, so the worklist loop must reproduce it exactly.  The
refinement digest was taken from refinement by plain bisection, which
`refine_root` must reproduce; `oracles.bisect_root` checks it the same
way.  Root counts are checked against the textbook Fraction Sturm chain
in `oracles`.
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

from oracles import bisect_root, rational_sturm_count


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


def _square_free_inputs():
    """Seeded square-free polynomials of degree 5-40 with their isolating
    intervals: one (polynomial, interval) pair per real root."""
    rng = random.Random(3141)
    out = []
    for d in (5, 6, 8, 12, 17, 20, 27, 33, 40):
        while True:
            p = UniPoly([rng.randint(-30, 30) for _ in range(d)] + [rng.randint(1, 4)])
            ivs = isolate_real_roots(p)
            if ivs and square_free_part(p) == p:
                break
        out += [(p, iv) for iv in ivs]
    return out


def _oracle_cases():
    # at 2^-1024 the Fraction oracle takes seconds per root past degree 17
    inputs = _square_free_inputs()
    cases = [(p, iv, bits) for bits in (4, 128) for p, iv in inputs]
    cases += [(p, iv, 1024) for p, iv in inputs if p.degree() <= 17]
    quintic = UniPoly([-4, 4, 3, -4, -2, 1])
    cases += [(quintic, isolate_real_roots(quintic)[0], bits) for bits in (128, 512, 4096)]
    return cases


@pytest.mark.parametrize(
    "p, iv, bits", _oracle_cases(), ids=lambda v: f"2^-{v}" if isinstance(v, int) else None
)
def test_refine_root_matches_the_bisection_oracle(p, iv, bits):
    eps = Fraction(1, 2 ** bits)
    assert refine_root(p, iv, eps) == bisect_root(p.coeffs, *iv, eps)


def test_refine_root_matches_the_oracle_when_a_grid_point_is_a_root(monkeypatch):
    # dyadic roots of (4x - 3)(8x + 5)(16x - 7)(x^2 - 2) sit on the grids of
    # intervals around them, where bisection moves a midpoint (_split)
    calls = []

    def recording_split(p, lo, hi):
        calls.append((lo, hi))
        return split(p, lo, hi)

    split = poly._split
    monkeypatch.setattr(poly, "_split", recording_split)
    p = UniPoly([-3, 4]) * UniPoly([5, 8]) * UniPoly([-7, 16]) * UniPoly([-2, 0, 1])
    eps = Fraction(1, 2 ** 100)
    for iv in isolate_real_roots(p):
        assert refine_root(p, iv, eps) == bisect_root(p.coeffs, *iv, eps)
    around = [(r - Fraction(1, 64), r + Fraction(1, 64)) for r in (Fraction(3, 4), Fraction(-5, 8), Fraction(7, 16))]
    for iv in around + [(Fraction(1, 4), Fraction(1, 2)), (0, Fraction(1, 2))]:
        calls.clear()
        assert refine_root(p, iv, eps) == bisect_root(p.coeffs, *iv, eps)
        assert calls  # the split loop ran


def test_refine_root_edge_cases():
    p = UniPoly([-2, 0, 1])
    # eps above the width: the input back, after the isolation check
    assert refine_root(p, (1, 2), 2) == (Fraction(1), Fraction(2))
    assert refine_root(p, (Fraction(1), Fraction(3, 2)), Fraction(5)) == (1, Fraction(3, 2))
    # integer endpoints and eps
    assert refine_root(p, (0, 2), Fraction(1, 3)) == bisect_root(p.coeffs, 0, 2, Fraction(1, 3))
    assert refine_root(p, (-2, 0), 1) == (Fraction(-3, 2), Fraction(-1))
    for eps in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="eps must be positive"):
            refine_root(p, (1, 2), eps)
    message = r"^interval \(2, 3\) does not sign-isolate a simple root of poly: -2 0 1$"
    for eps in (Fraction(1, 2 ** 64), 10):
        with pytest.raises(poly.IsolationError, match=message):
            refine_root(p, (2, 3), eps)
    with pytest.raises(poly.IsolationError):
        refine_root(UniPoly([0, 1]), (0, 1), 10)  # an endpoint is the root
    with pytest.raises(poly.IsolationError):
        refine_root(UniPoly(), (0, 1), Fraction(1, 4))


def _high_degree_inputs():
    rng = random.Random(2140)
    out = []
    for _ in range(8):
        d = rng.randint(20, 40)
        out.append(UniPoly([rng.randint(-30, 30) for _ in range(d)] + [rng.randint(1, 3)]))
    return out


REFINED_GOLDEN = "3c2f88cf3f269352a8ce20ad8089588f17648d6d14e699ae6bbdc30028bebaea"


def test_refinement_to_2_pow_minus_1024_matches_pinned_digest():
    # 26 roots of polynomials of degree 21-38; digest taken from bisection
    eps = Fraction(1, 2 ** 1024)
    result = []
    for p in _high_degree_inputs():
        sf = square_free_part(p)
        result.append((p.coeffs, [refine_root(sf, iv, eps) for iv in isolate_real_roots(p)]))
    assert hashlib.sha256(repr(result).encode()).hexdigest() == REFINED_GOLDEN


def test_refine_root_returns_on_hard_inputs():
    # the Mignotte cubic, x^20 - 2 and a root pair 10^-30 apart, to 2^-1024,
    # in a child process so that a search that stalls fails the test instead
    # of hanging.  The result is bisection's cell: [A, A + 1] of the grid
    # lo + (hi - lo) j/2^k, k least with (hi - lo)/2^k < eps.
    code = (
        "from fractions import Fraction as F\n"
        "from frickelab.poly import UniPoly as U, isolate_real_roots, refine_root\n"
        "x = U([0, 1])\n"
        "for p in (x ** 3 - U([-1, 10 ** 100]) ** 2 * U([2]), x ** 20 - U([2]),\n"
        "          U([-1, 3]) * U([-10 ** 30 - 3, 3 * 10 ** 30]) * U([-5, 1])):\n"
        "    for iv in isolate_real_roots(p) + [(F(0), F(10 ** 6))] * (p.degree() == 20):\n"
        "        print(*p.coeffs, '|', *iv, *refine_root(p, iv, F(1, 2 ** 1024)))\n"
    )
    src = os.path.dirname(os.path.dirname(frickelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("refine_root did not return within 60 s")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 + 3 + 3
    eps = Fraction(1, 2 ** 1024)
    for line in lines:
        coeffs, ends = line.split("|")
        p = UniPoly(int(c) for c in coeffs.split())
        lo, hi, rlo, rhi = map(Fraction, ends.split())
        k = 0
        while (hi - lo) / 2 ** k >= eps:
            k += 1
        cell = (hi - lo) / 2 ** k
        assert rhi - rlo == cell
        assert ((rlo - lo) / cell).denominator == 1
        assert p.sign_at(rlo) * p.sign_at(rhi) == -1


def test_an_inconsistent_sturm_count_raises_instead_of_bisecting_forever():
    # a broken _sturm_counts that never counts fewer than two roots sends
    # bisection down the left half forever; below the root-separation width
    # a count of 2 is impossible, and isolation must say so.  Run in a child
    # process so that a bisection which never ends fails the test.
    code = (
        "from frickelab import poly\n"
        "counts = poly._sturm_counts\n"
        "poly._sturm_counts = lambda chain, *points: [max(k, 2) for k in counts(chain, *points)]\n"
        "for coeffs in ([-2, 0, 1], [-4, 4, 3, -4, -2, 1], [1, -10 ** 12, 0, 0, 0, 0, 0, 0, 1]):\n"
        "    try:\n"
        "        poly.isolate_real_roots(poly.UniPoly(coeffs))\n"
        "    except poly.IsolationError as e:\n"
        "        print(e.count, str(e).split(' on ')[0])\n"
    )
    src = os.path.dirname(os.path.dirname(frickelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("isolate_real_roots did not stop within 20 s on an inconsistent Sturm count")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2 inconsistent Sturm count 2"] * 3
