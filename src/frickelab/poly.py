"""Exact univariate polynomial algebra over the integers.

Everything here is certificate-grade: unbounded integer (or rational)
arithmetic throughout, no floating point.  Provides gcds and Sturm chains
from one signed remainder sequence, resultants, real root isolation by
bisection, refinement to bisection's own cell by regula falsi on its grid,
factor-degree patterns mod p, and witness-based irreducibility.

Sturm counts need no square-free part (_sturm_counts).  Square-free
parts serve where that polynomial itself is needed: refinement by sign
changes, algebraic reals and Galois samples.

A pattern mod p comes from one distinct-degree pass that also peels off
multiplicities, so repeated and inseparable factors need no square-free
decomposition over F_p.  The pass takes the degrees in doubling blocks
[1], [2, 3], [4, 7], [8, 15], ...: one gcd of the remaining polynomial
with the product of x^(p^k) - x over the block finds every factor whose
degree lies in it, since below 2d no other multiple of a degree >= d
fits, and a block without any costs that one gcd (Kaltofen & Shoup's
blocking, with blocks that double).

The pass works on one representation throughout: a polynomial over F_p of
degree < 2n is a single int with coefficient i in bits [iw, (i + 1)w), so
a sum or product of polynomials is one sum or product of ints (Kronecker
substitution).  The slots are sized so that every value an operation
leaves in them stays below n(p - 1)^2 + p; then all slots are reduced mod
p at once by

    v - p * (((v * mu) >> t) & M),   mu = ceil(2^t / p),  2^t > p * slot,

with M keeping the low w - t bits of each slot (_slot_reducer).  A Euclid
step between degrees m + 1 and m reads its two quotient coefficients as
scalars from the top two slots and subtracts (q1 x + q0) b in one
multiply; other divisions add one shifted multiple of the divisor per
quotient term, and each division reduces once.  A product is reduced mod f
by polynomial Barrett reduction, its quotient read off one product with
the precomputed x^(2n-1) div f.  x^p mod f starts as a shift by the
leading bits of p whose value is < n, then squares once per further bit
(_gf_ddf_degrees).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional


class EndpointRootError(ValueError):
    """An interval endpoint is a root; perturb the endpoint rationally."""


class IsolationError(ValueError):
    """An interval fails to isolate exactly one root; carries the count."""

    def __init__(self, message: str, count: Optional[int] = None):
        self.count = count
        super().__init__(message)


class UniPoly:
    """Integer-coefficient polynomial, ascending coefficients, normalized.

    The empty coefficient sequence is the zero polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = []
        for c in coeffs:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise TypeError(f"non-integer coefficient {c}")
                c = c.numerator
            elif not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an integer")
            cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        return format_poly(self)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return UniPoly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return UniPoly(out)

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, UniPoly([1]))

    def scale(self, k: int) -> "UniPoly":
        return UniPoly(k * c for c in self.coeffs)

    def shift_up(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return UniPoly((0,) * k + self.coeffs)

    def evaluate(self, t) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def sign_at(self, t) -> int:
        """Sign at a rational t = num/den by integer Horner on the homogenized
        polynomial, sum c_i num^i den^(n-i); den > 0 keeps the sign of p(t)."""
        if not isinstance(t, (int, Fraction)):
            t = Fraction(t)
        num, den = t.numerator, t.denominator
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * num + c * scale
            scale *= den
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def content(self) -> int:
        """Positive gcd of the coefficients; 0 for the zero polynomial."""
        return math.gcd(*self.coeffs)

    def primitive_part(self) -> "UniPoly":
        """Content removed, sign of the leading coefficient made positive."""
        if self.is_zero():
            return self
        g = self.content()
        if self.lc() < 0:
            g = -g
        return UniPoly(c // g for c in self.coeffs)


def constant(c: int) -> UniPoly:
    return UniPoly([c])


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, starting from one.

    Needs only an associative *, so it serves words, polynomials, intervals
    and field elements alike: n.bit_length() - 1 squarings and one product
    per set bit of n, with no squaring after the top bit.
    """
    out = one
    while True:
        if n & 1:
            out = out * base
        n >>= 1
        if not n:
            return out
        base = base * base


# -- division -------------------------------------------------------------


def _prem(f: UniPoly, g: UniPoly) -> UniPoly:
    """Pseudo-remainder: lc(g)^(df-dg+1) * f = q*g + r with deg r < deg g."""
    if g.is_zero():
        raise ValueError("pseudo-division by zero")
    df, dg = f.degree(), g.degree()
    if df < dg:
        return f
    lg = g.lc()
    r = list(f.coeffs)
    for k in range(df, dg - 1, -1):
        top = r[k]
        r = [lg * c for c in r]
        for i in range(dg + 1):
            r[i + k - dg] -= top * g.coeffs[i]
        r[k] = 0
    return UniPoly(r[:dg])


def _qpoly_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder (deg b slots) of ascending coefficient lists
    over Q, b with a nonzero top coefficient, in one top-down pass."""
    num = [Fraction(c) for c in a]
    db = len(b) - 1
    lb = b[-1]
    quo = [Fraction(0)] * max(len(num) - db, 0)
    for k in range(len(num) - 1, db - 1, -1):
        c = num[k] / lb
        quo[k - db] = c
        if c:
            for i in range(db):
                num[i + k - db] -= c * b[i]
    return quo, num[:db]


def _rem_monic(nums: list[int], g) -> list[int]:
    """The ascending integer coefficients nums, of any length, reduced in
    place modulo the monic integer polynomial with ascending coefficients
    g, top down, and padded with zeros to deg g slots."""
    n = len(g) - 1
    for k in range(len(nums) - 1, n - 1, -1):
        top = nums[k]
        if top:
            # subtract top t^(k-n) g, which also clears slot k
            for j, c in enumerate(g, k - n):
                nums[j] -= top * c
    del nums[n:]
    nums += [0] * (n - len(nums))
    return nums


def exact_div(p: UniPoly, q: UniPoly) -> UniPoly:
    """Exact quotient p/q; raises if the division has a remainder or leaves Z[x]."""
    if q.is_zero():
        raise ValueError("division by zero polynomial")
    quo, rem = _qpoly_divmod(p.coeffs, q.coeffs)
    if any(rem):
        raise ValueError("inexact polynomial division")
    return UniPoly(quo)


def gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Primitive gcd with positive leading coefficient (_remainder_sequence)."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.primitive_part()
    if q.is_zero():
        return p.primitive_part()
    a, b = p.primitive_part(), q.primitive_part()
    if a.degree() < b.degree():
        a, b = b, a
    return _remainder_sequence(a, b)[-1].primitive_part()


def square_free_part(p: UniPoly) -> UniPoly:
    """Primitive square-free part (same distinct roots, positive lc)."""
    if p.is_zero():
        raise ValueError("square-free part of zero polynomial")
    g = gcd(p, p.derivative())
    return exact_div(p.primitive_part(), g).primitive_part()


# -- resultants -----------------------------------------------------------


def _bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _sylvester_rows(pc: list, qc: list, zero) -> list[list]:
    """Sylvester matrix of two polynomials given by descending coefficient
    lists over any ring with the given zero: deg q shifted rows of p, then
    deg p shifted rows of q."""
    dp, dq = len(pc) - 1, len(qc) - 1
    return [[zero] * i + pc + [zero] * (dq - 1 - i) for i in range(dq)] + [
        [zero] * i + qc + [zero] * (dp - 1 - i) for i in range(dp)
    ]


def sylvester_matrix(p: UniPoly, q: UniPoly) -> list[list[int]]:
    return _sylvester_rows(list(reversed(p.coeffs)), list(reversed(q.coeffs)), 0)


def resultant(p: UniPoly, q: UniPoly) -> int:
    """res(p, q) = lc(p)^deg(q) * prod q over the roots of p."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if p.degree() == 0:
        return p.lc() ** q.degree()
    if q.degree() == 0:
        return q.lc() ** p.degree()
    return _bareiss_det(sylvester_matrix(p, q))


def discriminant(p: UniPoly) -> int:
    """(-1)^(d(d-1)/2) * res(p, p') / lc(p)."""
    d = p.degree()
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if d == 1:
        return 1
    r = resultant(p, p.derivative())
    s = (-1) ** (d * (d - 1) // 2)
    val, rem = divmod(s * r, p.lc())
    if rem:
        raise AssertionError("resultant not divisible by leading coefficient")
    return val


# -- Sturm chains and root counting ----------------------------------------

NEG_INF = object()
POS_INF = object()


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sturm chain of p: p, p', then negated remainders down to a constant
    or to gcd(p, p'), up to sign and content (_remainder_sequence)."""
    if p.is_zero():
        raise ValueError("Sturm chain of zero polynomial")
    d = p.derivative()
    if d.is_zero():
        return [p]
    return _remainder_sequence(p, d)


def _remainder_sequence(f: UniPoly, g: UniPoly) -> list[UniPoly]:
    """f, g (nonzero, deg f >= deg g), then the negated remainders of the
    last two down to a constant or to gcd(f, g), up to sign and content:
    integer pseudo-remainders divided once by their content, with the
    signs of the classical rational chain."""
    seq = [f, g]
    while g.degree() >= 1:
        r = _prem(f, g)
        if r.is_zero():
            break
        # the rational remainder is r / lc(g)^(df-dg+1), so its negation
        # has the sign of r exactly when lc(g)^(df-dg+1) < 0
        content = r.content()
        if g.lc() > 0 or (f.degree() - g.degree()) % 2:
            content = -content
        f, g = g, UniPoly(c // content for c in r.coeffs)
        seq.append(g)
    return seq


def _sign_at_point(p: UniPoly, t) -> int:
    if t is NEG_INF:
        return (1 if p.lc() > 0 else -1) * (-1) ** p.degree()
    if t is POS_INF:
        return 1 if p.lc() > 0 else -1
    return p.sign_at(t)


def _sturm_counts(chain: list[UniPoly], *points) -> list[int]:
    """Distinct roots of chain[0] between each pair of consecutive points
    (ascending, none of them a root): the drops in sign variations.
    chain[0] = p need not be square-free: every term is a multiple of the
    last, gcd(p, p'), which is nonzero off the roots of p, so dividing it
    out (leaving the chain of the square-free part) changes no variation."""
    v = []
    for t in points:
        signs = [s for s in (_sign_at_point(p, t) for p in chain) if s != 0]
        v.append(sum(1 for a, b in zip(signs, signs[1:]) if a != b))
    return [a - b for a, b in zip(v, v[1:])]


def sturm_count(p: UniPoly, lo, hi) -> int:
    """Exact count of distinct real roots of p in the open interval (lo, hi).

    lo may be NEG_INF and hi POS_INF.  Finite endpoints must not be roots.
    """
    if p.is_zero():
        raise ValueError("root counting needs a nonzero polynomial")
    if lo is not NEG_INF and hi is not POS_INF and Fraction(lo) >= Fraction(hi):
        raise ValueError("empty interval: lo must be less than hi")
    for t, name in ((lo, "lo"), (hi, "hi")):
        if t is not NEG_INF and t is not POS_INF and p.sign_at(t) == 0:
            raise EndpointRootError(f"endpoint {name}={t} is a root; perturb it rationally")
    return _sturm_counts(sturm_chain(p), lo, hi)[0]


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-B, B)."""
    if p.is_zero() or p.degree() < 1:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(p.lc())
    m = max(abs(c) for c in p.coeffs[:-1])
    return 1 + Fraction(m, lead)


def _split(p: UniPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, int]:
    """Bisection's split point in (lo, hi) and p's sign there: the midpoint,
    moved to (lo + mid)/2 while it is a root, so lo + (hi - lo)/2^k for the
    least k >= 1 that is no root (there are finitely many)."""
    mid = (lo + hi) / 2
    sign = p.sign_at(mid)
    while sign == 0:
        mid = (lo + mid) / 2
        sign = p.sign_at(mid)
    return mid, sign


def isolate_real_roots(p: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, one per real root, ascending.

    Bisection of the Cauchy interval of the square-free part, driven by a
    worklist of (lo, hi, root count) triples popped depth first, left half
    first, so any depth runs in constant stack.  One Sturm count per split
    gives the left count; split points come from _split, so no endpoint is
    ever a root.

    The depth is bounded: two distinct roots of the square-free part sf,
    of degree n, are more than sqrt(3) n^(-(n+2)/2) ||sf||_2^(1-n) apart
    (Mahler 1964, with |disc sf| >= 1 and the Mahler measure at most
    ||sf||_2), so an interval no wider than the smaller 2^-m below, taken
    from bit lengths, holds at most one.  A count above 1 there is
    inconsistent, and raises IsolationError naming it instead of
    bisecting forever.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    # p's own chain counts its distinct roots and ends in gcd(p, p')
    chain = sturm_chain(p)
    sf = exact_div(p, chain[-1].primitive_part()).primitive_part()
    n = sf.degree()
    if n <= 0:
        return []
    # n^((n+2)/2) ||sf||_2^(n-1) < 2^m, with ||sf||_2^2 < 2^norm_bits
    norm_bits = sum(c * c for c in sf.coeffs).bit_length()
    m = (n.bit_length() * (n + 2) + norm_bits * (n - 1) + 1) // 2
    narrowest = Fraction(1, 1 << m)
    bound = root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []
    todo = [(-bound, bound, _sturm_counts(chain, -bound, bound)[0])]
    while todo:
        lo, hi, k = todo.pop()
        if k == 1:
            out.append((lo, hi))
        elif k > 1:
            if hi - lo <= narrowest:
                raise IsolationError(
                    f"inconsistent Sturm count {k} on ({lo}, {hi}): no interval of width at most 2^-{m}"
                    f" holds two roots of {format_poly(sf)}",
                    k,
                )
            mid, _ = _split(sf, lo, hi)
            kl = _sturm_counts(chain, lo, mid)[0]
            todo += [(mid, hi, k - kl), (lo, mid, kl)]
    # tighten for predictable downstream display; disjointness is preserved
    return [refine_root(sf, iv, Fraction(1, 4)) for iv in out]


def refine_root(p: UniPoly, interval: tuple[Fraction, Fraction], eps) -> tuple[Fraction, Fraction]:
    """Shrink a sign-isolating interval to width < eps: the interval that
    bisection by _split returns, found by regula falsi on bisection's grid.

    The input must bracket exactly one simple root (opposite endpoint signs);
    the output keeps opposite endpoint signs.

    Bisection halves k times, k the least with (hi - lo)/2^k < eps.  While
    no split point is a root it evaluates only points lo + (hi - lo) j/2^k
    of one grid, and it returns the one cell [j, j + 1] of that grid that
    holds the root.  Here that cell comes from integers a < b in [0, 2^k]
    with p of opposite signs at grid points a and b.  Each step evaluates
    the Illinois regula falsi point, rounded down into (a, b) and moved
    just as far toward the midpoint as keeps b - a <= 2^(k - s//2) after
    step s (the projection of Oliveira & Takahashi's ITP method, with one
    free step per halving).  So no call costs more than 2k + 2 evaluations, the two
    endpoints included, which also check isolation; random inputs take
    about 14 to 2^-128 and 22 to 2^-1024.  A grid point that is a root
    stops the search: bisection moves a midpoint off it, so its _split
    loop then runs from the input.

    Grid point j is (base + step j)/den with integers base, step and den > 0;
    p there has the sign of sum c_i N^i den^(n-i) at N = base + step j,
    whose terms c_i den^(n-i) are formed once per call.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    d = math.lcm(lo.denominator, hi.denominator)
    base = lo.numerator * (d // lo.denominator)
    step = hi.numerator * (d // hi.denominator) - base
    k = max(step * eps.denominator // (d * eps.numerator), 0).bit_length()
    base, den = base << k, d << k
    terms, scale = [], 1
    for c in reversed(p.coeffs):
        terms.append(c * scale)
        scale *= den

    def value(j: int) -> int:  # den^n p(grid point j)
        acc, num = 0, base + step * j
        for t in terms:
            acc = acc * num + t
        return acc

    a, b = 0, 1 << k
    fa, fb = value(a), value(b)
    if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
        raise IsolationError(
            f"interval ({lo}, {hi}) does not sign-isolate a simple root of {format_poly(p)}"
        )
    positive_at_a = fa > 0
    wa, wb = abs(fa), abs(fb)  # regula falsi weights; Illinois halves a stale one
    moved = steps = 0  # moved: 1 after a moved, -1 after b moved
    while b - a > 1:
        steps += 1
        width, twice_mid = b - a, a + b
        # |2j - twice_mid| <= reach leaves b - a <= 2^(k - steps//2)
        reach = (2 << (k - (steps >> 1))) - width
        j = a + width * wa // (wa + wb)
        j = min(max(j, a + 1, (twice_mid - reach + 1) >> 1), b - 1, (twice_mid + reach) >> 1)
        v = value(j)
        if v == 0:
            break
        if (v > 0) == positive_at_a:
            a, wa = j, abs(v)
            if moved == 1:
                wb >>= 1
            moved = 1
        else:
            b, wb = j, abs(v)
            if moved == -1:
                wa >>= 1
            moved = -1
    else:
        return (Fraction(base + step * a, den), Fraction(base + step * b, den))
    while hi - lo >= eps:
        mid, sign = _split(p, lo, hi)
        if (sign > 0) == positive_at_a:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


# -- arithmetic modulo a small prime ----------------------------------------
# packed ints: coefficient i of a polynomial over F_p in bits [iw, (i+1)w)


def _pack(cs: list[int], w: int) -> int:
    """Kronecker substitution: nonnegative coefficients into w-bit slots."""
    acc = 0
    for c in reversed(cs):
        acc = (acc << w) | c
    return acc


def _slot_reducer(n: int, p: int):
    """(w, reduce) for polynomials mod p packed in w-bit slots.

    A slot may hold any value below n(p - 1)^2 + p, and reduce takes up to
    2n such slots to their residues mod p at once, with one multiply, one
    shift and one mask:

        reduce(v) = v - p * (((v * mu) >> t) & M),   mu = ceil(2^t / p),

    where M keeps the low w - t bits of each slot.  Write mu = (2^t + e)/p
    with 0 <= e < p.  For a slot value a, a*mu / 2^t = a/p + a*e/(p 2^t),
    and t is the least exponent with 2^t > p*a for every allowed a, so
    a*e < 2^t and the error term stays below 1/p: the shift reads floor(a/p)
    exactly.  w is the least width with a*mu < 2^w for every allowed a, so
    the products a*mu of neighbouring slots never overlap.  After the shift,
    slot i holds floor(a*mu / 2^t) in its low w - t bits, under the low t
    bits of slot i + 1's product, which M drops.
    """
    bound = n * (p - 1) ** 2 + p
    t = (p * (bound - 1)).bit_length()
    mu = -(-(1 << t) // p)
    w = ((bound - 1) * mu).bit_length()
    mask = ((1 << (w - t)) - 1) * (((1 << (2 * n * w)) - 1) // ((1 << w) - 1))

    def reduce(v: int) -> int:
        return v - p * ((v * mu >> t) & mask)

    return w, reduce


def _gf_ddf_degrees(coeffs: tuple[int, ...], p: int) -> list[tuple[int, int]]:
    """(degree, multiplicity) of each irreducible factor over F_p of the
    polynomial with these ascending coefficients, p not dividing the last.

    One distinct-degree pass driven by the Frobenius matrix: row i is
    x^(ip) mod f, so h -> h^p mod f is one sum of rows.  h_k = x^(p^k) mod
    f stays valid modulo every divisor of f, and x^(p^k) - x is the
    square-free product of the monic irreducibles of degree dividing k.

    The degrees are taken in doubling blocks [d, e], e = min(2d - 1,
    deg rest / 2): [1], [2, 3], [4, 7], [8, 15], ...  Every factor of
    degree < d has already left rest, and an irreducible of degree in
    [d, e] divides x^(p^k) - x for k in the block only at k = its degree,
    the one multiple of its degree below 2d.  So one gcd
    G = gcd(rest, prod_k (h_k - x) mod f) is the square-free product of
    the distinct factors of rest with degree in the block, and a block
    without any costs that one gcd.  G is split degree by degree: while
    deg G >= 2k, g = gcd(G, h_k - x) holds its factors of degree k; once
    deg G < 2k, G is 1 or a single irreducible of degree deg G.  Peeling
    one power per round, rest <- rest / g and then g <- gcd(rest, g), the
    factors that drop out of g in round m have multiplicity m.  The pass
    stops when deg rest < 2d: every factor left has degree >= d, so rest is
    1 or a single irreducible of multiplicity 1.  Only degrees are read,
    so no gcd or quotient is made monic.

    No square-free decomposition comes first, so an inseparable f = h(x^p)
    needs no p-th root: the gcds never use f', and peeling counts the
    p-th powers like any other multiplicity.

    Every polynomial is one packed int, coefficient i in slot i, and all
    its slots are reduced mod p at once (see _slot_reducer).  Each
    operation leaves its slots below n(p - 1)^2 + p, the bound the slots
    are sized for:
    - a product of two reduced polynomials of degree < n, or a sum of n
      reduced Frobenius rows times reduced coefficients: n(p - 1)^2;
    - a division of reduced polynomials with at most n quotient terms:
      the top slot mod p over lc(divisor) gives the next term c, and
      adding p - c times the divisor, shifted, clears that slot mod p, so
      a slot gains at most (p - 1)^2 per term.  Every division here has at
      most n terms.  The cleared top slots are masked off, and the
      remainder is reduced once, at the end.
    - a Euclid step from a of degree m + 1 to b of degree m, the common
      case: the quotient q1 x + q0 is read as two scalars from the top two
      slots of a and b, and a + ((p - q1) x + (-q0 mod p)) b is one packed
      multiply, (p - 1) + 2(p - 1)^2 per slot.
    A product c = c1 x^n + c0 (deg c <= 2n - 2) is reduced mod f by
    polynomial Barrett reduction.  With u = x^(2n-1) div f, computed once,
    the quotient c div f is exactly q = (c1 u) div x^(n-1), and c mod f is
    the low n slots of c0 - q f.  These are computed as c0 + q (-f mod p),
    so no slot goes negative: three multiplies and three reductions.

    x^p mod f is built from p's bits left to right.  The longest leading
    run of bits whose value m is < n gives x^m as one shift, already
    reduced.  Each further bit squares (one mulmod), and a set bit then
    shifts by one slot and clears slot n with c x^n = c lc^-1 (-f mod p)
    (p - 1 + (p - 1)^2 per slot).  For p < n no multiply runs at all.
    """
    n = len(coeffs) - 1
    if n == 1:
        return [(1, 1)]
    w, reduce = _slot_reducer(n, p)
    slot, low = (1 << w) - 1, (1 << (n * w)) - 1

    def deg(v: int) -> int:
        return (v.bit_length() - 1) // w

    def divide(a: int, b: int) -> tuple[int, int]:
        """a div b, and a mod b with unreduced slots, for reduced a and b
        and at most n quotient terms."""
        db = (b.bit_length() - 1) // w
        inv = pow(b >> db * w, -1, p)
        q = 0
        for k in range((a.bit_length() - 1) // w - db, -1, -1):
            c = (a >> (k + db) * w & slot) * inv % p
            if c:
                q |= c << k * w
                a += (p - c) * b << k * w
        # the slots from deg b up are now 0 mod p
        return q, a & ((1 << db * w) - 1)

    def gcd(a: int, b: int) -> int:
        at = (a.bit_length() - 1) // w * w  # the offset of a's top slot
        while b >> w:
            bt = (b.bit_length() - 1) // w * w
            if at == bt + w:
                # the quotient q1 x + q0 from the top two slots; q b is
                # subtracted as one multiply by (p - q1) x + (-q0 mod p)
                inv = pow(b >> bt, -1, p)
                q1 = (a >> at) * inv % p
                q0 = ((a >> bt & slot) - q1 * (b >> bt - w & slot)) * inv % p
                r = (a + ((p - q1 << w) + -q0 % p) * b) & ((1 << bt) - 1)
            else:
                r = divide(a, b)[1]
            a, b, at = b, reduce(r), bt
        return 1 if b else a

    f = _pack([c % p for c in coeffs], w)
    barrett = divide(1 << (2 * n - 1) * w, f)[0]
    negf = _pack([-c % p for c in coeffs[:-1]], w)

    def mulmod(a: int, b: int) -> int:
        c = reduce(a * b)
        q = reduce((c >> n * w) * barrett >> (n - 1) * w)
        return reduce((c & low) + (q * negf & low))

    s = 0
    while p >> s >= n:
        s += 1
    xp, lc_inv = 1 << (p >> s) * w, pow(coeffs[-1], -1, p)
    for i in range(s - 1, -1, -1):
        xp = mulmod(xp, xp)
        if p >> i & 1:
            xp <<= w
            xp = reduce((xp & low) + (xp >> n * w) * lc_inv % p * negf)
    rows = [1, xp]

    out = []
    rest, h, d = f, xp, 1
    while deg(rest) >= 2 * d:
        e = min(2 * d - 1, deg(rest) // 2)
        hx = []
        for k in range(d, e + 1):
            if k > 1:
                # the Frobenius rows, built only once some h_k with k >= 2 is needed
                while len(rows) < n:
                    rows.append(mulmod(rows[-1], xp))
                frob = 0
                for row in rows:
                    frob += (h & slot) * row
                    h >>= w
                h = reduce(frob)
            hx.append(reduce(h + (p - 1 << w)))
        acc = hx[0]
        for v in hx[1:]:
            acc = mulmod(acc, v)
        found = gcd(rest, acc)
        for k, v in zip(range(d, e + 1), hx):
            if deg(found) < 2 * k:
                g, k, found = found, deg(found), 1
            else:
                g = gcd(v, found)
                found = divide(found, g)[0]
            m = 1
            while g >> w:
                rest = divide(rest, g)[0]
                left = gcd(rest, g)
                out += [(k, m)] * ((deg(g) - deg(left)) // k)
                g, m = left, m + 1
            if not found >> w:
                break
        d = e + 1
    if rest >> w:
        out.append((deg(rest), 1))
    return out


def _is_small_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def factor_mod_p(p: UniPoly, prime: int) -> tuple[tuple[int, int], ...]:
    """Sorted (degree, multiplicity) pairs of the irreducible factors of p
    mod prime, one pair per distinct factor.

    A single distinct-degree pass over the reduction of p, with the
    multiplicities peeled off inside it (see _gf_ddf_degrees); repeated and
    inseparable factors need no square-free decomposition first.
    """
    if not _is_small_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.lc() % prime == 0:
        raise ValueError(f"prime {prime} divides the leading coefficient")
    if p.degree() == 0:
        return ()
    return tuple(sorted(_gf_ddf_degrees(p.coeffs, prime)))


def primes(bound: int) -> list[int]:
    """The primes <= bound, ascending, as a fresh list."""
    return list(_prime_table(bound))


@functools.lru_cache(maxsize=8)
def _prime_table(bound: int) -> tuple[int, ...]:
    """The primes <= bound (Eratosthenes, composites struck by slice),
    sieved once per bound: Galois sampling and the irreducibility search
    walk the same table on every call."""
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for n in range(2, math.isqrt(bound) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, bound + 1, n)))
    return tuple(compress(range(bound + 1), sieve))


# -- rational roots and irreducibility ---------------------------------------


# Largest outer coefficient whose divisors rational_roots finds by trial
# division.  Near 10^5 that search and root isolation cost about the same
# in degree 2 to 12; above it the search grows as the square root.
_DIVISOR_SEARCH_MAX = 10**5


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots.

    A root a/b of the primitive part, in lowest terms, has a | c0 and
    b | lc.  While both are small the candidates are their divisors.
    Above that, trial division would grow tenfold every two digits, so
    each real root is instead isolated and rounded to the one multiple of
    1/lc it can equal (_rounded_real_roots).
    """
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    coeffs = list(p.coeffs)
    shift = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    q = UniPoly(coeffs)
    roots = set()
    if shift:
        roots.add(Fraction(0))
    if q.degree() >= 1:
        c0, cn = abs(q.coeffs[0]), abs(q.lc())
        if max(c0, cn) <= _DIVISOR_SEARCH_MAX:
            candidates = _divisor_candidates(c0, cn)
        else:
            candidates = _rounded_real_roots(q)
        roots.update(c for c in candidates if q.sign_at(c) == 0)
    return sorted(roots)


def _divisor_candidates(c0: int, cn: int) -> list[Fraction]:
    """Every ±num/den with num | c0 and den | cn."""
    return [
        Fraction(s * num, den) for num in _divisors(c0) for den in _divisors(cn) for s in (1, -1)
    ]


def _rounded_real_roots(q: UniPoly) -> list[Fraction]:
    """One rational candidate per real root of q: m/lc, with lc the leading
    coefficient of the primitive square-free part, which every rational
    root's denominator divides.  Each isolating interval is refined to
    width < 1/(2 lc); a root m/lc inside it is then within 1/(4 lc) of the
    midpoint, so m is the midpoint times lc, rounded."""
    sf = square_free_part(q)
    lc = sf.lc()
    out = []
    for iv in isolate_real_roots(sf):
        lo, hi = refine_root(sf, iv, Fraction(1, 2 * lc))
        out.append(Fraction(round((lo + hi) / 2 * lc), lc))
    return out


def _divisors(n: int) -> list[int]:
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
        k += 1
    return sorted(out)


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: str  # "irreducible" | "rational_root" | "inconclusive"
    witness: Optional[int] = None
    root: Optional[Fraction] = None

    def is_irreducible(self) -> bool:
        return self.status == "irreducible"


def irreducible_over_Q(p: UniPoly, prime_bound: int = 500) -> IrreducibilityVerdict:
    """Witness-based irreducibility over Q.

    Reports the lowest prime leaving p irreducible mod that prime, or a
    rational root, or an honest Inconclusive.  Never claims reducibility
    without a rational-root witness.

    At the first prime where p has a repeated factor, gcd(p, p') over Q is
    computed once.  If it is nonconstant, p has a repeated factor at every
    prime not dividing lc(p), so none can be a witness: Inconclusive at
    once, without factoring at the remaining primes.
    """
    if p.is_zero() or p.degree() < 1:
        raise ValueError("irreducibility test needs a nonconstant polynomial")
    q = p.primitive_part()
    if q.degree() >= 2:
        roots = rational_roots(q)
        if roots:
            return IrreducibilityVerdict("rational_root", root=roots[0])
    d = q.degree()
    square_free = None
    for prime in _prime_table(prime_bound):
        if q.lc() % prime == 0:
            continue
        pattern = factor_mod_p(q, prime)
        if pattern == ((d, 1),):
            return IrreducibilityVerdict("irreducible", witness=prime)
        if square_free is None and any(mult > 1 for _, mult in pattern):
            square_free = gcd(q, q.derivative()).degree() == 0
            if not square_free:
                break
    return IrreducibilityVerdict("inconclusive")


# -- text format --------------------------------------------------------------


def format_poly(p: UniPoly) -> str:
    """`poly: c0 c1 ... cn` (ascending coefficients)."""
    if p.is_zero():
        return "poly: 0"
    return "poly: " + " ".join(str(c) for c in p.coeffs)


def parse_poly(text: str) -> UniPoly:
    body = text.strip()
    if body.startswith("poly:"):
        body = body[len("poly:"):]
    parts = body.split()
    if not parts:
        raise ValueError(f"no coefficients in polynomial text {text!r}")
    try:
        coeffs = [int(tok) for tok in parts]
    except ValueError as exc:
        raise ValueError(f"bad coefficient in polynomial text {text!r}: {exc}") from None
    return UniPoly(coeffs)
