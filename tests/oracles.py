"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own code paths: plain
2x2 matrices (float or exact Fraction) for traces, trial-division
factorization over prime fields, Fraction Gaussian elimination for
determinants, a textbook Fraction Sturm chain for root counts, Fraction
Euclid for gcds, and schoolbook products with long division for
number-field arithmetic.
"""

import math
import random
from fractions import Fraction
from itertools import product


def random_sl2(rng: random.Random):
    """Random 2x2 real matrix, entries in [-2, 2], normalized to det 1."""
    while True:
        m = [[rng.uniform(-2, 2), rng.uniform(-2, 2)], [rng.uniform(-2, 2), rng.uniform(-2, 2)]]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det > 0.1:
            s = math.sqrt(det)
            return [[v / s for v in row] for row in m]


def mat_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def mat_inv_sl2(a):
    return [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]]


def random_sl2_rational(rng: random.Random):
    """Random 2x2 Fraction matrix with determinant exactly 1."""
    a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return [[a, b], [c, (1 + b * c) / a]]


def word_matrix(w, A, B):
    """Product of the letter matrices; exact when A and B hold Fractions."""
    m = [[1, 0], [0, 1]]
    for g, e in w:
        base = A if g == "a" else B
        m = mat_mul(m, base if e == 1 else mat_inv_sl2(base))
    return m


def numeric_trace(w, A, B):
    m = word_matrix(w, A, B)
    return m[0][0] + m[1][1]


# -- trial-division factorization over F_p (slow, independent) -----------------


def _norm(c, p):
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _divmod_p(a, b, p):
    a = a[:]
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        c = a[-1] * inv % p
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[i + k] = (a[i + k] - c * b[i]) % p
        a.pop()
        while a and a[-1] % p == 0:
            a.pop()
    return _norm(q, p), _norm(a, p)


def brute_force_factor_degrees(coeffs, p):
    """Sorted (degree, multiplicity) pairs via exhaustive trial division."""
    return tuple(sorted((len(g) - 1, mult) for g, mult in brute_force_factor_list(coeffs, p)))


def brute_force_factor_list(coeffs, p):
    """Full list of (monic factor tuple, multiplicity) by trial division."""
    f = _norm(list(coeffs), p)
    assert len(f) > 1
    factors = {}
    d = 1
    while len(f) - 1 >= 2 * d:
        hit = False
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            q, r = _divmod_p(f, g, p)
            if not r:
                factors[tuple(g)] = factors.get(tuple(g), 0) + 1
                f = q
                hit = True
                break
        if not hit:
            d += 1
    if len(f) > 1:
        key = tuple(_divmod_p(f, [f[-1]], p)[0])  # monic-ize
        factors[key] = factors.get(key, 0) + 1
    return sorted(factors.items())


def fraction_det(mat):
    """Plain Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def fraction_rem(f, g):
    """Remainder of f by g over Q, both ascending Fraction lists with
    nonzero top coefficients; the remainder has no trailing zeros."""
    f = f[:]
    while len(f) >= len(g) and any(f):
        c = f[-1] / g[-1]
        k = len(f) - len(g)
        for i in range(len(g)):
            f[i + k] -= c * g[i]
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return f


def fraction_gcd(p, q):
    """Monic gcd over Q of two polynomials, not both zero, as ascending
    Fractions: Euclid's algorithm with Fraction remainders."""
    a, b = ([Fraction(c) for c in f.coeffs] for f in (p, q))
    while b:
        a, b = b, fraction_rem(a, b)
    return [c / a[-1] for c in a]


def rational_sturm_count(p, lo, hi):
    """Distinct real roots of p in (lo, hi) by textbook Sturm counting over
    Fractions; p need not be square-free, lo and hi must not be roots."""
    coeffs = [Fraction(c) for c in p.coeffs]

    def deriv(f):
        return [i * c for i, c in enumerate(f)][1:]

    chain = [coeffs, deriv(coeffs)]
    while chain[-1] and len(chain[-1]) > 1:
        r = [-c for c in fraction_rem(chain[-2], chain[-1])]
        if not r:
            break
        chain.append(r)

    def var(t):
        signs = []
        for f in chain:
            v = sum(c * t ** i for i, c in enumerate(f))
            if v:
                signs.append(1 if v > 0 else -1)
        return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)

    return var(lo) - var(hi)


def mul_mod(a, b, f):
    """Coefficients (ascending Fractions, length deg f) of a*b mod f, by the
    schoolbook product and plain long division; f need not be monic."""
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    return rem_mod(prod, f)


def rem_mod(a, f):
    """Remainder of a modulo f by long division, padded to length deg f."""
    n = len(f) - 1
    a = [Fraction(c) for c in a]
    while len(a) > n:
        c = a.pop() / Fraction(f[-1])
        for i in range(n):
            a[len(a) - n + i] -= c * f[i]
    return tuple(a + [Fraction(0)] * (n - len(a)))


# -- bisection with Fraction midpoints ----------------------------------------


def bisect_root(coeffs, lo, hi, eps):
    """Bisect (lo, hi), where the integer polynomial with ascending coeffs
    changes sign, until the width is < eps, by Fraction Horner values.
    The split point is the midpoint, moved to (lo + mid)/2 while it is a
    root, and the half whose endpoints differ in sign is kept."""

    def value(t):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    lo, hi, eps = Fraction(lo), Fraction(hi), Fraction(eps)
    lo_positive = value(lo) > 0
    while hi - lo >= eps:
        mid = (lo + hi) / 2
        v = value(mid)
        while v == 0:
            mid = (lo + mid) / 2
            v = value(mid)
        if (v > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo, hi
