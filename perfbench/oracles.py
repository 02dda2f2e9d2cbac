"""Independent reference checks for the benchmark's results.

Nothing here imports frickelab.  Each check recomputes an answer by a
different route than the library: exact Fraction matrices and an mpmath
matrix representation for traces, an integer Sturm sequence for real root
counts, trial division or gcd(f, x^(p^k) - x) counts for degree
patterns mod p, and closed-form reasoning for the Salem verdicts.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import mpmath

DPS = 80
PAPER_QUINTIC = (-4, 4, 3, -4, -2, 1)  # ascending: x^5 - 2x^4 - 4x^3 + 3x^2 + 4x - 4
MARKOV_XY = (Fraction(3), Fraction(16, 5))  # rational x, y of the interval-backed point
EPS_128 = Fraction(1, 2**128)
EPS_96 = Fraction(1, 2**96)

_LETTERS = {"a": ("a", 1), "A": ("a", -1), "b": ("b", 1), "B": ("b", -1)}


def word_letters(text: str) -> list[tuple[str, int]]:
    return [_LETTERS[ch] for ch in text]


# -- exact rational polynomials (ascending coefficient lists) --------------------


def _trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p):
    return _trim([i * p[i] for i in range(1, len(p))])


def sign_at(p, t) -> int:
    """Exact sign of an integer polynomial at a rational t, or at "-inf" / "+inf"."""
    if t == "+inf":
        return 1 if p[-1] > 0 else -1
    if t == "-inf":
        return (1 if p[-1] > 0 else -1) * (-1) ** (len(p) - 1)
    t = Fraction(t)
    u, v = t.numerator, t.denominator
    n = len(p) - 1
    # v^n p(u/v) = sum c_i u^i v^(n-i), with v > 0
    acc = 0
    for i, c in enumerate(p):
        acc += c * u**i * v ** (n - i)
    return (acc > 0) - (acc < 0)


def _int_prem(a, b):
    """lc(b)^(deg a - deg b + 1) times the remainder of a by b, in integers."""
    r, lb, db = list(a), b[-1], len(b) - 1
    for _ in range(len(a) - len(b) + 1):
        if len(r) - 1 >= db:
            c, shift = r[-1], len(r) - len(b)
            r = [x * lb for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            r = _trim(r[:-1])
        else:
            r = [x * lb for x in r]
    return r


def sturm_sequence(p):
    """p, p', then negated remainders, each scaled by a positive integer.

    The last element is gcd(p, p') up to a constant factor.
    """
    seq = [list(p), _deriv(p)]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        r = _int_prem(a, b)
        if not r:
            break
        if b[-1] < 0 and (len(a) - len(b) + 1) % 2:
            r = [-x for x in r]
        g = 0
        for x in r:
            g = math.gcd(g, x)
        seq.append([-x // g for x in r])
    return seq


def _sign_changes(seq, t) -> int:
    signs = [s for s in (sign_at(q, t) for q in seq) if s]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def is_square_free(p) -> bool:
    return len(sturm_sequence(p)[-1]) == 1


def count_real_roots(p, lo="-inf", hi="+inf") -> int:
    """Distinct real roots of an integer polynomial in (lo, hi); endpoints not roots."""
    return roots_between(p, [lo, hi])[0]


def roots_between(p, points) -> list[int]:
    """Distinct real roots between consecutive points, none of which is a root.

    Sturm's theorem counts distinct roots without a square-free step, as
    every element of the sequence shares the factor gcd(p, p').
    """
    seq = sturm_sequence(p)
    changes = [_sign_changes(seq, t) for t in points]
    return [a - b for a, b in zip(changes, changes[1:])]


def rational_roots(p) -> list[Fraction]:
    p = _trim(p)
    roots = set()
    while p[0] == 0:
        p = p[1:]
        roots.add(Fraction(0))
    if len(p) > 1:
        for num in _divisors(abs(p[0])):
            for den in _divisors(abs(p[-1])):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if sign_at(p, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def primitive(p: list[int]) -> list[int]:
    g = 0
    for c in p:
        g = math.gcd(g, c)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def has_quadratic_factor(q: list[int]) -> bool:
    """Whether an integer quartic with q(0) != 0 is a product of two integer quadratics.

    Tries (a t^2 + b t + c)(d t^2 + e t + f) with a d = q4, c f = q0 and |b|
    below a Mignotte-style coefficient bound.
    """
    c0, c1, c2, c3, c4 = q
    bound = 2 * (math.isqrt(sum(c * c for c in q)) + 1) * abs(c4)
    for a in _divisors(abs(c4)):
        d = c4 // a
        for c in [s * k for k in _divisors(abs(c0)) for s in (1, -1)]:
            f = c0 // c
            for b in range(-bound, bound + 1):
                e, rem = divmod(c3 - b * d, a)
                if rem == 0 and b * f + c * e == c1 and a * f + b * e + c * d == c2:
                    return True
    return False


def pmul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def salem_transform(p: list[int]) -> list[int]:
    """Coefficients of t^d p(t + 1/t), expanded by the binomial theorem."""
    d = len(p) - 1
    out = [0] * (2 * d + 1)
    for i, c in enumerate(p):
        # t^d (t + 1/t)^i = sum_j C(i, j) t^(d + i - 2j)
        for j in range(i + 1):
            out[d + i - 2 * j] += c * math.comb(i, j)
    return out


# -- polynomials over F_p ----------------------------------------------------------


def _gf_trim(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _gf_rem(a, b, p):
    a = _gf_trim(a, p)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        k = len(a) - len(b)
        for i, x in enumerate(b):
            a[k + i] = (a[k + i] - c * x) % p
        a = _gf_trim(a, p)
    return a


def _gf_quo(a, b, p):
    a = _gf_trim(a, p)
    inv = pow(b[-1], p - 2, p)
    out = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        k = len(a) - len(b)
        out[k] = c
        for i, x in enumerate(b):
            a[k + i] = (a[k + i] - c * x) % p
        a = _gf_trim(a, p)
    return out, a


def gf_gcd(a, b, p):
    a, b = _gf_trim(a, p), _gf_trim(b, p)
    while b:
        a, b = b, _gf_rem(a, b, p)
    return a


def _gf_mulmod(a, b, f, p):
    return _gf_rem(pmul_int(a, b) if a and b else [], f, p)


def _gf_powmod(base, e, f, p):
    out, b = [1], _gf_rem(base, f, p)
    while e:
        if e & 1:
            out = _gf_mulmod(out, b, f, p)
        b = _gf_mulmod(b, b, f, p)
        e >>= 1
    return out


def pattern_by_trial_division(f, p) -> tuple[int, ...]:
    """Sorted irreducible factor degrees (with multiplicity) of f mod p."""
    f = _gf_trim(f, p)
    out = []
    d = 1
    while len(f) - 1 >= 2 * d:
        for tail in product(range(p), repeat=d):
            q, r = _gf_quo(f, list(tail) + [1], p)
            if not r:
                out.append(d)
                f = q
                break
        else:
            d += 1
    if len(f) > 1:
        out.append(len(f) - 1)
    return tuple(sorted(out))


def pattern_by_root_counts(f, p) -> tuple[int, ...]:
    """Factor degrees of a square-free f mod p from r_k = deg gcd(f, x^(p^k) - x).

    r_k counts the roots of f in F_(p^k), so r_k = sum over d | k of d * n_d.
    """
    f = _gf_trim(f, p)
    n = len(f) - 1
    counts = {}
    xk = [0, 1]
    for k in range(1, n + 1):
        xk = _gf_powmod(xk, p, f, p)  # x^(p^k) mod f
        diff = xk + [0] * max(0, 2 - len(xk))
        diff[1] -= 1
        diff = _gf_trim(diff, p)
        r = len(gf_gcd(f, diff, p)) - 1 if diff else n
        counts[k] = (r - sum(d * counts[d] for d in counts if k % d == 0)) // k
    return tuple(sorted(d for d, m in counts.items() for _ in range(m)))


def factor_pattern(f, p) -> tuple[int, ...]:
    """Trial division when it is cheap, otherwise root counts; f square-free mod p."""
    n = len(f) - 1
    if sum(p**d for d in range(1, n // 2 + 1)) <= 20000:
        return pattern_by_trial_division(f, p)
    return pattern_by_root_counts(f, p)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def forces_transposition(pattern) -> bool:
    return sum(1 for d in pattern if d == 2) == 1 and all(d % 2 for d in pattern if d != 2)


def forces_alternating(pattern, n: int) -> bool:
    """A part of prime length l with n/2 < l < n - 2: a power is an l-cycle (Jordan)."""
    return any(is_prime(l) and n / 2 < l < n - 2 for l in pattern)


def is_odd(pattern, n: int) -> bool:
    return (n - len(pattern)) % 2 == 1


# -- matrices ------------------------------------------------------------------------


def _mat_mul(m, k):
    return (
        (m[0][0] * k[0][0] + m[0][1] * k[1][0], m[0][0] * k[0][1] + m[0][1] * k[1][1]),
        (m[1][0] * k[0][0] + m[1][1] * k[1][0], m[1][0] * k[0][1] + m[1][1] * k[1][1]),
    )


def _mat_inv(m):
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def word_trace(letters, A, B):
    one, zero = A[0][0] * 0 + 1, A[0][0] * 0
    m = ((one, zero), (zero, one))
    gens = {("a", 1): A, ("a", -1): _mat_inv(A), ("b", 1): B, ("b", -1): _mat_inv(B)}
    for letter in letters:
        m = _mat_mul(m, gens[letter])
    return m[0][0] + m[1][1]


def random_sl2q(rng: random.Random):
    """Random 2x2 rational matrix of determinant 1 with small entries."""
    def q():
        return Fraction(rng.randint(-7, 7), rng.randint(1, 4))

    while True:
        a, b, c = q(), q(), q()
        if a != 0:
            return ((a, b), (c, (1 + b * c) / a))


def poly_trace_value(terms, x, y, z):
    """Exact value of sum c X^i Y^j Z^k at Fractions x, y, z."""
    top = [max((m[v] for m, _ in terms), default=0) for v in range(3)]
    pw = []
    for v, val in zip(top, (x, y, z)):
        row = [Fraction(1)]
        for _ in range(v):
            row.append(row[-1] * val)
        pw.append(row)
    return sum((c * pw[0][i] * pw[1][j] * pw[2][k] for (i, j, k), c in terms), Fraction(0))


def check_trace_polynomial(word: str, terms, rng: random.Random, pairs: int = 2) -> bool:
    letters = word_letters(word)
    for _ in range(pairs):
        A, B = random_sl2q(rng), random_sl2q(rng)
        x, y = A[0][0] + A[1][1], B[0][0] + B[1][1]
        AB = _mat_mul(A, B)
        z = AB[0][0] + AB[1][1]
        if poly_trace_value(terms, x, y, z) != word_trace(letters, A, B):
            return False
    return True


# -- the paper point and the Markov point as mpmath matrices ---------------------------


class MpPoints:
    """Real SL(2) representations whose traces are the two benchmark points.

    x0 comes from mpmath's polynomial root finder on the paper quintic,
    not from the library's Sturm isolation.
    """

    def __init__(self):
        mpmath.mp.dps = DPS
        roots = mpmath.polyroots(list(reversed(PAPER_QUINTIC)), maxsteps=200, extraprec=200)
        real = [r for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** (-60)]
        if len(real) != 1:
            raise AssertionError(f"paper quintic should have one real root, found {len(real)}")
        self.x0 = mpmath.re(real[0])
        x = self.x0
        self.paper = self._rep(x, x, (x * x + x - 2) / x)
        mx, my = (mpmath.mpf(c.numerator) / c.denominator for c in MARKOV_XY)
        mz = (mx * my + mpmath.sqrt((mx * my) ** 2 - 4 * (mx * mx + my * my))) / 2
        self.markov = self._rep(mx, my, mz)

    @staticmethod
    def _rep(x, y, z):
        # A = [[x, -1], [1, 0]], B = [[0, u], [-1/u, y]] give tr AB = u + 1/u = z
        u = (z + mpmath.sqrt(z * z - 4)) / 2
        A = ((x, mpmath.mpf(-1)), (mpmath.mpf(1), mpmath.mpf(0)))
        B = ((mpmath.mpf(0), u), (-1 / u, y))
        return A, B

    def paper_trace(self, word: str):
        mpmath.mp.dps = DPS
        return word_trace(word_letters(word), *self.paper)

    def markov_trace(self, word: str):
        mpmath.mp.dps = DPS
        return word_trace(word_letters(word), *self.markov)

    def field_value(self, coeffs) -> "mpmath.mpf":
        """Value at x0 of a number-field element given by its power-basis coefficients."""
        mpmath.mp.dps = DPS
        acc = mpmath.mpf(0)
        for c in reversed(coeffs):
            acc = acc * self.x0 + mpmath.mpf(c.numerator) / c.denominator
        return acc


def trace_class(tr) -> str:
    """'neg' (< -2), 'peripheral' (|tr| = 2), 'pos' (> 2) or 'elliptic'."""
    tol = mpmath.mpf(10) ** (-30) * max(1, abs(tr))
    if abs(abs(tr) - 2) <= tol:
        return "peripheral"
    if tr > 2:
        return "pos"
    if tr < -2:
        return "neg"
    return "elliptic"


def close(a, b, rel=60) -> bool:
    return abs(a - b) <= mpmath.mpf(10) ** (-rel) * max(1, abs(a), abs(b))


def encloses(lo: Fraction, hi: Fraction, v, rel=60) -> bool:
    tol = mpmath.mpf(10) ** (-rel) * max(1, abs(v))
    mpmath.mp.dps = DPS
    flo = mpmath.mpf(lo.numerator) / lo.denominator
    fhi = mpmath.mpf(hi.numerator) / hi.denominator
    return lo <= hi and flo - tol <= v <= fhi + tol
