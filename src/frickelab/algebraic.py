"""Certified algebraic reals and number-theoretic verdicts.

An AlgebraicReal is a square-free integer polynomial together with an
isolating rational interval; all comparisons are exact (Sturm counts and
sign bisection, never floating point).  On top of that sit the verdict
operations: geometric-Salem and Salem certification via the t + 1/t
change of variable, Dedekind cycle-type sampling, and symmetric-group
certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .intervals import RatInterval, _mul, _numerators
from .poly import (
    IrreducibilityVerdict,
    IsolationError,
    UniPoly,
    _is_small_prime,
    _power,
    _prime_table,
    _qpoly_divmod,
    _rem_monic,
    _sturm_counts,
    discriminant,
    factor_mod_p,
    format_poly,
    gcd,
    irreducible_over_Q,
    rational_roots,
    refine_root,
    square_free_part,
    sturm_chain,
    sturm_count,
    NEG_INF,
    POS_INF,
)


class AlgebraicReal:
    """A real algebraic number: square-free defining polynomial + isolating interval.

    Invariant (checked by make_algebraic, kept by refine_root): poly has
    exactly one root in (lo, hi), a simple one, and poly(lo), poly(hi) are
    nonzero with opposite signs.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: UniPoly, lo: Fraction, hi: Fraction):
        # trusted constructor; use make_algebraic for checked construction
        self.poly = poly
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"AlgebraicReal({format_poly(self.poly)!r}, ({self.lo}, {self.hi}))"

    def interval(self) -> RatInterval:
        return RatInterval(self.lo, self.hi)

    def refined(self, eps) -> "AlgebraicReal":
        """A new value with isolating interval narrower than eps."""
        lo, hi = refine_root(self.poly, (self.lo, self.hi), eps)
        return AlgebraicReal(self.poly, lo, hi)

    def cmp_rational(self, q) -> int:
        """Exact three-way comparison against a rational."""
        q = Fraction(q)
        if q <= self.lo:
            return 1
        if q >= self.hi:
            return -1
        s = self.poly.sign_at(q)
        if s == 0:
            return 0
        # the one root lies on the side of q where the sign flips
        return 1 if s == self.poly.sign_at(self.lo) else -1

    def is_root_of(self, f: UniPoly) -> bool:
        """Exact test that f vanishes at this number.

        g = gcd(poly, f) divides the square-free poly, so by the invariant
        g has at most the one simple root in (lo, hi) and is nonzero at lo
        and hi; g changes sign across the interval exactly when that root
        is a root of g.  No Sturm chain is needed.
        """
        if f.is_zero():
            return True
        g = gcd(self.poly, f)
        if g.degree() < 1:
            return False
        return g.sign_at(self.lo) != g.sign_at(self.hi)


def make_algebraic(p: UniPoly, hint: tuple) -> AlgebraicReal:
    """Certified algebraic real: square-free part of p restricted to hint.

    Fails with IsolationError when hint does not contain exactly one root.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial does not define an algebraic number")
    sf = square_free_part(p)
    lo, hi = Fraction(hint[0]), Fraction(hint[1])
    if sf.degree() < 1:
        raise IsolationError(f"({lo}, {hi}) contains 0 roots of a constant", count=0)
    count = sturm_count(sf, lo, hi)
    if count != 1:
        raise IsolationError(
            f"interval ({lo}, {hi}) contains {count} roots of {format_poly(sf)}, expected 1",
            count=count,
        )
    # one simple root of a square-free polynomial with non-root endpoints
    # must change sign across the interval
    if sf.sign_at(lo) == sf.sign_at(hi):
        raise AssertionError("sign change missing around a certified simple root")
    return AlgebraicReal(sf, lo, hi)


# -- number field arithmetic ---------------------------------------------------


class NumberField:
    """Q(theta) for theta a certified real root of an irreducible polynomial.

    Elements are stored on the power basis of phi = c theta, c = |lc(f)|,
    a root of the monic integer g(t) = sign(lc f) c^(n-1) f(t / c); phi =
    theta for a monic f.  (n_0 + n_1 phi + ... + n_{d-1} phi^(d-1)) / D is
    the integer numerators n_i over one positive common denominator D,
    always in lowest terms: gcd(D, n_0, ..., n_{d-1}) = 1.  Each element
    thus has one representation, and products and sums need integer
    arithmetic and one reduction mod g only (Cohen, A Course in
    Computational Algebraic Number Theory, 4.2).  element(), gen() and
    FieldElement.coeffs speak theta's basis.  Sign determination is exact:
    a nonzero element cannot vanish at theta, so interval refinement of
    theta terminates.
    """

    def __init__(self, defining: UniPoly, root: AlgebraicReal, irreducibility: IrreducibilityVerdict):
        if not irreducibility.is_irreducible():
            raise ValueError("number field needs an irreducibility witness for its defining polynomial")
        self.defining = defining
        self.root = root
        self.irreducibility = irreducibility
        self.degree = n = defining.degree()
        self._scale = c = abs(defining.lc())
        # g = sign(lc) c^(n-1) f(t / c) = c^n f(t / c) / lc, exactly divisible
        self._monic = tuple(a * c ** (n - i) // defining.lc() for i, a in enumerate(defining.coeffs))

    def _element(self, nums: list[int], den: int) -> "FieldElement":
        """(sum nums[i] phi^i) / den for den > 0, reduced modulo g and
        brought to lowest terms."""
        nums = _rem_monic(nums, self._monic)
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        return FieldElement(self, tuple(nums), den)

    def element(self, coeffs) -> "FieldElement":
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        # theta^i = phi^i / c^i, so over den c^top numerator i is cs[i] den c^(top - i)
        c, top = self._scale, max(len(cs) - 1, 0)
        nums = [q.numerator * (den // q.denominator) * c ** (top - i) for i, q in enumerate(cs)]
        return self._element(nums, den * c ** top)

    def gen(self) -> "FieldElement":
        return self.element([0, 1])

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)


class FieldElement:
    """(_nums[0] + _nums[1] phi + ...) / _den in lowest terms; see NumberField."""

    __slots__ = ("field", "_nums", "_den")

    def __init__(self, field: NumberField, nums: tuple[int, ...], den: int):
        # trusted constructor: the NumberField methods keep the invariant
        self.field = field
        self._nums = nums
        self._den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients in the power basis 1, theta, theta^2, ..."""
        c = self.field._scale
        return tuple(Fraction(v * c ** i, self._den) for i, v in enumerate(self._nums))

    def __repr__(self) -> str:
        return f"FieldElement({list(self.coeffs)})"

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_rational(self) -> bool:
        return not any(self._nums[1:])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self._den == other._den
            and self._nums == other._nums
        )

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("field elements from different fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        a, b = self._den, other._den
        if a == b:
            nums = [x + y for x, y in zip(self._nums, other._nums)]
        else:
            nums = [x * b + y * a for x, y in zip(self._nums, other._nums)]
            a *= b
        return self.field._element(nums, a)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-c for c in self._nums), self._den)

    def __sub__(self, other) -> "FieldElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FieldElement":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "FieldElement":
        other = self._coerce(other)
        a, b = self._nums, other._nums
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.field._element(prod, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid in Q[t] against the defining polynomial, with the
        # Bezout coefficients s0, s1 kept as field elements
        r0 = [Fraction(c) for c in self.field.defining.coeffs]
        r1 = list(self.coeffs)
        s0, s1 = self.field.from_rational(0), self.field.from_rational(1)
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                return s1 * (1 / r1[0])
            q, r = _qpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - self.field.element(q) * s1

    def __truediv__(self, other) -> "FieldElement":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.from_rational(1))

    def _enclosures(self):
        """Interval Horner of the numerators on phi's interval c [lo, hi],
        quartered between enclosures (refining below half the width takes
        two bisections): the element's enclosures times its positive
        denominator, which commutes with interval products."""
        root, c = self.field.root, self.field._scale
        while True:
            yield _horner_interval(self._nums, RatInterval(c * root.lo, c * root.hi))
            root = root.refined((root.hi - root.lo) / 2)

    def interval(self, eps) -> RatInterval:
        """Enclosure of width < eps, refining the field generator as needed."""
        eps = Fraction(eps) * self._den
        if eps <= 0:
            raise ValueError("eps must be positive")
        iv = next(iv for iv in self._enclosures() if iv.width() < eps)
        return RatInterval(iv.lo / self._den, iv.hi / self._den)

    def sign(self) -> int:
        """Exact sign; terminates because nonzero elements cannot vanish at theta."""
        if self.is_zero():
            return 0
        iv = next(iv for iv in self._enclosures() if iv.lo > 0 or iv.hi < 0)
        return 1 if iv.lo > 0 else -1

    def cmp_rational(self, q) -> int:
        return (self - Fraction(q)).sign()


def _horner_interval(coeffs, iv: RatInterval) -> RatInterval:
    """Interval Horner acc * iv + c on integer coefficients, with acc kept
    as integer numerators over a growing power of iv's denominator."""
    lo, hi, d = _numerators(iv)
    acc_lo = acc_hi = 0
    den = 1
    for c in reversed(coeffs):
        acc_lo, acc_hi = _mul(acc_lo, acc_hi, lo, hi)
        den *= d
        acc_lo += c * den
        acc_hi += c * den
    return RatInterval(Fraction(acc_lo, den), Fraction(acc_hi, den))


# -- Salem verdicts --------------------------------------------------------------


@dataclass(frozen=True)
class SalemVerdict:
    status: str  # "GeometricSalem" | "Salem" | "NotSalem" | "Inconclusive"
    reason: str
    evidence: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status in ("GeometricSalem", "Salem")


def is_geometric_salem(p: UniPoly, prime_bound: int = 500) -> SalemVerdict:
    """Certify that p is the minimal polynomial of a geometric Salem number:
    one real root above 2, all other roots real with absolute value below 2.
    """
    if p.is_zero() or p.degree() < 1:
        raise ValueError("geometric Salem test needs a nonconstant integer polynomial")
    q = p.primitive_part()
    deg = q.degree()
    evidence = {"degree": deg, "monic": q.lc() == 1}

    if deg == 1:
        root = Fraction(-q.coeffs[0], q.coeffs[1])
        evidence.update(real_roots=1, roots_above_2=int(root > 2), roots_in_window=0)
        if root > 2:
            return SalemVerdict("GeometricSalem", "degree 1: rational root above 2", evidence)
        return SalemVerdict("NotSalem", f"root {root} does not exceed 2", evidence)

    irr = irreducible_over_Q(q, prime_bound)
    evidence["irreducibility"] = irr.status
    if irr.status == "rational_root":
        return SalemVerdict("NotSalem", f"reducible: rational root {irr.root}", evidence)
    if irr.status == "inconclusive":
        return SalemVerdict(
            "Inconclusive", f"no irreducibility witness prime below {prime_bound}", evidence
        )
    evidence["irreducibility_witness"] = irr.witness

    # irreducible of degree >= 2: square-free with no rational roots, so one
    # chain counts all three intervals and +-2 are safe endpoints
    below, window, above = _sturm_counts(
        sturm_chain(q), NEG_INF, Fraction(-2), Fraction(2), POS_INF
    )
    n_real = above + window + below
    evidence.update(
        real_roots=n_real, roots_above_2=above, roots_in_window=window, roots_below_minus2=below
    )
    if n_real != deg:
        return SalemVerdict(
            "NotSalem", f"only {n_real} of {deg} roots are real (complex conjugates exist)", evidence
        )
    if above != 1:
        return SalemVerdict("NotSalem", f"{above} roots exceed 2, need exactly 1", evidence)
    if window != deg - 1:
        return SalemVerdict(
            "NotSalem", f"a conjugate lies outside (-2, 2): window count {window} != {deg - 1}", evidence
        )
    return SalemVerdict(
        "GeometricSalem", "irreducible, all roots real, one above 2, rest inside (-2, 2)", evidence
    )


def _t2p1_powers(d: int) -> list[UniPoly]:
    """(t^2 + 1)^i for i = 0..d: t^d (t + 1/t)^i is power i shifted by d - i."""
    t2p1, powers = UniPoly([1, 0, 1]), [UniPoly([1])]
    for _ in range(d):
        powers.append(powers[-1] * t2p1)
    return powers


def salem_transform(p: UniPoly) -> UniPoly:
    """Expansion of t^d * p(t + 1/t): degree doubles and the result is palindromic."""
    if p.is_zero():
        raise ValueError("transform of the zero polynomial")
    d = p.degree()
    powers = _t2p1_powers(d)
    out = UniPoly()
    for i, c in enumerate(p.coeffs):
        if c:
            out = out + powers[i].scale(c).shift_up(d - i)
    return out


def salem_inverse_transform(q: UniPoly) -> UniPoly:
    """Recover h with q = t^m * h(t + 1/t) from a palindromic even-degree q."""
    if q.is_zero() or q.degree() % 2 != 0:
        raise ValueError("inverse transform needs a nonzero even-degree polynomial")
    if tuple(reversed(q.coeffs)) != q.coeffs:
        raise ValueError("inverse transform needs a palindromic polynomial")
    m = q.degree() // 2
    rem = list(q.coeffs)
    powers = _t2p1_powers(m)
    h = [0] * (m + 1)
    for j in range(m, -1, -1):
        c = rem[m + j]
        h[j] = c
        if c:
            basis = powers[j].scale(c).shift_up(m - j)
            for idx, bc in enumerate(basis.coeffs):
                rem[idx] -= bc
    if any(rem):
        raise AssertionError("palindromic polynomial failed basis peeling")
    return UniPoly(h)


def is_salem(p: UniPoly) -> SalemVerdict:
    """Certify that monic palindromic p defines a Salem number.

    Writing p = t^m h(t + 1/t), the Salem condition is exactly: h has one
    root above 2 and m-1 roots inside (-2, 2).  All checks are Sturm counts.
    """
    if p.is_zero() or p.degree() < 1:
        raise ValueError("Salem test needs a nonconstant polynomial")
    if p.lc() != 1:
        raise ValueError("Salem test needs a monic polynomial")
    if p.degree() % 2 != 0:
        raise ValueError("Salem test needs even degree (reciprocal polynomials)")
    deg = p.degree()
    evidence = {"degree": deg}
    if deg < 4:
        return SalemVerdict("NotSalem", "degenerate: degree below 4 has no circle conjugates", evidence)
    if tuple(reversed(p.coeffs)) != p.coeffs:
        return SalemVerdict("NotSalem", "not reciprocal (coefficients not palindromic)", evidence)
    if p.sign_at(1) == 0 or p.sign_at(-1) == 0:
        return SalemVerdict("NotSalem", "root at t = 1 or t = -1 (reducible cyclotomic factor)", evidence)
    m = deg // 2
    h = salem_inverse_transform(p)
    evidence["h_polynomial"] = format_poly(h)
    # h(2) = p(1) and h(-2) = p(-1) are nonzero, so +-2 are safe endpoints
    chain = sturm_chain(h)
    window, above = _sturm_counts(chain, Fraction(-2), Fraction(2), POS_INF)
    evidence.update(h_roots_above_2=above, h_roots_in_window=window, h_degree=m)
    if above == 0 and window == m:
        return SalemVerdict("NotSalem", "all roots lie on the unit circle, none outside", evidence)
    if above != 1:
        return SalemVerdict(
            "NotSalem", f"{above} compressed roots exceed 2, need exactly 1", evidence
        )
    if window != m - 1:
        # a chain ending in gcd(h, h') of positive degree: the counts miss repeats
        if chain[-1].degree() > 0:
            why = f"h has a repeated root, a root of {format_poly(chain[-1].primitive_part())}"
        else:
            why = "a conjugate pair is off the circle"
        return SalemVerdict("NotSalem", f"(-2, 2) count {window} != {m - 1}: {why}", evidence)
    return SalemVerdict(
        "Salem", "one real pair (y, 1/y) with y > 1, all other conjugates on the unit circle", evidence
    )


# -- Galois certificates -----------------------------------------------------------


@dataclass(frozen=True)
class GaloisCertificate:
    irreducibility: IrreducibilityVerdict
    samples: tuple[tuple[int, tuple[int, ...]], ...]  # (prime, sorted factor degrees)
    conclusion: str  # "FullSymmetric(n)" | "ContainsNCycle(n)" | "Unknown"
    note: str = ""

    def is_full_symmetric(self) -> bool:
        return self.conclusion.startswith("FullSymmetric")


def _forces_transposition(pattern: tuple[int, ...]) -> bool:
    """A Frobenius cycle type powers to a transposition iff it has exactly
    one part equal to 2 and every other part odd."""
    twos = sum(1 for d in pattern if d == 2)
    return twos == 1 and all(d % 2 == 1 for d in pattern if d != 2)


def galois_cycle_types(p: UniPoly, prime_bound: int = 500) -> GaloisCertificate:
    """Dedekind sampling: factor degree patterns modulo unramified primes.

    Concludes FullSymmetric(n) for prime n from an n-cycle pattern plus a
    transposition-forcing pattern (with irreducibility giving transitivity).
    Sampling failure yields Unknown, never a negative claim.

    Each prime is factored once.  The irreducibility witness is the lowest
    sample with pattern (n,): a prime not dividing lc(q) at which q stays
    irreducible cannot divide disc(q), since finite fields are perfect, so
    irreducible_over_Q would name the same prime.  Without an n-cycle
    sample no prime below the bound can be a witness: each prime p not
    dividing lc(q) is a sample or divides disc(q), and then q mod p has a
    repeated factor.  So only a rational root is looked for, else the
    verdict is Inconclusive.
    """
    if p.is_zero() or p.degree() < 1:
        raise ValueError("Galois sampling needs a nonconstant polynomial")
    q = square_free_part(p)
    n = q.degree()
    disc = discriminant(q)
    samples = tuple(
        (prime, tuple(sorted(d for d, mult in factor_mod_p(q, prime) for _ in range(mult))))
        for prime in _prime_table(prime_bound)
        if q.lc() % prime and disc % prime
    )
    witness = next((prime for prime, pat in samples if pat == (n,)), None)
    if witness is None:
        roots = rational_roots(q) if n >= 2 else []
        if roots:
            irr = IrreducibilityVerdict("rational_root", root=roots[0])
            note = f"irreducibility failed: rational root {irr.root}"
        else:
            irr = IrreducibilityVerdict("inconclusive")
            note = f"no irreducibility witness below {prime_bound}"
        return GaloisCertificate(irr, samples, "Unknown", note)

    irr = IrreducibilityVerdict("irreducible", witness=witness)
    if _is_small_prime(n) and any(_forces_transposition(pat) for _, pat in samples):
        return GaloisCertificate(
            irr, samples, f"FullSymmetric({n})",
            "transitive + n-cycle + transposition generate the symmetric group in prime degree",
        )
    return GaloisCertificate(irr, samples, f"ContainsNCycle({n})", "n-cycle pattern observed")


def _irreducibility_line(irr: IrreducibilityVerdict) -> str:
    """`irreducibility: witness prime p`, or the status when there is no witness."""
    if irr.is_irreducible():
        return f"irreducibility: witness prime {irr.witness}"
    return f"irreducibility: {irr.status}"


# -- non-arithmeticity report ----------------------------------------------------


@dataclass(frozen=True)
class NonArithmeticityReport:
    lines: tuple[str, ...]
    verdict: str  # "NonArithmeticCertified" | "Silent" | "NotCertified"
    certificate: Optional[GaloisCertificate] = None

    def to_text(self) -> str:
        return "\n".join(self.lines + (f"verdict: {self.verdict}",))


def non_arithmeticity_report(p: UniPoly, prime_bound: int = 500) -> NonArithmeticityReport:
    """Solvability obstruction for a trace's minimal polynomial.

    A nonuniform arithmetic surface group is commensurable with the modular
    group, which forces every trace to be expressible by radicals; a
    certified non-solvable Galois group for the trace's minimal polynomial
    rules that out.
    """
    deg = p.degree()
    if deg < 1:
        raise ValueError("non-arithmeticity report needs a nonconstant polynomial")
    lines = [f"minimal polynomial: {format_poly(p)}", f"degree: {deg}"]
    if deg == 1:
        lines.append("conclusion: rational trace; test silent")
        return NonArithmeticityReport(tuple(lines), "Silent")
    if deg <= 4:
        lines.append("conclusion: solvable Galois group; this test is silent")
        return NonArithmeticityReport(tuple(lines), "Silent")

    cert = galois_cycle_types(p, prime_bound)
    lines.append(_irreducibility_line(cert.irreducibility))
    lines.append(f"galois: {cert.conclusion}")
    # the samples factor the square-free part: each pattern sums to its degree
    n = sum(cert.samples[0][1]) if cert.samples else deg
    if n <= 4:
        lines.append("conclusion: solvable Galois group; this test is silent")
        return NonArithmeticityReport(tuple(lines), "Silent", cert)
    if cert.is_full_symmetric():
        lines.extend(
            [
                f"consequence: S{n} is not solvable, so the root is not expressible by radicals",
                "consequence: a trace of the form lambda + 1/lambda with lambda radical is impossible",
                "consequence: the group is not commensurable with the modular group",
                "conclusion: non-arithmetic: certified",
            ]
        )
        return NonArithmeticityReport(tuple(lines), "NonArithmeticCertified", cert)
    lines.append(f"note: {cert.note}")
    lines.append("conclusion: non-arithmeticity NOT certified")
    return NonArithmeticityReport(tuple(lines), "NotCertified", cert)
