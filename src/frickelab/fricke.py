"""Fricke points of the once-punctured torus and the worked pattern point.

A point of the Teichmuller space T(1,1) is a triple (x, y, z) of trace
coordinates with x, y, z > 2 satisfying the Markov relation
x^2 + y^2 + z^2 - x y z = 0.  Coordinates here are exact rationals,
elements of one shared real number field, or plain rational intervals;
the first two kinds admit exact sign decisions, the last falls back to
certified interval arithmetic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .algebraic import AlgebraicReal, FieldElement, NumberField, make_algebraic
from .intervals import PrecisionError, RatInterval, _numerators
from .poly import (
    UniPoly,
    _sylvester_rows,
    irreducible_over_Q,
    isolate_real_roots,
)
from .tracering import TracePoly, _growth_bits, _multiplier_table, _trace_numerators, trace_polynomial
from .words import Word, parse_word

Coordinate = Union[Fraction, FieldElement, RatInterval]

MARKOV = (
    TracePoly.variable("X") ** 2
    + TracePoly.variable("Y") ** 2
    + TracePoly.variable("Z") ** 2
    - TracePoly.variable("X") * TracePoly.variable("Y") * TracePoly.variable("Z")
)

# The paper's equal-length pattern: two pairs (u, v) of P_g, whose closed
# geodesics have equal length at the solved point, so tr u = tr v there.
PATTERN_PAIRS = tuple((parse_word(u), parse_word(v)) for u, v in (("a", "b"), ("aa", "aab")))


class NonHyperbolicError(ValueError):
    """|Trace| is not certified > 2: elliptic/parabolic or not enough precision."""


class FrickePoint:
    """Immutable coordinate triple; membership in T(1,1) is checked, not assumed.

    Exact points (rational and field kinds) also hold what trace_of needs
    at every word: the modulus g of their field's power basis, the table
    of the integer numerator vectors of E, E x, E y, E z and E w for
    w = z - x y, E, the least common denominator of x, y, z and w, and the
    bits per letter that size the ring of tracering's exact pass.  They
    are computed once, here."""

    __slots__ = ("kind", "coords", "field", "_trace_data", "_isolation")

    def __init__(self, kind: str, coords: tuple, field: Optional[NumberField] = None):
        self.kind = kind  # "rational" | "field" | "interval"
        self.coords = coords
        self.field = field
        self._trace_data = None if kind == "interval" else _trace_data(coords, field)
        self._isolation = None  # set by solve_pattern_system

    @classmethod
    def from_rationals(cls, x, y, z) -> "FrickePoint":
        return cls("rational", (Fraction(x), Fraction(y), Fraction(z)))

    @classmethod
    def from_field_elements(cls, field: NumberField, x: FieldElement, y: FieldElement, z: FieldElement) -> "FrickePoint":
        return cls("field", (x, y, z), field)

    @classmethod
    def from_intervals(cls, x: RatInterval, y: RatInterval, z: RatInterval) -> "FrickePoint":
        return cls("interval", (x, y, z))

    @classmethod
    def from_coords(cls, x, y, z) -> "FrickePoint":
        """Promote mixed rational/algebraic coordinates to one representation.

        At most one distinct algebraic generator is supported; coordinates
        over unrelated fields would defeat exact membership decisions.
        """
        gens = [c for c in (x, y, z) if isinstance(c, AlgebraicReal)]
        if not gens:
            return cls.from_rationals(x, y, z)
        first = gens[0]
        for other in gens[1:]:
            if other is not first:
                raise ValueError(
                    "coordinates must share a single algebraic generator; "
                    "use from_intervals for unrelated approximate coordinates"
                )
        irr = irreducible_over_Q(first.poly)
        field = NumberField(first.poly, first, irr)
        out = tuple(
            field.gen() if c is first else field.from_rational(Fraction(c)) for c in (x, y, z)
        )
        return cls.from_field_elements(field, *out)

    def __repr__(self) -> str:
        return f"FrickePoint({self.kind}, {self.coords!r})"

    def coordinate_intervals(self, eps) -> tuple[RatInterval, RatInterval, RatInterval]:
        return tuple(_coord_interval(c, eps) for c in self.coords)  # type: ignore[return-value]

    def certification(self) -> str:
        return {
            "rational": "exact rational coordinates",
            "field": "exact elements of a shared real number field",
            "interval": "certified interval coordinates",
        }[self.kind]


def _trace_data(coords: tuple, field: Optional[NumberField]) -> tuple:
    """(g, multiplier table, E, growth bits) of an exact point for
    tracering._trace_numerators: a rational is the degree-1 case, g = t."""
    x, y, z = coords
    if field:
        parts = [(c._nums, c._den) for c in (field.from_rational(1), x, y, z, z - x * y)]
        g = field._monic
    else:
        parts = [((c.numerator,), c.denominator) for c in (1, x, y, z, z - x * y)]
        g = (0, 1)
    e = math.lcm(*(den for _, den in parts))
    table = _multiplier_table([[v * (e // den) for v in vs] for vs, den in parts])
    return g, table, e, _growth_bits(table, g)


def _coord_interval(c: Coordinate, eps) -> RatInterval:
    if isinstance(c, Fraction):
        return RatInterval.point(c)
    if isinstance(c, FieldElement):
        return c.interval(eps)
    return c


def _coord_cmp_rational(c: Coordinate, q) -> int:
    """The sign of c - q: exact, or certified for an interval, which raises
    PrecisionError when it straddles q."""
    d = c - Fraction(q)
    if isinstance(d, Fraction):
        return (d > 0) - (d < 0)
    return d.sign()


# -- evaluation at a point -----------------------------------------------------


class EvalResult(NamedTuple):
    """Value of a trace polynomial at a point, with its decidability kind."""

    kind: str  # matches the point kind
    value: Coordinate

    def is_certified_zero(self) -> bool:
        if self.kind == "rational":
            return self.value == 0
        if self.kind == "field":
            return self.value.is_zero()
        return self.value.is_point() and self.value.lo == 0

    def is_certified_nonzero(self) -> bool:
        if self.kind in ("rational", "field"):
            return not self.is_certified_zero()
        return not self.value.contains_zero()

    def interval(self, eps) -> RatInterval:
        return _coord_interval(self.value, eps)


def evaluate_at_point(tp: TracePoly, pt: FrickePoint) -> EvalResult:
    """tp at the point: exact at rational and field points; at interval
    points TracePoly.evaluate's enclosure of the coordinate box itself,
    computed by _evaluate_box."""
    if pt.kind == "rational":
        return EvalResult("rational", tp.evaluate(*pt.coords))
    if pt.kind == "field":
        zero = pt.field.from_rational(0)
        value = zero + tp.evaluate(*pt.coords)
        return EvalResult("field", value)
    return EvalResult("interval", _evaluate_box(tp, pt.coords))


def _evaluate_box(tp: TracePoly, box: tuple[RatInterval, RatInterval, RatInterval]) -> RatInterval:
    """The endpoints of tp.evaluate(*box) over RatIntervals, on integers.

    When every lower endpoint is >= 0 (every box inside Teichmuller
    space, where x, y, z > 2), each monomial m is nondecreasing in each
    coordinate, so its interval product is [m(lo), m(hi)]: the monomial at
    the box's two corners.  A coordinate with endpoint numerators lo, hi
    over d is tabled as lo^i d^(top - i) and hi^i d^(top - i), so every
    term sits over D = dx^mi * dy^mj * dz^mk, and the enclosure is the sum
    of c m(lo) over c > 0 and c m(hi) over c < 0, and its mirror: plain
    integer products with no min/max.  Interval products are exact ranges,
    hence associative, so these are TracePoly.evaluate's endpoints.  Boxes
    with a negative lower endpoint, which no caller builds, take
    TracePoly.evaluate itself; coerce, since a constant evaluates to an int.
    """
    if any(iv.lo < 0 for iv in box):
        return RatInterval.coerce(tp.evaluate(*box))
    tables, den = [], 1
    for iv, top in zip(box, tp.max_exponents()):
        lo, hi, d = _numerators(iv)
        tables.append(tuple([e ** i * d ** (top - i) for i in range(top + 1)] for e in (lo, hi)))
        den *= d ** top
    (xl, xh), (yl, yh), (zl, zh) = tables
    pos_lo = pos_hi = neg_lo = neg_hi = 0
    for (i, j, k), c in tp.terms.items():
        if c > 0:
            pos_lo += c * (xl[i] * yl[j] * zl[k])
            pos_hi += c * (xh[i] * yh[j] * zh[k])
        else:
            neg_lo += c * (xl[i] * yl[j] * zl[k])
            neg_hi += c * (xh[i] * yh[j] * zh[k])
    return RatInterval(Fraction(pos_lo + neg_hi, den), Fraction(pos_hi + neg_lo, den))


def markov_residual(pt: FrickePoint) -> EvalResult:
    """Certified evaluation of x^2 + y^2 + z^2 - xyz at the point."""
    return evaluate_at_point(MARKOV, pt)


class MembershipCertificate(NamedTuple):
    member: bool
    lines: tuple[str, ...]

    def to_text(self) -> str:
        verdict = "Member" if self.member else "NotMember"
        return "\n".join(self.lines + (f"verdict: {verdict}",))


def in_teichmuller(pt: FrickePoint, tol=Fraction(1, 2**96)) -> MembershipCertificate:
    """Certified membership: x, y, z > 2 strictly and Markov residual
    exactly zero (exact coordinates) or within tol (interval coordinates).

    Raises PrecisionError when a check is undecidable at the available
    precision, never returning a wrong answer.
    """
    tol = Fraction(tol)
    lines = [f"certification: {pt.certification()}"]
    ok = True
    for name, coord in zip("xyz", pt.coords):
        cmp = _coord_cmp_rational(coord, 2)
        good = cmp > 0
        ok = ok and good
        lines.append(f"{name} > 2: {'certified' if good else 'FAILED'}")
    res = markov_residual(pt)
    if pt.kind in ("rational", "field"):
        zero = res.is_certified_zero()
        ok = ok and zero
        lines.append(f"markov residual: {'exactly zero' if zero else 'certified nonzero'}")
    else:
        iv = res.value
        if -tol <= iv.lo and iv.hi <= tol:
            lines.append(f"markov residual: within tolerance {tol} (width {iv.width()})")
        elif iv.lo > tol or iv.hi < -tol:
            ok = False
            lines.append("markov residual: certified outside tolerance")
        else:
            raise PrecisionError(
                f"markov residual interval [{iv.lo}, {iv.hi}] straddles the tolerance band"
            )
    return MembershipCertificate(ok, tuple(lines))


# -- elimination of the equal-length pattern constraints -------------------------


def eliminate_by_substitution() -> UniPoly:
    """Quintic from the constraints y = x and x^2 - 2 = zx - y.

    Solving the second constraint gives z = (x^2 + x - 2)/x; substituting
    into the Markov relation and clearing x^2 yields an integer quintic.
    """
    num = UniPoly([-2, 1, 1])  # x^2 + x - 2
    x = UniPoly([0, 1])
    # x^2 * (x^2 + y^2 + z^2 - xyz) with y = x, z = num/x:
    #   2 x^4 + num^2 - x^3 * num
    residual = UniPoly([2]) * x ** 4 + num * num - x ** 3 * num
    out = residual.primitive_part()
    return out


def eliminate_by_resultants() -> UniPoly:
    """Same quintic via iterated resultants in the trace ring.

    The constraints c1 = X - Y and c2 = X^2 - 2 - (XZ - Y) are the
    differences tr u - tr v of trace_polynomial over PATTERN_PAIRS, so
    this route also checks the trace ring.  Eliminates Y between the
    Markov polynomial and c1 and between c2 and c1, then Z between the
    two results; the primitive part agrees with the substitution path up
    to sign.
    """
    c1, c2 = (trace_polynomial(u) - trace_polynomial(v) for u, v in PATTERN_PAIRS)
    m1 = _tp_resultant(MARKOV, c1, var=1)  # eliminate Y
    m2 = _tp_resultant(c2, c1, var=1)
    final = _tp_resultant(m1, m2, var=2)  # eliminate Z
    return _tp_to_unipoly(final, var=0).primitive_part()


def eliminate_pattern_system() -> UniPoly:
    """The pattern quintic, cross-checked along both elimination routes."""
    sub = eliminate_by_substitution()
    res = eliminate_by_resultants()
    if sub != res and sub != -res:
        raise AssertionError("elimination routes disagree")
    return sub if sub.lc() > 0 else -sub


def _tp_as_poly_in(tp: TracePoly, var: int) -> list[TracePoly]:
    """Coefficients of tp as a polynomial in one trace variable, ascending."""
    top = max((m[var] for m in tp.terms), default=0)
    out = [dict() for _ in range(top + 1)]
    for m, c in tp.terms.items():
        rest = list(m)
        e = rest[var]
        rest[var] = 0
        out[e][tuple(rest)] = out[e].get(tuple(rest), 0) + c
    return [TracePoly(d) for d in out]


def _tp_resultant(p: TracePoly, q: TracePoly, var: int) -> TracePoly:
    """Resultant of two trace polynomials with respect to one variable.

    Sylvester determinant over the trace ring, expanded by minors; the
    matrices here are tiny (degree at most 2 in the eliminated variable).
    """
    pc = list(reversed(_tp_as_poly_in(p, var)))
    qc = list(reversed(_tp_as_poly_in(q, var)))
    if len(pc) < 2 or len(qc) < 2:
        raise ValueError("resultant needs both polynomials to contain the variable")
    return _tp_det(_sylvester_rows(pc, qc, TracePoly()))


def _tp_det(mat: list[list[TracePoly]]) -> TracePoly:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = TracePoly()
    for j in range(n):
        entry = mat[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = entry * _tp_det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _tp_to_unipoly(tp: TracePoly, var: int) -> UniPoly:
    coeffs: dict[int, int] = {}
    for m, c in tp.terms.items():
        others = [m[i] for i in range(3) if i != var]
        if any(others):
            raise ValueError("trace polynomial still involves an eliminated variable")
        coeffs[m[var]] = coeffs.get(m[var], 0) + c
    top = max(coeffs, default=-1)
    return UniPoly([coeffs.get(i, 0) for i in range(top + 1)])


# -- the solved pattern point ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def solve_pattern_system(precision_bits: int = 128) -> FrickePoint:
    """The unique Fricke point with tr(a) = tr(b) and tr(a^2) = tr(a^2 b).

    Certifies along the way: the eliminated quintic has exactly one real
    root and is irreducible, and the point x = y = that root,
    z = (x^2 + x - 2)/x, is a member by in_teichmuller (x, y, z > 2 and
    Markov residual exactly zero).  Any certification failure aborts
    loudly; it would contradict the construction.

    The point carries its certificates: pt.field.defining is the quintic,
    pt.field.irreducibility its witness, and pt._isolation the pair
    (root, count) of its one isolation: the make_algebraic root before
    refinement to 2^-precision_bits (width < 1/4) and the number of real
    roots isolate_real_roots found.  Only this function sets _isolation.
    """
    quintic = eliminate_pattern_system()
    intervals = isolate_real_roots(quintic)
    if len(intervals) != 1:
        raise AssertionError("pattern quintic must have exactly one real root")
    isolated = make_algebraic(quintic, intervals[0])
    irr = irreducible_over_Q(quintic, 200)
    if not irr.is_irreducible():
        raise AssertionError("pattern quintic must be irreducible")
    field = NumberField(quintic, isolated.refined(Fraction(1, 2 ** precision_bits)), irr)
    x = field.gen()
    pt = FrickePoint.from_field_elements(field, x, x, (x * x + x - 2) / x)
    if not in_teichmuller(pt).member:
        raise AssertionError("solved point must lie in Teichmuller space")
    pt._isolation = (isolated, len(intervals))
    return pt


# -- traces and lengths ------------------------------------------------------------


def trace_of(pt: FrickePoint, w: Word) -> EvalResult:
    """tr(w) at the point.

    At rational and field points: tracering's letter rules, run once on
    integer numerators (tracering._trace_numerators) from the point's own
    _trace_data.  E is the least common denominator of x, y, z and
    w = z - x y; after L letters the coefficients sit over E^L and the
    trace over E^(L+1).  Field elements are stored as numerators on the
    power basis of a root of the field's monic integer polynomial g (see
    NumberField), and a rational is the degree-1 case g = t, so both kinds
    take the same pass, with each new coefficient reduced once and no gcd.
    A short word runs in the integers modulo g(2^s), one int per
    coefficient, with s bits per numerator from a bound on their growth
    that the point's _trace_data holds; a word whose n s bits exceed
    tracering._RING_BITS keeps n numerators per coefficient, reduced
    modulo g.  Both give the same numerators.  The value is put in lowest
    terms once, at the end: a reduction and a gcd per product and per sum
    were most of the cost of trace_in over FieldElements.

    At interval points the expanded polynomial is evaluated over the
    coordinate box on integer numerators over one common denominator (see
    _evaluate_box), which gives tighter enclosures than interval
    arithmetic along the word and the same endpoints as
    TracePoly.evaluate on RatIntervals.  The box is the point's own, so
    its enclosure has a fixed width."""
    if pt.kind == "interval":
        return evaluate_at_point(trace_polynomial(w), pt)
    g, table, e, growth = pt._trace_data
    nums = _trace_numerators(w.letters, table, g, growth)
    den = e ** (len(w.letters) + 1)
    return EvalResult(pt.kind, pt.field._element(nums, den) if pt.field else Fraction(nums[0], den))


def length_of(pt: FrickePoint, w: Word, precision=Fraction(1, 2**96)) -> RatInterval:
    """Certified enclosure of the geodesic length 2 arccosh(|tr|/2), of
    width < precision.

    Requires |tr| certified > 2 (hyperbolic element); raises
    NonHyperbolicError otherwise or when precision runs out, and
    ValueError when precision <= 0.

    The enclosure of |tr| is clipped at 2 and sent through _arccosh_bounds
    at 2^-p, p = _bits_needed(precision) + 32, on integers alone.  While
    the result is too wide, the trace is enclosed 256 times tighter and p
    grows by 64, up to 12 tries.  At interval points the box's enclosure
    is the same at every eps, so they get one try.
    """
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    tr = trace_of(pt, w)
    eps = precision / 16
    iv_in = tr.interval(eps)
    try:
        sign = _hyperbolic_sign(tr, iv_in)
    except PrecisionError as exc:
        raise NonHyperbolicError(f"trace of {w} undecidable against ±2: {exc}") from exc
    if not sign:
        raise NonHyperbolicError(
            f"trace of {w} is not certified outside [-2, 2]: parabolic or elliptic element"
        )
    p = _bits_needed(precision) + 32
    for _ in range(12):
        lo, hi = (iv_in.lo, iv_in.hi) if sign > 0 else (-iv_in.hi, -iv_in.lo)
        # |tr| > 2 is certified, so the enclosure may be clipped at 2
        out = _arccosh_bounds(max(lo, Fraction(2)), hi, p)
        if out.width() < precision:
            return out
        if tr.kind == "interval":
            # the box's enclosure is the same at every eps: no retry can narrow it
            break
        eps /= 256
        p += 64
        iv_in = tr.interval(eps)
    raise NonHyperbolicError(f"length enclosure for {w} did not reach width {precision}")


def _arccosh_bounds(lo: Fraction, hi: Fraction, p: int) -> RatInterval:
    """Enclosure of 2 arccosh(u/2) = 2 ln v, v = (u + sqrt(u^2 - 4))/2, over
    u in [lo, hi], 2 <= lo <= hi, with endpoints on the grid 2^-p.

    Both maps increase for u >= 2, so every rounding below goes down for
    the lower endpoint and up for the upper one:
    - u is floored at lo and ceiled at hi on the grid, and v is taken on
      the grid from math.isqrt at the same two ends;
    - ln v_lo = k ln 2 + ln m = k ln 2 + 2 atanh(a/b), with m = v_lo/2^s in
      [sqrt(2)/2, sqrt(2)], k = s - p, a = v_lo - 2^s and b = v_lo + 2^s
      exact integers, so |a/b| <= 0.18;
    - _atanh_floor's sums, k ln 2 from _ln2 at 2^-(p+16), are lower
      bounds with a counted ulp budget, which the upper ends add;
    - ln is concave, so ln v_hi <= ln v_lo + (v_hi - v_lo)/v_lo.
    """
    u_lo = (lo.numerator << p) // lo.denominator
    u_hi = -((-hi.numerator << p) // hi.denominator)
    four = 4 << 2 * p
    v_lo = (u_lo + math.isqrt(u_lo * u_lo - four)) >> 1
    d = u_hi * u_hi - four
    r = math.isqrt(d)
    v_hi = (u_hi + r + (r * r < d) + 1) >> 1
    s = v_lo.bit_length() - 1
    if v_lo * v_lo > 2 << 2 * s:
        s += 1
    a, b = v_lo - (1 << s), v_lo + (1 << s)
    t, t_ulps = _atanh_floor(abs(a), b, p)
    atanh_lo, atanh_hi = (t, t + t_ulps) if a >= 0 else (-t - t_ulps, -t)
    ln2, ln2_ulps = _ln2(p + 16)
    k = s - p
    ln_lo = (k * ln2 >> 16) + 2 * atanh_lo
    ln_hi = -(-k * (ln2 + ln2_ulps) >> 16) + 2 * atanh_hi
    slope = -(-(v_hi - v_lo << p) // v_lo)
    return RatInterval(Fraction(2 * ln_lo, 1 << p), Fraction(2 * (ln_hi + slope), 1 << p))


def _atanh_floor(a: int, b: int, p: int) -> tuple[int, int]:
    """(S, n) with S <= 2^p atanh(a/b) < S + n, for 0 <= a/b <= 1/3.

    S sums floor(x_i / (2i + 1)) over x_0 = floor(2^p a/b) and
    x_(i+1) = floor(x_i t2 / 2^p), t2 = floor(x_0^2 / 2^p), until x_i = 0.
    Every floor rounds down, so S is a lower bound.  Each x_i is within
    1.75 of 2^p t^(2i+1), so each term loses < 2 ulps, and the tail after
    the last term is < 2 ulps: n = 2 (terms + 2).
    """
    x = (a << p) // b
    t2 = x * x >> p
    total, i = 0, 1
    while x:
        total += x // i
        x = x * t2 >> p
        i += 2
    return total, i + 3


@functools.lru_cache(maxsize=None)
def _ln2(p: int) -> tuple[int, int]:
    """(L, n) with L <= 2^p ln 2 < L + n, from ln 2 = 2 atanh(1/3)."""
    t, t_ulps = _atanh_floor(1, 3, p)
    return 2 * t, 2 * t_ulps


def _bits_needed(eps: Fraction) -> int:
    """Bits b with 2^-b below eps."""
    ratio = eps.denominator // max(eps.numerator, 1)
    return max(64, ratio.bit_length() + 8)


def _hyperbolic_sign(tr: EvalResult, iv: RatInterval) -> int:
    """1 if tr > 2, -1 if tr < -2, 0 if |tr| <= 2; PrecisionError when an
    interval value straddles 2 or -2.  The enclosure iv of tr decides when
    it clears ±2, and the exact comparisons run only when it does not."""
    if iv.lo > 2:
        return 1
    if iv.hi < -2:
        return -1
    if _coord_cmp_rational(tr.value, 2) > 0:
        return 1
    if _coord_cmp_rational(tr.value, -2) < 0:
        return -1
    return 0


# -- sampling Markov-surface points -------------------------------------------------


def sample_markov_point(x: Fraction, y: Fraction) -> Optional[FrickePoint]:
    """Point on the Markov surface with the given x, y > 2 and the larger
    z root, or None when no real z > 2 exists for this (x, y)."""
    x, y = Fraction(x), Fraction(y)
    if x <= 2 or y <= 2:
        return None
    # z^2 - xyz + (x^2 + y^2) = 0
    d = (x * y) ** 2 - 4 * (x * x + y * y)
    if d <= 0:
        return None
    sq = _fraction_sqrt(d)
    if sq is not None:
        # discriminant is a perfect square: z is rational
        return FrickePoint.from_rationals(x, y, (x * y + sq) / 2)
    den = (x.denominator * y.denominator) ** 2
    zpoly = UniPoly(
        [
            ((x * x + y * y) * den).numerator,
            (-(x * y) * den).numerator,
            den,
        ]
    )
    # d > 0, so z has two real roots; the larger, (xy + sqrt d)/2, exceeds xy/2 > 2
    z = make_algebraic(zpoly, isolate_real_roots(zpoly)[-1])
    return FrickePoint.from_coords(x, y, z)


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
