"""Interval arithmetic with exact rational endpoints.

Endpoints are Fractions, so +, -, * and / are exactly rounded (no rounding
at all); every operation returns an interval rigorously containing the
true value.

Polynomials are evaluated on intervals (trace polynomials at interval
points, Horner at a number field's generator) on integer numerators over
one positive common denominator, with one Fraction pair at the end.
Positive scaling keeps the order of the endpoint products, so every
min/max picks the same product and the endpoints are identical.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .poly import _power

Rat = Union[int, Fraction]


class PrecisionError(ArithmeticError):
    """A comparison or tolerance check is undecidable at current precision."""


class RatInterval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, q: Rat) -> "RatInterval":
        q = Fraction(q)
        return cls(q, q)

    @classmethod
    def coerce(cls, value) -> "RatInterval":
        if isinstance(value, RatInterval):
            return value
        return cls.point(value)

    def __repr__(self) -> str:
        return f"RatInterval({self.lo}, {self.hi})"

    def __eq__(self, other) -> bool:
        return isinstance(other, RatInterval) and self.lo == other.lo and self.hi == other.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def rad(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def contains(self, q: Rat) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def is_point(self) -> bool:
        return self.lo == self.hi

    def sign(self) -> int:
        """-1, 0 or +1 when certain; raises PrecisionError when ambiguous."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == 0 == self.hi:
            return 0
        raise PrecisionError(f"sign of [{self.lo}, {self.hi}] straddling zero is undecidable")

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "RatInterval":
        other = RatInterval.coerce(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "RatInterval":
        return self + (-RatInterval.coerce(other))

    def __rsub__(self, other) -> "RatInterval":
        return RatInterval.coerce(other) + (-self)

    def __mul__(self, other) -> "RatInterval":
        other = RatInterval.coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatInterval":
        if not isinstance(n, int) or n < 0:
            raise ValueError("interval powers take nonnegative integer exponents")
        return _power(self, n, RatInterval.point(1))

    def reciprocal(self) -> "RatInterval":
        if self.contains_zero():
            raise ZeroDivisionError(f"reciprocal of [{self.lo}, {self.hi}] containing zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "RatInterval":
        return self * RatInterval.coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "RatInterval":
        return RatInterval.coerce(other) * self.reciprocal()


def _numerators(iv: RatInterval) -> tuple[int, int, int]:
    """Endpoints of iv as integer numerators over one positive denominator."""
    den = math.lcm(iv.lo.denominator, iv.hi.denominator)
    return iv.lo.numerator * (den // iv.lo.denominator), iv.hi.numerator * (den // iv.hi.denominator), den


def _mul(alo: int, ahi: int, blo: int, bhi: int) -> tuple[int, int]:
    """Interval product on integer endpoints: min and max of the four products."""
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(products), max(products)


def decimal_str(q: Rat, digits: int = 10) -> str:
    """Plain decimal rendering of a rational, truncated toward zero."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole = q.numerator // q.denominator
    rem = q - whole
    frac = (rem * 10**digits).numerator // (rem * 10**digits).denominator
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def format_interval(iv: RatInterval, digits: int = 10) -> str:
    """`midpoint ± radius` rendering."""
    return f"{decimal_str(iv.mid(), digits)} ± {decimal_str(iv.rad(), digits)}"
