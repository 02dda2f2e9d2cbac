"""Symbolic SL(2) trace calculus on the rank-2 free group.

For any word w in F(a, b) there is a unique integer polynomial P in
X = tr(a), Y = tr(b), Z = tr(ab) with P(tr A, tr B, tr AB) = tr(w) for
every SL(2) representation a -> A, b -> B.  Over the trace ring every
word is a combination c0 + c1 A + c2 B + c3 AB, by the identities

    A^2 = X A - 1,   B^2 = Y B - 1,   AB + BA = X B + Y A + (Z - X Y),

(Cayley-Hamilton and its polarization), with A^-1 = X - A and
B^-1 = Y - B for the inverse letters.  trace_in multiplies the word out
in this basis in one left-to-right pass and returns
tr(w) = 2 c0 + X c1 + Y c2 + Z c3.

trace_polynomial runs the same updates over a packed image of
Z[X, Y, Z] and decodes the image of tr(w) once.  The updates are one
table of formulas, one per letter and new coefficient, each a signed sum
of old coefficients times 1, X, Y, Z or W = Z - XY.  For the integer
passes each formula is compiled once, at import, into a Python expression
(_rule_source writes its text from the parsed terms), so a pass does the
arithmetic directly instead of reading the table term by term.  Each
layout is the image of a ring homomorphism, so the pass computes the
image of tr(w), a value that cancels to zero is zero in the image too,
and only tr(w) itself has to decode.  n_a and n_b count the letters a, A
and b, B.

The Kronecker layout (von zur Gathen & Gerhard, Modern Computer Algebra,
section 8.4) maps X -> 2^h, Y -> 2^(hU) and Z -> 2^(h + hU + 2hUV), with
h = s/2, U = n_a // 2 + 1 and V = n_b // 2 + 1.  A coefficient is one
int, a multiplier is one shift and W is two, and each new coefficient is
one compiled expression of them: `W*c2 - c1 - Y*c3` is
`(c2 << z) - (c2 << xy) - c1 - (c3 << y)`, four calls per letter.
X^i Y^j Z^k maps to 2^(h(i + k) + hU(j + k) + 2hUV k), and three facts
about the monomials of tr(w) place it:
- i + k <= n_a.  Give 1, A, B, AB the a-weights 0, 1, 0, 1, and X, Z
  a-degree 1 (Y and W a-degree 0 and 1).  After some letters, c_m has
  a-degree at most (a-letters so far) - (a-weight of m): every term of
  every formula keeps this bound, which rises by 1 for a and A and stays
  for b and B, so the rules raise the a-degree by at most 1 per a-letter;
  and each term of 2 c0 + X c1 + Y c2 + Z c3 is within n_a.
- i + k = n_a (mod 2).  A -> -A sends a representation to another, with
  traces -X, Y, -Z, and tr w to (-1)^n_a tr w.  The polynomial giving
  tr(w) is unique, so P(-X, Y, -Z) = (-1)^n_a P(X, Y, Z), and each of
  its monomials has (-1)^(i+k) = (-1)^n_a.
- j + k <= n_b and j + k = n_b (mod 2), the same way with the b-weights
  0, 0, 1, 1, Y and Z of b-degree 1, and B -> -B.
So i + k = pa + 2u' and j + k = pb + 2v', with pa, pb = n_a, n_b mod 2,
0 <= u' < U, 0 <= v' < V and k <= min(n_a, n_b), and the exponent is
h(pa + U pb) + s(u' + U v' + UV k).  Shifted right by h(pa + U pb), the
image holds each coefficient as the balanced s-bit digit at its own slot
u' + U v' + UV k of a box of U V (min(n_a, n_b) + 1) s bits.

The Z-packed dicts hold an element as a dict from one int key
i + j * 2^32, for the monomial X^i Y^j, to one int: that monomial's
polynomial in Z evaluated at 2^s.  Multiplying by X or Y adds a fixed
offset to the keys, by Z shifts the values by s bits, and by W is one
such shift plus one keyed subtraction.  A coefficient is a (dict, sign)
pair, and each new one is built in one dict: a copy of its first source,
moved, with the others added in place.  A new coefficient that is an old
one unmoved, such as c3 = -c2 for a, is that dict relabelled with a sign
flip, not copied.

The Kronecker box is sized by the word's letter counts, not by its
terms: (ab)^500 would need about 52 Gbit (6.6 GB) for a trace of 251
terms, which the dicts hold under one key.  So the Kronecker layout runs
when its box is at most _KRONECKER_BITS = 2^16 bits, which every word of
up to 31 letters meets, and the dicts run otherwise.

Both layouts decode by one reader (_raised_digits), exact when 2^(s-1)
exceeds every coefficient of tr(w); s comes from ||tr w||_1 <= 2 * 5^n_a * 2^n_b.
Proof: let N be the sum of the l1 norms of c0, c1, c2, c3, and note
||X|| = ||Y|| = ||Z|| = 1 and ||Z - XY|| = 2.  In the update for a, the
old c0, c1, c2, c3 enter the new ones with total weights 1, 2, 5, 3, so
N grows at most 5-fold; for A the weights are 2, 1, 4, 4, for b 1, 1, 2,
2 and for B 2, 2, 1, 1.  N starts at 1, and 2 c0 + X c1 + Y c2 + Z c3 at
most doubles it.

variety.symbolic_residual asks only whether a residual
R = sum c prod tr(w_i)^e_i (integer c) is zero, and answers with no
decode (variety._packed_residual): the same letter pass (_packed_trace)
gives each tr(w_i) under the plain box X -> 2^s, Y -> 2^(s(DX+1)),
Z -> 2^(s(DX+1)(DY+1)), and R's image is the sum of products of those
ints.  The parity compression of the layout above does not survive
products and sums: it rests on every monomial of one trace having i + k
of one parity, but R sums terms of either parity (X1 - X2 on a and aa is
X - X^2 + 2), whose monomials would share the half-slots of X -> 2^h.
The plain box needs no parity.  Proof that R = 0 iff its image is 0:
- Slots.  A monomial of tr(w) has i <= n_a, j <= n_b and k <= min(n_a,
  n_b) (the facts above), so R's degrees in X, Y, Z are at most DX, DY,
  DZ, the maxima over F's monomials of sum e_i n_a(w_i), sum e_i n_b(w_i)
  and sum e_i min(n_a(w_i), n_b(w_i)).  X^i Y^j Z^k maps to 2^(s t) with
  t = i + (DX + 1)(j + (DY + 1) k), and i <= DX, j <= DY make t distinct
  for distinct monomials of R: one slot each, in a box of
  s (DX+1)(DY+1)(DZ+1) bits.
- Digits.  ||R||_1 <= sum |c| prod ||tr w_i||_1^e_i <= sum |c| prod
  L_i^e_i, for L_i = 2 * 5^n_a(w_i) * 2^n_b(w_i).  A term is below
  2^(b(c) + sum e_i b(L_i)), b the bit length, since x < 2^b(x) and
  L^e < 2^(e b(L)); M terms sum to below M times the largest, so below
  2^s when s is the largest such exponent plus b(M).  Each coefficient
  of R is then a digit d with |d| < 2^s, that is |d| <= 2^s - 1.
- Zero.  If some digit is nonzero, let d be the one at the top slot t;
  the slots below it sum to at most (2^s - 1)(2^(st) - 1)/(2^s - 1)
  = 2^(st) - 1 < 2^(st) <= |d| 2^(st) in absolute value, so the image is
  not 0.  (The zero test reads no digit, so none needs to be balanced.)
Substitution is a ring homomorphism, so the image of R is F's cleared
numerator evaluated on the images of the traces, and the pass computes
those exactly, whatever its intermediate ints.  A box over _KRONECKER_BITS
is not built: R is then expanded from trace_polynomial, as it is for
every nonzero R, whose terms the caller needs.

fricke.trace_of at rational and number-field points runs the same table
once more, on integers (_trace_numerators).  With E the least common
denominator of x, y, z and w = z - x y, the multipliers 1, X, Y, Z, W are
the integer vectors of E, E x, E y, E z, E w on the power basis
1, t, ..., t^(n-1) of the coordinates' field, t a root of its monic
integer polynomial g of degree n (g = t and n = 1 at a rational point),
so after k letters each coefficient is n integer numerators over the
implied E^k, and tr(w) is n numerators d_0..d_(n-1) over E^(L+1) after
L letters.  Short words run in one ring, long ones on vectors:
- Ring (_ring_numerators).  t -> 2^s sends g to N = g(2^s), so it is a
  ring homomorphism Z[t]/(g) -> Z/N.  Each coefficient is one int, each
  multiplier with vector v the int sum v_k 2^(ks), and each new
  coefficient its rule's signed sum of products, reduced mod N once: one
  compiled step per letter (_RING_STEPS) computes all four, as in
  `(iW * c2 - i1 * c1 - iY * c3) % N`.  The pass thus computes the image
  of sum d_k t^k, whatever its intermediate ints, and reads the d_k back
  from its balanced residue as balanced s-bit digits.
- Bound.  Let M_m be the integer matrix of multiplication by E m on the
  power basis (column j is E m t^j reduced mod g, by poly._rem_monic) and
  mu_m its largest absolute row sum, so |M_m v|_inf <= mu_m |v|_inf.  A
  new coefficient is the sum of +-M_m c_i over its rule's terms, so its
  numerators are at most the rule's sum of mu_m times the largest old
  one.  With G_a, G_b the largest such sums over the rules of a, A and
  of b, B, and G_T the trace rule's, every |d_k| <= B = G_T G_a^n_a G_b^n_b.
- Decode.  T = sum d_k 2^(ks) has |T| <= B (2^(ns) - 1)/(2^s - 1)
  < 2B 2^((n-1)s), and N >= 2^(ns) - |g|_inf (2^(ns) - 1)/(2^s - 1)
  >= 2^((n-1)s) (2^s - 2|g|_inf).  So when 4B + 2|g|_inf <= 2^s, N > 0,
  |T| < N/2 and T is the balanced residue, in (-N/2, N/2], of the pass's
  result; and |d_k| <= B < 2^(s-1) makes the d_k its balanced s-bit
  digits.  _growth_bits gives s = s0 + n_a s_a + n_b s_b, with
  s_a = b(G_a), s_b = b(G_b) and s0 = b(max(G_T, |g|_inf)) + 3, b the
  bit length, once per point: B < 2^(s-3) and 2|g|_inf < 2^(s-2), so the
  decode is exact, and no power of G is built.
- Size rule.  The ring's products are n s bits by n s bits, so its cost
  grows like L^3 with the word, while the vector pass multiplies by the
  table's small entries and grows like L^2.  The ring runs when
  n s <= _RING_BITS = 2^10, the vector pass otherwise.  At the paper point
  (n = 5; s0, s_a, s_b = 9, 6, 4) that is every word of up to 32 letters
  and no word of more than 48.  There, on seeded words (CPython 3.11, a
  shared 2-vCPU x86-64 host), the ring took 0.19 of the vector pass's
  time at 10 letters, 0.25 at 26, 0.37 at 40 (n s ~ 1050), about 0.65 at
  60 (~ 1550), about 0.95 at 80 (~ 2050) and 5.5 at 200: the rule keeps
  the ring where it is more than twice as fast.
- Vector (_vector_numerators).  Each new coefficient is one unreduced sum
  of products in 2n - 1 slots, reduced to n slots once modulo g
  (poly._rem_monic, the reduction NumberField uses); nothing is packed,
  so the slot count stays n however long the word.
Both reduce once per coefficient instead of once per product or sum, and
the value is put in lowest terms once per word: that is what the pass
saves over trace_in on FieldElements or Fractions.

The signed-term text `2*X^2*Z - Y + 3` of trace and variety polynomials
lives here too: _format_signed_terms prints it, _parse_signed_terms reads
it for parse_tracepoly and variety.parse_variety_poly.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

from .poly import _power, _rem_monic
from .words import Word

Monomial = tuple[int, int, int]  # exponents of X, Y, Z


def _accumulate(out: dict, items, sign: int) -> dict:
    """out += sign * the (key, value) items, in place, dropping the keys
    that cancel."""
    get = out.get
    for k, v in items:
        v = get(k, 0) + v if sign > 0 else get(k, 0) - v
        if v:
            out[k] = v
        else:
            del out[k]
    return out


class TracePoly:
    """Sparse integer polynomial in the trace coordinates X, Y, Z."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        d = dict(terms)
        self.terms: dict[Monomial, int] = {m: c for m, c in d.items() if c != 0}

    @classmethod
    def _trusted(cls, terms: dict[Monomial, int]) -> "TracePoly":
        """Wrap terms as they are: a fresh dict with no zero value."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "TracePoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "TracePoly":
        idx = {"X": 0, "Y": 1, "Z": 2}[name]
        mono = [0, 0, 0]
        mono[idx] = 1
        return cls({tuple(mono): 1})

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, TracePoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        return f"TracePoly({format_tracepoly(self)!r})"

    def __str__(self) -> str:
        return format_tracepoly(self)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "TracePoly") -> "TracePoly":
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        return TracePoly._trusted(_accumulate(dict(a), b.items(), 1))

    def __sub__(self, other: "TracePoly") -> "TracePoly":
        a, b = self.terms, other.terms
        if len(a) < len(b):
            return TracePoly._trusted(_accumulate({k: -v for k, v in b.items()}, a.items(), 1))
        return TracePoly._trusted(_accumulate(dict(a), b.items(), -1))

    def __neg__(self) -> "TracePoly":
        return TracePoly._trusted({k: -v for k, v in self.terms.items()})

    def __mul__(self, other: "TracePoly") -> "TracePoly":
        if len(self.terms) == 1:
            self, other = other, self
        if len(other.terms) == 1:
            # a monomial factor only shifts exponents
            ((i2, j2, k2), c2), = other.terms.items()
            return TracePoly._trusted({(i1 + i2, j1 + j2, k1 + k2): c1 * c2 for (i1, j1, k1), c1 in self.terms.items()})
        out: dict[Monomial, int] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                out[m] = out.get(m, 0) + c1 * c2
        return TracePoly._trusted({m: c for m, c in out.items() if c})

    def __pow__(self, n: int) -> "TracePoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, TracePoly.constant(1))

    def content(self) -> int:
        return math.gcd(*self.terms.values())

    def max_exponents(self) -> Monomial:
        if not self.terms:
            return (0, 0, 0)
        return tuple(max(m[i] for m in self.terms) for i in range(3))  # type: ignore[return-value]

    def evaluate(self, x, y, z):
        """Evaluate over any commutative ring (rationals, intervals, field elements)."""
        mi, mj, mk = self.max_exponents()
        xp = _powers(x, mi)
        yp = _powers(y, mj)
        zp = _powers(z, mk)
        total = 0
        for (i, j, k), c in sorted(self.terms.items()):
            term = c
            if i:
                term = term * xp[i]
            if j:
                term = term * yp[j]
            if k:
                term = term * zp[k]
            total = total + term
        return total


def _powers(v, n: int) -> list:
    out = [None, v]
    for _ in range(2, n + 1):
        out.append(out[-1] * v)
    return out


def tp_evaluate(p: TracePoly, x, y, z):
    return p.evaluate(x, y, z)


# -- text format ------------------------------------------------------------


def _format_signed_terms(terms: dict, names) -> str:
    """Terms largest first (graded lexicographic, earlier variables larger),
    each as |coefficient|*factors, joined by their signs: `-X*Y + Z - 2`."""
    if not terms:
        return "0"
    parts = []
    for m, c in sorted(terms.items(), key=lambda item: (-sum(item[0]), tuple(-e for e in item[0]))):
        factors = [(name if e == 1 else f"{name}^{e}") for name, e in zip(names, m) if e > 0]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    """(sign, term) pairs of `t1 + t2 - t3`: an optional leading sign, then
    exactly one sign between consecutive terms."""
    pieces = re.split(r"([+-])", text)
    if pieces[0].strip():
        pieces.insert(0, "+")
    else:
        del pieces[0]
    terms = []
    for sign, term in zip(pieces[::2], pieces[1::2]):
        if not term.strip():
            raise ValueError(f"sign without a term in {text!r}")
        terms.append((-1 if sign == "-" else 1, term.strip()))
    return terms


def _parse_signed_terms(text: str, variable, number) -> list[tuple[dict[str, int], object]]:
    """(exponents by variable name, coefficient) per term of `2*X^2*Z - Y + 3`.
    variable(factor) matches a variable factor (name in group 1, exponent
    for int() in group 2, 1 if absent) or returns None; other factors are
    coefficients, read by number."""
    terms = []
    for sign, term in _split_signed_terms(text):
        exps, coeff = {}, number(sign)
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {term!r}")
            m = variable(factor)
            if m:
                name, exp = m.groups("1")
                exps[name] = exps.get(name, 0) + int(exp)
            else:
                try:
                    coeff *= number(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r}") from None
        terms.append((exps, coeff))
    return terms


def format_tracepoly(p: TracePoly) -> str:
    return _format_signed_terms(p.terms, "XYZ")


# the exponent is whatever int() reads, spaces and underscores included
_TRACE_VARIABLE = re.compile(r"([XYZ])(?:\^(.*))?", re.S)


def parse_tracepoly(text: str) -> TracePoly:
    """Parse the printed form: terms like `2*X^2*Z - Y + 3`."""
    text = text.strip()
    if not text:
        raise ValueError("empty trace polynomial text")
    terms: dict[Monomial, int] = {}
    for exps, coeff in _parse_signed_terms(text, _TRACE_VARIABLE.fullmatch, int):
        mono = tuple(exps.get(name, 0) for name in "XYZ")
        terms[mono] = terms.get(mono, 0) + coeff
    return TracePoly(terms)


# -- the trace pass ------------------------------------------------------------


def trace_in(letters, x, y, z, one, zero):
    """Trace of the word spelled by letters, over any commutative ring.

    x, y, z are tr A, tr B, tr AB in the ring; one and zero are its unit
    and zero.  The running product is kept as c0 + c1 A + c2 B + c3 AB and
    multiplied on the right one letter at a time.  This is the reference
    definition: trace_polynomial and fricke.trace_of run the same updates
    from _LETTER_RULES, and the tests compare them against it.
    """
    w = z - x * y
    c0, c1, c2, c3 = one, zero, zero, zero
    for gen, exp in letters:
        if gen == "a":
            if exp > 0:
                c0, c1, c2, c3 = (
                    w * c2 - c1 - y * c3,
                    c0 + x * c1 + y * c2 + z * c3,
                    x * c2 + c3,
                    -c2,
                )
            else:
                c0, c1, c2, c3 = (
                    x * c0 + c1 - w * c2 + y * c3,
                    -(c0 + y * c2 + z * c3),
                    -c3,
                    c2 + x * c3,
                )
        elif exp > 0:
            c0, c1, c2, c3 = -c2, -c3, c0 + y * c2, c1 + y * c3
        else:
            c0, c1, c2, c3 = y * c0 + c2, y * c1 + c3, -c0, -c1
    return c0 + c0 + x * c1 + y * c2 + z * c3


def trace_polynomial(w: Word) -> TracePoly:
    """The integer polynomial in X, Y, Z giving tr(w): the letter rules of
    trace_in over a packed image of Z[X, Y, Z], decoded once.

    The image is the Kronecker layout (_kronecker_trace) when its box of
    U V (min(n_a, n_b) + 1) s-bit digits fits in _KRONECKER_BITS, and the
    Z-packed dicts (_z_packed_trace) otherwise: see the module docstring."""
    n_a = sum(1 for gen, _ in w.letters if gen == "a")
    n_b = len(w.letters) - n_a
    # tr w has l1 norm at most 2 * 5^n_a * 2^n_b (module docstring), so
    # s-bit balanced digits hold its coefficients; s is a whole number of
    # bytes, so h = s/2 is whole too
    s = (((2 * 5 ** n_a) << n_b).bit_length() + 8) // 8 * 8
    if (n_a // 2 + 1) * (n_b // 2 + 1) * (min(n_a, n_b) + 1) * s <= _KRONECKER_BITS:
        return _kronecker_trace(w.letters, n_a, n_b, s)
    return _z_packed_trace(w.letters, s)


# The largest Kronecker box, in bits.  Every word of up to 31 letters fits;
# a sparse long word such as (ab)^500 would need gigabits.
_KRONECKER_BITS = 1 << 16

# The largest modulus g(2^s) of the exact pass in one ring, as n s bits:
# past it the ring's full-width products cost more than the vector pass.
_RING_BITS = 1 << 10

# A packed key is i + j * 2^32 for X^i Y^j.  The degree in X is at most
# n_a + 1, and no word that fits in memory has 2^32 a-letters.
_KEY_X, _KEY_Y = 1, 1 << 32

# The updates of trace_in, one formula per new c0..c3 for each letter,
# with W = Z - XY, and the trace of the final c0..c3.
_LETTER_RULES = {
    ("a", 1): ("W*c2 - c1 - Y*c3", "c0 + X*c1 + Y*c2 + Z*c3", "X*c2 + c3", "-c2"),
    ("a", -1): ("X*c0 + c1 - W*c2 + Y*c3", "-c0 - Y*c2 - Z*c3", "-c3", "c2 + X*c3"),
    ("b", 1): ("-c2", "-c3", "c0 + Y*c2", "c1 + Y*c3"),
    ("b", -1): ("Y*c0 + c2", "Y*c1 + c3", "-c0", "-c1"),
}
_TRACE_RULE = "c0 + c0 + X*c1 + Y*c2 + Z*c3"

# each multiplier as signed monomials (exponents of X, Y, Z; sign)
_MONOMIALS = {
    "1": (((0, 0, 0), 1),),
    "X": (((1, 0, 0), 1),),
    "Y": (((0, 1, 0), 1),),
    "Z": (((0, 0, 1), 1),),
    "W": (((0, 0, 1), 1), ((1, 1, 0), -1)),
}


def _rule_terms(formula: str) -> tuple[tuple[int, int, str], ...]:
    """(old index, sign, multiplier) per term of a formula: `-Y*c3` is
    (3, -1, "Y") and `c0` is (0, 1, "1")."""
    terms = []
    for sign, term in _split_signed_terms(formula):
        multiplier, _, c = term.rpartition("*")
        terms.append((int(c[1]), sign, multiplier or "1"))
    return tuple(terms)


def _rule_source(formula: str, write) -> str:
    """The formula as a Python expression: write(old index, multiplier)
    gives each term's signed pieces (sign, text), and the pieces are joined
    by their signs, a positive one first, as the sum starts from it."""
    pieces = [(sign * g, text) for i, sign, m in _rule_terms(formula) for g, text in write(i, m)]
    pieces.sort(key=lambda piece: piece[0] < 0)
    source = ("-" if pieces[0][0] < 0 else "") + pieces[0][1]
    return source + "".join(f" {'-' if g < 0 else '+'} {text}" for g, text in pieces[1:])


def _compiled(params: str, source: str):
    """A function of params returning source, compiled once."""
    # source is written by _rule_source from module constants only, the
    # rule tables, never from input: it holds the old indexes (ints) and
    # multiplier names that _rule_terms parses from them, the parameter
    # names and operators
    return eval(f"lambda {params}: {source}", {})


def _kronecker_term(i: int, multiplier: str) -> list[tuple[int, str]]:
    """c_i times a multiplier on Kronecker images: a shift by the image's
    exponent per monomial, x, y, z or xy, with W = Z - XY two of them."""
    return [
        (g, f"(c{i} << {'x' * e[0] + 'y' * e[1] + 'z' * e[2]})" if any(e) else f"c{i}")
        for e, g in _MONOMIALS[multiplier]
    ]


def _packed_rule(formula: str) -> tuple:
    """The formula resolved for both packed layouts.

    For the Kronecker layout, a function of the old images c0..c3 and the
    shifts x, y, z, xy of X, Y, Z and XY: `W*c2 - c1 - Y*c3` becomes
    `(c2 << z) - (c2 << xy) - c1 - (c3 << y)`.  For the Z-packed dicts,
    its first source (old index, sign, key offset, Z shift) and the rest
    (old index, sign, key offset).  The source that shifts goes first
    there, the only one copied with a shift: every formula has at most one,
    and v << 0 would copy a big int too."""
    sources = [
        (i, sign * g, x * _KEY_X + y * _KEY_Y, z)
        for i, sign, multiplier in _rule_terms(formula)
        for (x, y, z), g in _MONOMIALS[multiplier]
    ]
    first, *rest = sorted(sources, key=lambda source: not source[3])
    assert not any(z for *_, z in rest), formula
    kronecker = _compiled("c0, c1, c2, c3, x, y, z, xy", _rule_source(formula, _kronecker_term))
    return kronecker, (first, tuple((i, g, dk) for i, g, dk, _ in rest))


_PACKED_RULES = {letter: tuple(map(_packed_rule, rules)) for letter, rules in _LETTER_RULES.items()}
_PACKED_TRACE = _packed_rule(_TRACE_RULE)


def _kronecker_trace(letters, n_a: int, n_b: int, s: int) -> TracePoly:
    """tr(w) under X -> 2^h, Y -> 2^(hU), Z -> 2^(h + hU + 2hUV), h = s/2,
    U = n_a // 2 + 1 and V = n_b // 2 + 1: each coefficient one int, each
    monomial of a multiplier one shift (module docstring)."""
    u, v, h = n_a // 2 + 1, n_b // 2 + 1, s // 2
    x, y, z = h, h * u, h + h * u + s * u * v
    # every exponent of tr(w) is at least this one (module docstring)
    t = _packed_trace(letters, (0, x, y, z, x + y)) >> x * (n_a % 2) + y * (n_b % 2)
    # the balanced digit c at slot u' + U v' + U V k is c X^i Y^j Z^k for
    # i + k = n_a % 2 + 2u' and j + k = n_b % 2 + 2v'; adding 2^(s-1) to
    # every digit makes them all nonnegative, so each is read on its own
    top = min(n_a, n_b)
    width, half = s // 8, 1 << (s - 1)
    raw = _raised_digits(t, s, u * v * (top + 1))
    terms: dict[Monomial, int] = {}
    read = int.from_bytes
    for k in range(top + 1):
        i0 = (n_a - k) % 2
        for j in range((n_b - k) % 2, n_b - k + 1, 2):
            o = ((k * v + (j + k) // 2) * u + (i0 + k) // 2) * width
            for i in range(i0, n_a - k + 1, 2):
                d = read(raw[o:o + width], "little") - half
                if d:
                    terms[i, j, k] = d
                o += width
    return TracePoly._trusted(terms)


def _packed_trace(letters, shifts) -> int:
    """The image of tr(w) under X -> 2^x, Y -> 2^y, Z -> 2^z, for the shift
    table shifts = (0, x, y, z, x + y) of 1, X, Y, Z and XY: the compiled
    letter rules of _PACKED_RULES on one int per coefficient, with no
    decode.  _kronecker_trace passes the parity-compressed layout,
    variety._packed_residual the plain box."""
    _, x, y, z, xy = shifts
    c0, c1, c2, c3 = 1, 0, 0, 0
    for letter in letters:
        (f0, _), (f1, _), (f2, _), (f3, _) = _PACKED_RULES[letter]
        c0, c1, c2, c3 = (
            f0(c0, c1, c2, c3, x, y, z, xy),
            f1(c0, c1, c2, c3, x, y, z, xy),
            f2(c0, c1, c2, c3, x, y, z, xy),
            f3(c0, c1, c2, c3, x, y, z, xy),
        )
    return _PACKED_TRACE[0](c0, c1, c2, c3, x, y, z, xy)


def _z_packed_trace(letters, s: int) -> TracePoly:
    """tr(w) over dicts from X^i Y^j keys to polynomials in Z under
    Z -> 2^s (module docstring)."""
    cs = [({0: 1}, 1), ({}, 1), ({}, 1), ({}, 1)]
    for letter in letters:
        cs = [_combine(rule[1], cs, s) for rule in _PACKED_RULES[letter]]
    terms, sign = _combine(_PACKED_TRACE[1], cs, s)
    p = _decode(terms, s)
    return p if sign > 0 else -p


def _combine(rule, cs, s: int) -> tuple[dict[int, int], int]:
    """The packed sum of rule's sources over the (dict, sign) coefficients
    cs, as one new (dict, sign): the first source copied with its key
    offset and shift, the rest accumulated into that copy.  A lone source
    with neither is relabelled, not copied."""
    (i, g, dk, z), rest = rule
    src, sign = cs[i]
    sign *= g
    if z:
        out = {k + dk: v << s for k, v in src.items()}
    elif dk:
        out = {k + dk: v for k, v in src.items()}
    elif rest:
        out = src.copy()
    else:
        return src, sign
    get = out.get
    for i, g, dk in rest:
        src, g2 = cs[i]
        add = g * g2 == sign
        for k, v in src.items():
            k += dk
            t = get(k)
            if t is None:
                # assigned, not added to 0: 0 + v would copy a big int
                out[k] = v if add else -v
                continue
            t = t + v if add else t - v
            if t:
                out[k] = t
            else:
                del out[k]
    return out, sign


def _decode(packed: dict[int, int], s: int) -> TracePoly:
    """Read the balanced s-bit digits of each value as the coefficients of
    Z^0, Z^1, ...; exact while every coefficient is below 2^(s-1)."""
    width, half = s // 8, 1 << (s - 1)
    terms: dict[Monomial, int] = {}
    read = int.from_bytes
    for key, v in packed.items():
        j, i = divmod(key, _KEY_Y)
        raw = _raised_digits(v, s, v.bit_length() // s + 1)
        for k, o in enumerate(range(0, len(raw), width)):
            d = read(raw[o:o + width], "little") - half
            if d:
                terms[i, j, k] = d
    return TracePoly._trusted(terms)


def _raised_digits(v: int, s: int, slots: int) -> bytes:
    """v + 2^(s-1) (1 + 2^s + ... + 2^(s(slots-1))) as slots s/8-byte fields:
    each balanced digit d of v, |d| < 2^(s-1), is then a field holding d + 2^(s-1)."""
    half = (1 << (s - 1)).to_bytes(s // 8, "little")
    return (v + int.from_bytes(half * slots, "little")).to_bytes(len(half) * slots, "little")


# -- the exact pass at a point ---------------------------------------------------

_EXACT_RULES = {letter: tuple(map(_rule_terms, rules)) for letter, rules in _LETTER_RULES.items()}
_EXACT_TRACE = _rule_terms(_TRACE_RULE)


def _multiplier_table(multipliers) -> dict:
    """Each of the multipliers 1, X, Y, Z, W at a point, given as integer
    vectors, with each sign, as its nonzero entries (slot, value): the
    table that _trace_numerators reads."""
    return {
        (name, sign): [(k, sign * m) for k, m in enumerate(vector) if m]
        for name, vector in zip("1XYZW", multipliers)
        for sign in (1, -1)
    }


def _growth_bits(table, g) -> tuple[int, int, int]:
    """(s0, s_a, s_b) of a point: s = s0 + n_a s_a + n_b s_b bits decode
    tr(w) from the ring Z/g(2^s) (module docstring).  s_a and s_b are the
    bit lengths of G_a and G_b, the largest sums of the multipliers' row
    sums mu over the rules of a, A and of b, B; s0 is 3 more than that of
    the larger of the trace rule's sum and the largest |g_k|."""
    n = len(g) - 1
    mu = {}
    for name in "1XYZW":
        # column j of multiplication by the multiplier: its vector times t^j, modulo g
        columns = []
        for j in range(n):
            acc = [0] * (2 * n - 1)
            for k, m in table[name, 1]:
                acc[j + k] = m
            columns.append(_rem_monic(acc, g))
        mu[name] = max(sum(abs(column[r]) for column in columns) for r in range(n))

    def growth(gen):
        return max(sum(mu[m] for _, _, m in rule) for exp in (1, -1) for rule in _EXACT_RULES[gen, exp])

    s0 = max(sum(mu[m] for _, _, m in _EXACT_TRACE), *map(abs, g)).bit_length() + 3
    return s0, growth("a").bit_length(), growth("b").bit_length()


def _trace_numerators(letters, table, g, growth) -> list[int]:
    """Integer numerators of tr(w) at a point, over E^(L+1) for L letters.

    table is _multiplier_table of E, E x, E y, E z and E w, for
    w = z - x y, as integer vectors in a power basis 1, t, ..., t^(n-1) of
    the coordinates' field, where t is a root of the monic integer g
    (ascending coefficients) of degree n and E is a common denominator of
    x, y, z and w.  A rational point has g = t.  The letter rules of
    trace_in, read from _LETTER_RULES, keep each c0..c3 as n numerators
    over E^k after k letters: in the ring Z/g(2^s) (_ring_numerators) when
    its n s bits, s from the point's _growth_bits, are at most _RING_BITS,
    and as vectors otherwise.
    """
    s0, s_a, s_b = growth
    n_a = sum(1 for gen, _ in letters if gen == "a")
    s = s0 + n_a * s_a + (len(letters) - n_a) * s_b
    if (len(g) - 1) * s <= _RING_BITS:
        return _ring_numerators(letters, table, g, s)
    return _vector_numerators(letters, table, g)


def _vector_numerators(letters, table, g) -> list[int]:
    """The numerators of _trace_numerators with each coefficient kept as
    its n numerators, each new one reduced modulo g once (_reduced_sum)."""
    # the zero coefficients start with no entries: their products add nothing
    cs = [[1] + [0] * (len(g) - 2), [], [], []]
    for letter in letters:
        cs = [_reduced_sum(rule, cs, table, g) for rule in _EXACT_RULES[letter]]
    return _reduced_sum(_EXACT_TRACE, cs, table, g)


def _ring_term(i: int, multiplier: str) -> list[tuple[int, str]]:
    """c_i times a multiplier in the ring: its image iM, i1 for 1."""
    return [(1, f"i{multiplier} * c{i}")]


_RING_PARAMS = "c0, c1, c2, c3, i1, iX, iY, iZ, iW, N"


def _ring_step(rules) -> str:
    """The source of one letter's step in Z/N: each new coefficient its
    rule's sum of products, reduced once."""
    return "(" + ", ".join(f"({_rule_source(rule, _ring_term)}) % N" for rule in rules) + ")"


_RING_STEPS = {letter: _compiled(_RING_PARAMS, _ring_step(rules)) for letter, rules in _LETTER_RULES.items()}
_RING_TRACE = _compiled(_RING_PARAMS, f"({_rule_source(_TRACE_RULE, _ring_term)}) % N")


def _ring_numerators(letters, table, g, s: int) -> list[int]:
    """The numerators of _trace_numerators by the letter rules in Z/N,
    N = g(2^s), under t -> 2^s: each coefficient one int, each new one
    reduced once by its letter's compiled step (_RING_STEPS), and tr(w)
    read back as n balanced s-bit digits.  Exact for every s of at least
    s0 + n_a s_a + n_b s_b from the point's _growth_bits (module
    docstring)."""
    N = sum(c << k * s for k, c in enumerate(g))
    i1, iX, iY, iZ, iW = (sum(m << k * s for k, m in table[name, 1]) for name in "1XYZW")
    c0, c1, c2, c3 = 1, 0, 0, 0
    for letter in letters:
        c0, c1, c2, c3 = _RING_STEPS[letter](c0, c1, c2, c3, i1, iX, iY, iZ, iW, N)
    t = _RING_TRACE(c0, c1, c2, c3, i1, iX, iY, iZ, iW, N)
    if t > N >> 1:
        t -= N
    nums = []
    half, mask = 1 << (s - 1), (1 << s) - 1
    for _ in range(len(g) - 1):
        d = ((t + half) & mask) - half
        nums.append(d)
        t = (t - d) >> s
    return nums


def _reduced_sum(rule, cs, table, g) -> list[int]:
    """One new coefficient: the rule's products summed unreduced into 2n - 1
    slots, then reduced modulo g, once for this coefficient."""
    acc = [0] * (2 * len(g) - 3)
    for i, sign, multiplier in rule:
        c = cs[i]
        for k, m in table[multiplier, sign]:
            for j, v in enumerate(c, k):
                acc[j] += m * v
    return _rem_monic(acc, g)


def clear_trace_memo() -> None:
    """No-op kept for callers of the old memoized API: there is no memo."""
