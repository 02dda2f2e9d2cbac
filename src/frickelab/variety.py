"""Marked length varieties: membership checking and the rigidity hypothesis.

A variety polynomial is a rational-coefficient polynomial F in trace
variables X1..Xn; a word tuple (w1, ..., wn) belongs to the variety of F
at a hyperbolic structure when F vanishes on the traces of the words
there.  Symbolic residuals decide membership for every point of
Teichmuller space at once; numeric membership is decided exactly at
rational or shared-field points and by certified intervals otherwise.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .algebraic import SalemVerdict, is_geometric_salem
from .fricke import EvalResult, FrickePoint, evaluate_at_point, trace_of
from .poly import UniPoly, format_poly
from .tracering import (
    _KRONECKER_BITS,
    TracePoly,
    _format_signed_terms,
    _packed_trace,
    _parse_signed_terms,
    trace_polynomial,
)
from .words import Word, concat

Exponents = tuple[int, ...]


class VarietyPolynomial:
    """Sparse polynomial in X1..Xn over the rationals."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[Exponents, Fraction] | Iterable[tuple[Exponents, Fraction]]):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.arity = arity
        d = dict(terms)
        self.terms: dict[Exponents, Fraction] = {}
        for m, c in d.items():
            if len(m) != arity:
                raise ValueError(f"monomial {m} does not match arity {arity}")
            c = Fraction(c)
            if c:
                self.terms[tuple(m)] = c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VarietyPolynomial)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"VarietyPolynomial({self.arity}, {format_variety_poly(self)!r})"

    def __str__(self) -> str:
        return format_variety_poly(self)

    def clear_denominators(self) -> tuple[dict[Exponents, int], int]:
        """Integer coefficient map and the positive common denominator."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return {m: int(c * den) for m, c in self.terms.items()}, den


# the universal trace identity polynomial X1*X2 - X3 - X4
FUNDAMENTAL_IDENTITY = VarietyPolynomial(
    4,
    {
        (1, 1, 0, 0): Fraction(1),
        (0, 0, 1, 0): Fraction(-1),
        (0, 0, 0, 1): Fraction(-1),
    },
)

PATTERN_POLYNOMIAL = VarietyPolynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})


def format_variety_poly(F: VarietyPolynomial) -> str:
    return _format_signed_terms(F.terms, [f"X{i + 1}" for i in range(F.arity)])


_VAR_RE = re.compile(r"X(\d+)(?:\^(\d+))?")


def _variable(factor: str) -> Optional[re.Match]:
    """Match of an `Xi` or `Xi^e` factor; index 0 is an error that quotes it."""
    m = _VAR_RE.fullmatch(factor)
    if m and int(m.group(1)) < 1:
        raise ValueError(f"variable index must be >= 1 in {factor!r}")
    return m


def parse_variety_poly(text: str, arity: Optional[int] = None) -> VarietyPolynomial:
    """Parse `X1*X2 - X3 - X4` style text; arity defaults to the top index."""
    text = text.strip()
    if not text:
        raise ValueError("empty variety polynomial text")
    raw_terms = _parse_signed_terms(text, _variable, Fraction)
    top = max((int(name) for exps, _ in raw_terms for name in exps), default=0)
    n = arity if arity is not None else max(top, 1)
    if top > n:
        raise ValueError(f"variable X{top} exceeds declared arity {n}")
    terms: dict[Exponents, Fraction] = {}
    for exps, coeff in raw_terms:
        mono = [0] * n
        for name, exp in exps.items():
            mono[int(name) - 1] += exp
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return VarietyPolynomial(n, terms)


# -- symbolic membership -------------------------------------------------------


@dataclass(frozen=True)
class SymbolicResidual:
    """Primitive integer residual together with the cleared denominator.

    The actual residual is poly * (content / denominator); vanishing of the
    primitive part is equivalent to vanishing of the residual.
    """

    poly: TracePoly
    content: int
    denominator: int

    def is_zero(self) -> bool:
        return self.poly.is_zero()


def symbolic_residual(F: VarietyPolynomial, words: Sequence[Word]) -> SymbolicResidual:
    """F composed with the trace polynomials of the words, in the trace ring.

    A zero residual certifies membership at every point of Teichmuller
    space simultaneously.  Whether it is zero is first decided with no
    trace polynomial at all: F's cleared numerator is evaluated on the
    images of the traces under a plain Kronecker substitution
    (_packed_residual), and the residual is zero exactly when that int is
    (proof in the tracering module docstring).  Only a nonzero residual, or
    one whose box exceeds _KRONECKER_BITS, is built term by term from the
    decoded trace polynomials, which numeric_member evaluates at a point.
    """
    if len(words) != F.arity:
        raise ValueError(f"arity mismatch: polynomial takes {F.arity} words, got {len(words)}")
    int_terms, den = F.clear_denominators()
    if _packed_residual(int_terms, words) == 0:
        return SymbolicResidual(TracePoly(), 1, den)
    traces = [trace_polynomial(w) for w in words]
    total = TracePoly()
    for mono, c in sorted(int_terms.items()):
        term = TracePoly.constant(c)
        for t, e in zip(traces, mono):
            if e:
                term = term * t ** e
        total = total + term
    content = total.content()
    if content > 1:
        total = TracePoly({m: c // content for m, c in total.terms.items()})
    return SymbolicResidual(total, max(content, 1), den)


def _packed_residual(int_terms: Mapping[Exponents, int], words: Sequence[Word]) -> Optional[int]:
    """The residual sum c * prod tr(w_i)^e_i over int_terms, as its image
    under X -> 2^s, Y -> 2^(s(DX+1)), Z -> 2^(s(DX+1)(DY+1)), which is zero
    exactly when the residual is; None when that box of s(DX+1)(DY+1)(DZ+1)
    bits exceeds _KRONECKER_BITS.  DX, DY, DZ and s come from the words'
    letter counts and bit lengths alone, so a huge exponent costs nothing
    here (tracering module docstring)."""
    counts = []
    for w in words:
        n_a = sum(1 for gen, _ in w.letters if gen == "a")
        counts.append((n_a, len(w.letters) - n_a))
    # bit lengths of the l1 bounds 2 * 5^n_a * 2^n_b
    l1_bits = [(5 ** n_a).bit_length() + n_b + 1 for n_a, n_b in counts]
    dx = dy = dz = term_bits = 0
    for mono, c in int_terms.items():
        dx = max(dx, sum(e * n_a for e, (n_a, _) in zip(mono, counts)))
        dy = max(dy, sum(e * n_b for e, (_, n_b) in zip(mono, counts)))
        dz = max(dz, sum(e * min(n) for e, n in zip(mono, counts)))
        term_bits = max(term_bits, abs(c).bit_length() + sum(e * b for e, b in zip(mono, l1_bits)))
    # each term's bound is below 2^term_bits, and their sum below len(int_terms) times that
    s = term_bits + len(int_terms).bit_length() + 1
    if s * (dx + 1) * (dy + 1) * (dz + 1) > _KRONECKER_BITS:
        return None
    x, y = s, s * (dx + 1)
    z = y * (dy + 1)
    images = [_packed_trace(w.letters, (0, x, y, z, x + y)) for w in words]
    return sum(c * math.prod(t ** e for t, e in zip(images, mono) if e) for mono, c in int_terms.items())


IN, OUT, UNDECIDED = "In", "Out", "Undecided"


def numeric_member(F: VarietyPolynomial, words: Sequence[Word], pt: FrickePoint) -> str:
    """Membership verdict at one point: In / Out, or Undecided only for
    interval-backed points whose residual straddles zero."""
    residual = symbolic_residual(F, words)
    if residual.is_zero():
        return IN
    value = evaluate_at_point(residual.poly, pt)
    if value.is_certified_zero():
        return IN
    if value.is_certified_nonzero():
        return OUT
    return UNDECIDED


def pattern_member(u: Word, v: Word, pt: FrickePoint) -> str:
    """Equal-length-pattern membership: does tr(u) = tr(v) hold at pt."""
    return numeric_member(PATTERN_POLYNOMIAL, (u, v), pt)


# -- the geometric-Salem hypothesis check ----------------------------------------


@dataclass(frozen=True)
class SubsetCheck:
    subset: tuple[int, ...]
    word: Word
    minimal_polynomial: UniPoly
    salem: SalemVerdict
    trace_is_root: bool
    exact: bool

    def passed(self) -> bool:
        return self.salem.status == "GeometricSalem" and self.trace_is_root


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[SubsetCheck, ...]
    rigidity_set: tuple[str, ...]
    satisfied: bool

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            subset = "{" + ",".join(str(i) for i in c.subset) + "}"
            root_note = "root: certified" if c.trace_is_root else "root: FAILED"
            if not c.exact:
                root_note += " (interval tolerance only)"
            lines.append(
                f"subset {subset} word {c.word}: {c.salem.status} ({c.salem.reason}); {root_note}"
            )
        lines.append("rigidity set: " + "; ".join(self.rigidity_set))
        lines.append(f"verdict: {'Satisfied' if self.satisfied else 'NotSatisfied'}")
        return "\n".join(lines)


def _subset_word(generators: Sequence[Word], subset: tuple[int, ...]) -> Word:
    out = Word()
    for i in subset:
        out = concat(out, generators[i - 1])
    return out


def _all_subsets(n: int) -> list[tuple[int, ...]]:
    out = []
    for mask in range(1, 1 << n):
        out.append(tuple(i + 1 for i in range(n) if mask >> i & 1))
    return sorted(out, key=lambda s: (len(s), s))


def check_rigidity_hypothesis(
    generators: Sequence[Word],
    minpolys: Mapping[tuple[int, ...], UniPoly],
    pt: FrickePoint,
    prime_bound: int = 500,
    tol: Fraction = Fraction(1, 2**96),
) -> HypothesisReport:
    """Verify the geometric-Salem trace hypothesis for a generating set.

    For every nonempty increasing index subset, the supplied minimal
    polynomial must certify GeometricSalem and the trace of the subset
    product at pt must be one of its roots (exactly for rational or
    shared-field points, within interval tolerance otherwise).
    """
    n = len(generators)
    subsets = _all_subsets(n)
    for s in subsets:
        if s not in minpolys:
            raise ValueError(f"missing minimal polynomial for subset {{{','.join(map(str, s))}}}")
    checks = []
    for s in subsets:
        f = minpolys[s]
        word = _subset_word(generators, s)
        salem = is_geometric_salem(f, prime_bound)
        tr = trace_of(pt, word)
        is_root, exact = _trace_is_root(tr, f, tol)
        checks.append(SubsetCheck(s, word, f, salem, is_root, exact))
    rigidity_set = tuple(
        [format_variety_poly(FUNDAMENTAL_IDENTITY)]
        + [format_poly(minpolys[s]) for s in subsets]
    )
    satisfied = all(c.passed() for c in checks)
    return HypothesisReport(tuple(checks), rigidity_set, satisfied)


def _trace_is_root(tr: EvalResult, f: UniPoly, tol: Fraction) -> tuple[bool, bool]:
    """Whether f vanishes at the trace value; second flag marks exactness."""
    acc = 0 * tr.value
    for c in reversed(f.coeffs):
        acc = acc * tr.value + c
    if tr.kind == "interval":
        return -tol <= acc.lo and acc.hi <= tol, False
    return EvalResult(tr.kind, acc).is_certified_zero(), True


# -- randomized identity suite -----------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    samples: int
    max_len: int
    seed: int
    failures: tuple[tuple[str, str], ...]  # offending word pairs

    def passed(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [
            f"samples: {self.samples}",
            f"max word length: {self.max_len}",
            f"seed: {self.seed}",
        ]
        for u, v in self.failures[:10]:
            lines.append(f"counterexample: u={u} v={v}")
        lines.append(f"verdict: {'Pass' if self.passed() else 'Fail'}")
        return "\n".join(lines)


def random_word(rng: random.Random, max_len: int) -> Word:
    target = rng.randint(0, max_len)
    letters = [
        (rng.choice("ab"), rng.choice((1, -1)))
        for _ in range(target)
    ]
    return Word(letters)


def trace_identity_suite(
    sample_count: int,
    max_len: int,
    seed: int = 0,
    polynomial: Optional[VarietyPolynomial] = None,
) -> SuiteReport:
    """Assert the symbolic residual of the identity polynomial vanishes on
    (u, v, uv, uv^-1) for seeded random word pairs.

    Passing an adversarial polynomial turns this into a negative control:
    a non-identity must produce counterexamples.  Raises ValueError for
    sample_count < 1 or max_len < 0, so an empty suite never passes.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    if max_len < 0:
        raise ValueError(f"max_len must be at least 0, got {max_len}")
    F = polynomial if polynomial is not None else FUNDAMENTAL_IDENTITY
    rng = random.Random(seed)
    failures = []
    for _ in range(sample_count):
        u = random_word(rng, max_len)
        v = random_word(rng, max_len)
        tup = (u, v, concat(u, v), concat(u, ~v))
        if not symbolic_residual(F, tup).is_zero():
            failures.append((str(u), str(v)))
    return SuiteReport(sample_count, max_len, seed, tuple(failures))
