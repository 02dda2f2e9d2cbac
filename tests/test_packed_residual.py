"""The packed zero test of symbolic_residual (variety._packed_residual)
against residuals expanded from trace_in over TracePoly, on seeded suites
and on residuals placed at the edges of the plain Kronecker box: a digit
at the coefficient bound, a monomial alone in the top slot, and the
monomials on either side of a radix step."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import frickelab
from frickelab import variety
from frickelab.tracering import TracePoly, trace_in
from frickelab.variety import (
    FUNDAMENTAL_IDENTITY,
    SymbolicResidual,
    VarietyPolynomial,
    parse_variety_poly,
    random_word,
    symbolic_residual,
    trace_identity_suite,
)
from frickelab.words import concat, parse_word

X, Y, Z = (TracePoly.variable(name) for name in "XYZ")
ONE, ZERO = TracePoly.constant(1), TracePoly()


def reference(F: VarietyPolynomial, words) -> SymbolicResidual:
    """F on the traces of the words, expanded term by term from trace_in
    over TracePoly, then split into content and primitive part."""
    int_terms, den = F.clear_denominators()
    traces = [trace_in(w.letters, X, Y, Z, ONE, ZERO) for w in words]
    total = TracePoly()
    for mono, c in int_terms.items():
        term = TracePoly.constant(c)
        for t, e in zip(traces, mono):
            term = term * t ** e
        total = total + term
    content = max(total.content(), 1)
    return SymbolicResidual(TracePoly({m: c // content for m, c in total.terms.items()}), content, den)


def power(F: VarietyPolynomial, n: int) -> VarietyPolynomial:
    """F^n, expanded."""
    terms = {(0,) * F.arity: Fraction(1)}
    for _ in range(n):
        out = {}
        for m1, c1 in terms.items():
            for m2, c2 in F.terms.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        terms = out
    return VarietyPolynomial(F.arity, terms)


def suite_samples(count: int, max_len: int, seed: int):
    """The (u, v, uv, uv^-1) tuples of trace_identity_suite, in its order."""
    rng = random.Random(seed)
    for _ in range(count):
        u, v = random_word(rng, max_len), random_word(rng, max_len)
        yield u, v, concat(u, v), concat(u, ~v)


# polynomial, longest word, and which residuals of the suite are zero
POLYNOMIALS = {
    "identity": (FUNDAMENTAL_IDENTITY, 12, "all"),
    "X1*X2 - X3": (parse_variety_poly("X1*X2 - X3", 4), 12, "none"),
    "halves": (parse_variety_poly("1/2*X1*X2 - 1/2*X3 - 1/2*X4"), 12, "all"),
    # zero, with large terms that cancel
    "identity cubed": (power(FUNDAMENTAL_IDENTITY, 3), 4, "all"),
    # exponents 3 and 4; X1^3 - X2^3 is zero only when tr u = tr v
    "identity times X1^3*X3": (parse_variety_poly("X1^4*X2*X3 - X1^3*X3^2 - X1^3*X3*X4"), 5, "all"),
    "X1^3 - X2^3": (parse_variety_poly("X1^3 - X2^3", 4), 8, "some"),
}


@pytest.mark.parametrize("name", sorted(POLYNOMIALS))
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_packed_verdict_equals_the_expanded_residual_on_seeded_suites(name, seed):
    F, max_len, zeros = POLYNOMIALS[name]
    int_terms, _ = F.clear_denominators()
    verdicts = []
    for words in suite_samples(40, max_len, seed):
        expected = reference(F, words)
        packed = variety._packed_residual(int_terms, words)
        if packed is not None:
            assert (packed == 0) == expected.is_zero(), words
            verdicts.append(packed == 0)
        # zero or not, the residual equals the expanded one, content and all
        assert symbolic_residual(F, words) == expected, words
    # most samples fit the box, and the verdicts are what F predicts
    assert len(verdicts) >= 30
    assert {"all": all(verdicts), "none": not any(verdicts), "some": 0 < sum(verdicts) < len(verdicts)}[zeros]


@pytest.mark.parametrize("c", [1, -1, 3, -7, 2 ** 100 + 1, -(3 ** 70)])
def test_a_digit_at_the_coefficient_bound(c):
    # c*X1 on the word 1 is 2c, and the bound sum |c| ||tr 1||_1 is 2|c|;
    # c*X1 - 2c is the same digit cancelled
    one = (parse_word("1"),)
    F = VarietyPolynomial(1, {(1,): c})
    assert variety._packed_residual({(1,): c}, one) == 2 * c
    sign = TracePoly.constant(1 if c > 0 else -1)
    assert symbolic_residual(F, one) == reference(F, one) == SymbolicResidual(sign, 2 * abs(c), 1)
    cancelled = VarietyPolynomial(1, {(1,): c, (0,): -2 * c})
    assert variety._packed_residual({(1,): c, (0,): -2 * c}, one) == 0
    assert symbolic_residual(cancelled, one) == reference(cancelled, one) == SymbolicResidual(ZERO, 1, 1)


def test_a_constant_digit_at_its_l1_bound_just_below_the_top_bit():
    # c0 + c1 X1 + ... + c5 X5 - X6 on the words 1, 1, 1, 1, 1, a: every
    # term's bound sits at 2^20 (b(c0) = 20; b(c_i) + b(||tr 1||_1 = 2) = 20;
    # b(1) + b(2 * 5) = 5), so s = 20 + b(7) = 23 and X -> 2^23.  tr 1 = 2
    # meets its l1 bound, so the constant digit c0 + 2 (c1 + ... + c5) is
    # exactly its l1 bound, 3670005: above 2^(s-2), below 2^(s-1).  The
    # image is that digit minus 2^s.
    c0, c = 2 ** 20 - 1, 2 ** 18 - 1
    int_terms = {(0,) * 6: c0, (0, 0, 0, 0, 0, 1): -1}
    for i in range(5):
        int_terms[tuple(int(k == i) for k in range(6))] = c
    words = (parse_word("1"),) * 5 + (parse_word("a"),)
    digit = c0 + 2 * 5 * c
    assert 2 ** 21 < digit < 2 ** 22
    assert variety._packed_residual(int_terms, words) == digit - 2 ** 23
    F = VarietyPolynomial(6, int_terms)
    assert symbolic_residual(F, words) == reference(F, words) == SymbolicResidual(TracePoly.constant(digit) - X, 1, 1)
    # the same digit cancelled by the term that meets it
    int_terms[(0, 0, 0, 0, 0, 1)] = 0
    int_terms[(0,) * 6] = c0 - digit
    F = VarietyPolynomial(6, int_terms)
    assert symbolic_residual(F, words) == reference(F, words) == SymbolicResidual(ZERO, 1, 1)


@pytest.mark.parametrize(
    "text, words, residual",
    [
        # X^DX Y^DY alone in the top slot of a box with DZ = 0
        ("X1*X2", "a,b", "X*Y"),
        ("-5*X1^2*X2^3", "a,b", "-5*X^2*Y^3"),
        # X^DX in the slot below Y, and Y^DY in the slot below Z: a box one
        # radix step too small would put each pair in one slot and cancel it
        ("X1 - X2 + 2", "aa,b", "X^2 - Y"),
        ("X1 - X2 + 2", "bb,ab", "Y^2 - Z"),
        ("X1^2 - X2 + 4", "aa,aab", "X^4 - 4*X^2 - X*Z + Y + 8"),
    ],
)
def test_nonzero_residuals_at_the_edges_of_the_box(text, words, residual):
    F = parse_variety_poly(text)
    ws = tuple(parse_word(w) for w in words.split(","))
    int_terms, _ = F.clear_denominators()
    assert variety._packed_residual(int_terms, ws) != 0
    r = symbolic_residual(F, ws)
    assert r == reference(F, ws)
    assert str(TracePoly({m: c * r.content for m, c in r.poly.terms.items()})) == residual


def test_zero_results_equal_the_expanded_residual():
    a, b = parse_word("a"), parse_word("b")
    for F, words in (
        (FUNDAMENTAL_IDENTITY, (a, b, parse_word("ab"), parse_word("aB"))),
        (parse_variety_poly("1/3*X1 - 1/3*X2"), (parse_word("aab"), parse_word("aba"))),
        (parse_variety_poly("X1^3 - 3*X1 - X2"), (a, parse_word("aaa"))),
        (VarietyPolynomial(2, {}), (a, b)),
    ):
        r = symbolic_residual(F, words)
        assert r.is_zero()
        assert r == reference(F, words) == SymbolicResidual(ZERO, 1, F.clear_denominators()[1])


def test_a_huge_exponent_takes_the_dict_route_at_once():
    # the box of X1^99999999 on a has about 4 * 10^16 bits; sizing it must
    # build nothing that large, under a 1 GiB address-space limit
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from frickelab.variety import parse_variety_poly, symbolic_residual\n"
        "from frickelab.words import parse_word\n"
        "F = parse_variety_poly('X1^99999999')\n"
        "t = time.perf_counter()\n"
        "r = symbolic_residual(F, (parse_word('a'),))\n"
        "print(time.perf_counter() - t, r.poly, r.content, r.denominator)\n"
    )
    src = os.path.dirname(os.path.dirname(frickelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("symbolic_residual(X1^99999999, (a,)) did not return within 20 s")
    assert proc.returncode == 0, proc.stderr
    elapsed, poly, content, den = proc.stdout.split()
    assert (poly, content, den) == ("X^99999999", "1", "1")
    assert float(elapsed) < 1


def test_words_past_the_box_budget_take_the_dict_route(monkeypatch):
    routes, expanded = [], []
    packed_residual, trace_polynomial = variety._packed_residual, variety.trace_polynomial

    def packed_spy(int_terms, words):
        result = packed_residual(int_terms, words)
        routes.append((max(map(len, words)), result))
        return result

    def trace_spy(w):
        expanded.append(w)
        return trace_polynomial(w)

    monkeypatch.setattr(variety, "_packed_residual", packed_spy)
    monkeypatch.setattr(variety, "trace_polynomial", trace_spy)
    report = trace_identity_suite(40, 40, seed=7)
    assert report.passed()
    long_samples = [result for longest, result in routes if longest >= 40]
    assert long_samples and all(result is None for result in long_samples)
    # the dict route expands the four words of every sample past the
    # budget, and nothing else
    assert len(expanded) == 4 * sum(result is None for _, result in routes)
    assert all(result == 0 for _, result in routes if result is not None)


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_a_maxlen_10_suite_decodes_no_trace_polynomial(monkeypatch, seed):
    def refuse(w):
        raise AssertionError(f"trace_polynomial({w}) called for a zero residual")

    monkeypatch.setattr(variety, "trace_polynomial", refuse)
    assert trace_identity_suite(200, 10, seed=seed).passed()
